"""Greedy string graph: exact equivalence with sequential greedy + invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import MemoryPool
from repro.errors import ConfigError, GraphInvariantError, HostMemoryError
from repro.graph import GreedyStringGraph, complement_vertices


def sequential_greedy(n_reads, read_length, candidate_batches):
    """Straight-line reference: one candidate at a time, paper rules."""
    out_edges = {}
    has_out = set()
    for sources, targets, length in candidate_batches:
        for u, v in zip(sources, targets):
            u, v = int(u), int(v)
            if (u >> 1) == (v >> 1):
                continue
            if u in has_out or (v ^ 1) in has_out:
                continue
            has_out.add(u)
            has_out.add(v ^ 1)
            out_edges[u] = (v, length)
            out_edges[v ^ 1] = (u ^ 1, length)
    return out_edges


candidate_batches_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 59), min_size=1, max_size=40),
        st.integers(5, 19),
    ),
    min_size=1, max_size=6,
)


class TestGreedyEquivalence:
    @given(candidate_batches_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_matches_sequential_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        n_reads, read_length = 30, 20
        graph = GreedyStringGraph(n_reads, read_length)
        batches = []
        lengths_used = sorted({length for _, length in shape}, reverse=True)
        for (source_pool, _), length in zip(shape, lengths_used):
            m = len(source_pool)
            sources = np.array(source_pool, dtype=np.int64)
            targets = rng.integers(0, 2 * n_reads, m)
            batches.append((sources, targets, length))
        for sources, targets, length in batches:
            graph.add_candidates(sources, targets, length)
        reference = sequential_greedy(n_reads, read_length, batches)
        graph.check_invariants()
        edge_sources, edge_targets, overlaps = graph.edge_list()
        got = {int(u): (int(v), int(l))
               for u, v, l in zip(edge_sources, edge_targets, overlaps)}
        assert got == reference

    def test_accepted_count_returned(self):
        graph = GreedyStringGraph(4, 10)
        accepted = graph.add_candidates(np.array([0, 0, 2]),
                                        np.array([2, 4, 4]), 5)
        # 0->2 accepted; 0->4 rejected (0 already has an out-edge);
        # 2->4 accepted (2 and 5 both still free).
        assert accepted == 2
        assert graph.candidates_seen == 3


class TestRules:
    def test_same_read_pairs_never_edge(self):
        graph = GreedyStringGraph(2, 10)
        graph.add_candidates(np.array([0, 1]), np.array([1, 0]), 4)
        assert graph.n_edges == 0  # 0,1 are the same read's orientations

    def test_complement_twin_inserted(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 6)
        assert graph.out_vertex(0) == 2
        assert graph.out_vertex(3) == 1  # (v', u') = (2^1, 0^1)
        assert graph.n_edges == 2

    def test_longer_overlap_wins(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 8)
        graph.add_candidates(np.array([0]), np.array([4]), 5)
        assert graph.out_vertex(0) == 2
        assert graph.overlap[0] == 8

    def test_in_degree_capped_via_complement_rule(self):
        graph = GreedyStringGraph(4, 10)
        graph.add_candidates(np.array([0, 2]), np.array([4, 4]), 5)
        # Second candidate hits v' = 5 already having an out-edge.
        assert graph.n_edges == 2
        graph.check_invariants()

    def test_length_validation(self):
        graph = GreedyStringGraph(2, 10)
        with pytest.raises(ConfigError):
            graph.add_candidates(np.array([0]), np.array([2]), 10)  # == L
        with pytest.raises(ConfigError):
            graph.add_candidates(np.array([0]), np.array([2]), 0)

    def test_vertex_range_validation(self):
        graph = GreedyStringGraph(2, 10)
        with pytest.raises(ConfigError):
            graph.add_candidates(np.array([0]), np.array([7]), 5)

    def test_overhangs(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 6)
        overhangs = graph.overhangs()
        assert overhangs[0] == 4   # 10 - 6
        assert overhangs[2] == 10  # no out-edge


class TestAccounting:
    def test_host_pool_charged_and_released(self):
        pool = MemoryPool("host", 10_000_000, HostMemoryError)
        graph = GreedyStringGraph(1000, 50, pool)
        assert pool.used_bytes == graph.nbytes
        graph.release()
        assert pool.used_bytes == 0

    def test_complement_vertices(self):
        assert complement_vertices(4) == 5
        assert complement_vertices(np.array([0, 3])).tolist() == [1, 2]

    def test_invariant_checker_catches_tampering(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 6)
        graph.target[3] = -1  # break complement symmetry
        with pytest.raises(GraphInvariantError):
            graph.check_invariants()

    def test_invariant_checker_catches_a_repeated_target(self, tmp_path):
        """Two vertices pointing at one target: in-degree 2, and an archive
        holding it does not load."""
        from repro.core.checkpoint import load_graph_file, save_graph_file

        graph = GreedyStringGraph(4, 10)
        graph.add_candidates(np.array([0, 4]), np.array([2, 6]), 6)
        graph.check_invariants()
        save_graph_file(tmp_path / "ok.npz", graph)
        assert load_graph_file(tmp_path / "ok.npz") is not None
        graph.target[4] = 2  # 0 -> 2 and 4 -> 2
        with pytest.raises(GraphInvariantError, match="in-degree > 1"):
            graph.check_invariants()
        save_graph_file(tmp_path / "bad.npz", graph)
        assert load_graph_file(tmp_path / "bad.npz") is None
        graph.target[4] = 99  # not a vertex at all
        with pytest.raises(GraphInvariantError, match="out of range"):
            graph.check_invariants()
