"""Greedy string graph: exact equivalence with sequential greedy + invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import MemoryPool
from repro.errors import ConfigError, GraphInvariantError, HostMemoryError
from repro.graph import GreedyStringGraph
from repro.graph.string_graph import NO_EDGE


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


def int64_reference(n_reads, read_length, batches):
    """The graph as int64 arrays with ``-1`` for no edge (the old layout)."""
    target = np.full(2 * n_reads, -1, dtype=np.int64)
    overlap = np.zeros(2 * n_reads, dtype=np.int64)
    for u, (v, length) in sequential_greedy(n_reads, read_length,
                                            batches).items():
        target[u], overlap[u] = v, length
    return target, overlap


class TestCompactLayout:
    """The edge and nothing else: a uint32 target, a narrow overlap, a bit."""

    @given(candidate_batches_strategy, st.integers(0, 2**32 - 1),
           st.sampled_from([20, 256, 300]))
    @settings(max_examples=60)
    def test_matches_an_int64_graph(self, shape, seed, read_length):
        rng = np.random.default_rng(seed)
        n_reads = 30
        # Overlaps up to L - 1 (255 for L = 256, the widest uint8 one).
        lengths = sorted({read_length + 4 - length for _, length in shape},
                         reverse=True)
        batches = [(np.array(pool, dtype=np.int64),
                    rng.integers(0, 2 * n_reads, len(pool)), length)
                   for (pool, _), length in zip(shape, lengths)]
        graph = GreedyStringGraph(n_reads, read_length)
        for sources, targets, length in batches:
            graph.add_candidates(sources, targets, length)
        graph.check_invariants()
        target, overlap = int64_reference(n_reads, read_length, batches)
        # An in-edge is read off the complement's out-degree bit.
        in_degree = np.bincount(target[target >= 0], minlength=2 * n_reads)
        assert in_degree.max(initial=0) <= 1
        assert np.array_equal(graph.has_in_edge(), in_degree == 1)
        sources, targets, overlaps = graph.edge_list()
        assert sources.dtype == targets.dtype == overlaps.dtype == np.int64
        assert np.array_equal(sources, np.flatnonzero(target >= 0))
        assert np.array_equal(targets, target[sources])
        assert np.array_equal(overlaps, overlap[sources])
        assert np.array_equal(graph.overhangs(),
                              np.where(target >= 0, read_length - overlap,
                                       read_length))
        assert [graph.out_vertex(v) for v in range(2 * n_reads)] \
            == target.tolist()

    @pytest.mark.parametrize("read_length, overlap_bytes",
                             [(2, 1), (100, 1), (256, 1), (257, 2), (1000, 2)])
    def test_five_and_an_eighth_bytes_a_vertex(self, read_length, overlap_bytes):
        graph = GreedyStringGraph(24_800, read_length)
        assert graph.target.dtype == np.uint32
        assert graph.overlap.dtype.itemsize == overlap_bytes
        assert graph.nbytes == 49_600 * (4 + overlap_bytes + 1 / 8)
        assert GreedyStringGraph.bytes_for(24_800, read_length) == graph.nbytes
        # A vertex count off a whole word rounds the out-bits up.
        assert GreedyStringGraph.bytes_for(3, read_length) \
            == GreedyStringGraph(3, read_length).nbytes

    def test_longest_overlap_fits_the_narrow_type(self):
        graph = GreedyStringGraph(2, 256)
        graph.add_candidates(np.array([0]), np.array([2]), 255)
        assert graph.edge_list()[2].tolist() == [255, 255]
        assert graph.overhangs()[0] == 1

    def test_too_many_reads_for_a_uint32_target(self):
        """Raised before a byte is allocated (the arrays would be 21 GB)."""
        with pytest.raises(ConfigError, match="uint32"):
            GreedyStringGraph(2**31, 100)


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

    def test_invariant_checker_catches_tampering(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 6)
        graph.target[3] = NO_EDGE  # break complement symmetry
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
