"""Duplicate reads close in the whole-read band, before any overlap.

A read equal to a lower-numbered read, on either strand, is dropped: both
of its orientations are closed before the first overlap length, so it
takes no edge, is on no path and spells no contig. The pipeline decides
it by fingerprints (``close_duplicates`` over the sorted ``P_L``); the
oracle by comparing the reads as strings (``duplicate_reads``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.baselines import duplicate_reads
from repro.config import ServiceConfig
from repro.core import pipeline
from repro.core.checkpoint import GRAPH_FILE, load_graph_file, save_graph_file
from repro.errors import ConfigError, FaultInjected, GraphInvariantError
from repro.faults import CRASH, READ, Fault, FaultPlan, inject, result_digest
from repro.graph import GreedyStringGraph, extract_paths
from repro.seq.alphabet import reverse_complement
from repro.seq.packing import PackedReadStore
from repro.seq.records import ReadBatch
from repro.service import AssemblyService, JobSpec

READ_LENGTH = 20
MIN_OVERLAP = 10


def _hand_built_reads() -> ReadBatch:
    """Twelve reads: a tiling of one genome, with duplicates of every kind.

    Read 4 repeats read 1, read 7 is read 2's reverse complement, read 9
    repeats read 1 again, read 10 is a palindrome (its own reverse
    complement) and read 11 repeats it.
    """
    rng = np.random.default_rng(3)
    genome = rng.integers(0, 4, 80, dtype=np.uint8)
    tiles = [genome[start:start + READ_LENGTH] for start in range(0, 61, 10)]
    half = rng.integers(0, 4, READ_LENGTH // 2, dtype=np.uint8)
    palindrome = np.concatenate([half, reverse_complement(half)])
    rows = [tiles[0], tiles[1], tiles[2], tiles[3], tiles[1], tiles[4],
            tiles[5], reverse_complement(tiles[2]), tiles[6], tiles[1],
            palindrome, palindrome]
    return ReadBatch(np.stack(rows))


@pytest.fixture()
def hand_built(tmp_path):
    batch = _hand_built_reads()
    path = tmp_path / "reads.lsgr"
    with PackedReadStore.create(path, READ_LENGTH) as store:
        store.append_batch(batch)
    return batch, path


def _config(**kwargs) -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2, **kwargs)


# -- the graph's dropped reads --------------------------------------------------


class TestDroppedReads:
    def test_close_reads_sets_both_orientations_and_no_edge(self):
        graph = GreedyStringGraph(5, 30)
        assert graph.close_reads(np.array([3, 1, 3])) == 2
        assert graph.close_reads(np.array([1])) == 0
        assert graph.reads_closed == 2
        assert np.flatnonzero(graph.dropped()).tolist() == [2, 3, 6, 7]
        assert graph.n_edges == 0
        graph.check_invariants()
        # A candidate that claims a dropped vertex is refused.
        assert graph.add_candidates(np.array([2, 0]), np.array([4, 7]), 20) == 0
        assert graph.add_candidates(np.array([0]), np.array([4]), 20) == 1
        graph.check_invariants()
        with pytest.raises(ConfigError, match="has an edge"):
            graph.close_reads(np.array([0]))

    def test_one_open_orientation_is_not_a_dropped_read(self):
        graph = GreedyStringGraph(4, 30)
        graph.close_reads(np.array([2]))
        graph.out_bits.set(np.array([2]))  # read 1's forward only
        with pytest.raises(GraphInvariantError, match="one orientation"):
            graph.check_invariants()

    def test_dropped_reads_must_match_their_count(self):
        graph = GreedyStringGraph(4, 30)
        graph.out_bits.set(np.array([2, 3]))
        with pytest.raises(GraphInvariantError, match="count"):
            graph.check_invariants()

    def test_dropped_reads_are_on_no_path(self):
        graph = GreedyStringGraph(4, 30)
        graph.close_reads(np.array([1]))
        graph.add_candidates(np.array([0]), np.array([4]), 20)
        paths = extract_paths(graph)
        on_paths = set(paths.vertices.tolist())
        assert not on_paths & {2, 3}
        # Read 3 has no edge and is open: a singleton, in both orientations.
        assert {6, 7} <= on_paths

    def test_a_graph_with_dropped_reads_survives_its_archive(self, tmp_path):
        graph = GreedyStringGraph(6, 30)
        graph.close_reads(np.array([2, 5]))
        graph.add_candidates(np.array([0, 2]), np.array([2, 8]), 20)
        save_graph_file(tmp_path / GRAPH_FILE, graph)
        restored = load_graph_file(tmp_path / GRAPH_FILE)
        assert restored is not None
        assert restored.reads_closed == 2
        assert np.array_equal(restored.dropped(), graph.dropped())
        assert np.array_equal(restored.target, graph.target)
        assert restored.out_bits.to_bytes() == graph.out_bits.to_bytes()


# -- the pipeline drops what the oracle drops --------------------------------------


def test_the_pipeline_drops_exactly_the_oracles_duplicates(hand_built, tmp_path):
    batch, path = hand_built
    assert duplicate_reads(batch).tolist() == [4, 7, 9, 11]
    result = Assembler(_config()).assemble(path, workdir=tmp_path / "w",
                                           resume=True)
    assert result.reduce_report.reads_closed == 4
    restored = load_graph_file(tmp_path / "w" / GRAPH_FILE)
    dropped_reads = np.flatnonzero(restored.dropped()[0::2])
    assert dropped_reads.tolist() == [4, 7, 9, 11]
    # The palindrome keeps its lowest copy, and no read comes out twice.
    assert not restored.dropped()[20]
    assert "duplicate reads dropped: 4" in result.summary()


@pytest.mark.parametrize("lanes", (1, 2))
def test_a_window_never_splits_a_sequence(hand_built, tmp_path, lanes):
    """Reduce windows of a few records still see each group whole."""
    _, path = hand_built
    wide = Assembler(AssemblyConfig(
        min_overlap=MIN_OVERLAP, fingerprint_lanes=lanes)).assemble(
            path, workdir=tmp_path / "wide")
    # A one-record reduce window: every group widens it to its own size.
    narrow = Assembler(AssemblyConfig(
        min_overlap=MIN_OVERLAP, fingerprint_lanes=lanes, host_block_pairs=8,
        device_block_pairs=6)).assemble(path, workdir=tmp_path / "narrow")
    assert narrow.reduce_report.reads_closed \
        == wide.reduce_report.reads_closed == 4
    assert narrow.contigs.flat_codes.tobytes() == wide.contigs.flat_codes.tobytes()


def test_a_crash_between_the_sort_and_the_closing_resumes_clean(
        hand_built, tmp_path):
    """Killed at reduce's first read, P_L's: the resumed run neither maps
    nor sorts the whole-read length again and closes the duplicates from
    its sorted run. (Its 8-record sort blocks make P_L's sort spill: a
    run held in host memory has no file, and its length is mapped and
    sorted again.)"""
    _, path = hand_built
    config = _config(host_block_pairs=16)
    clean = Assembler(config).assemble(path, workdir=tmp_path / "clean",
                                       resume=True)
    assert clean.sort_report.reports[("P", READ_LENGTH)].initial_runs > 1
    workdir = tmp_path / "w"
    crash = FaultPlan([Fault(CRASH, site=READ, match="*P_00020.sorted.run")])
    with inject(crash), pytest.raises(FaultInjected):
        Assembler(config).assemble(path, workdir=workdir, resume=True)
    assert [p.name for p in (workdir / "partitions").glob("*.sorted.run")] \
        == ["P_00020.sorted.run"]
    replay = FaultPlan()
    with inject(replay):
        resumed = Assembler(config).assemble(path, workdir=workdir,
                                             resume=True)
    assert result_digest(resumed) == result_digest(clean)
    assert resumed.reduce_report.reads_closed == 4
    assert not any(point.path.endswith("P_00020.run") for point in replay.trace)


def test_a_warm_service_run_maps_nothing(tiny_md, tmp_path, monkeypatch):
    """The cached graph of a source with duplicates is served: its archive
    passes the invariants the restore runs, so no run maps again."""
    config = AssemblyConfig(min_overlap=25)
    service_config = ServiceConfig(cache_dir=str(tmp_path / "cache"),
                                   workdir=str(tmp_path / "jobs"))
    cold = AssemblyService(service_config).run_jobs(
        [JobSpec("cold", "alice", tiny_md.store_path, config)])
    assert cold.outcomes[0].result.reduce_report.reads_closed > 0
    mapped = []
    real = pipeline.run_map
    monkeypatch.setattr(pipeline, "run_map",
                        lambda *a, **k: mapped.append(1) or real(*a, **k))
    warm = AssemblyService(service_config).run_jobs(
        [JobSpec("warm", "bob", tiny_md.store_path, config)])
    assert mapped == []
    assert result_digest(warm.outcomes[0].result) \
        == result_digest(cold.outcomes[0].result)
