"""The lazy schedule: each length is sorted just before reduce reads it,
minus the records the out-degree bit-vector has already closed.

``Assembler`` must build exactly the graph of the eager composition
(``run_sort`` over every partition, then ``run_reduce`` over all of them,
``pipeline.eager_composition``) while sorting only the records that can
still win. (The cluster runs the same filter in rounds of one length per
node: ``tests/test_distributed_rounds.py``.)
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core import pipeline
from repro.core.context import RunContext
from repro.core.map_phase import band_report, run_map
from repro.core.sort_phase import make_sorter
from repro.extmem import PartitionStore
from repro.extmem.partitions import partition_sides
from repro.extmem.records import KEY_FIELD, VAL_FIELD, kv_dtype
from repro.faults import (CRASH, PHASE, READ, RENAME, WRITE, Fault,
                          FaultPlan, inject, result_digest, scan_residue)
from repro.errors import FaultInjected
from repro.graph import GreedyStringGraph
from repro.graph.bitvector import PackedBitVector
from repro.graph.string_graph import NO_EDGE
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore
from repro.seq.simulate import ReadSimulator, simulate_genome

from .conftest import sorted_runs, spy_held_runs

MIN_OVERLAP = 25
#: The read length of ``data``: its whole-read partition has a P side only.
READ_LENGTH = 50


def _genome(kind: str, length: int, seed: int) -> np.ndarray:
    genome = simulate_genome(length, seed=seed)
    if kind == "at-only":
        # Two complementary letters: duplicate reads, reverse-complement
        # palindromes and reads overlapping themselves are all common.
        return (genome & 1) * np.uint8(3)
    if kind == "tiled":
        # One short unit over and over: every fingerprint is a deep repeat.
        return np.resize(genome[:23], length)
    return genome


def _store(root, kind, genome_length, read_length, coverage, seed):
    reads = ReadSimulator(genome=_genome(kind, genome_length, seed),
                          read_length=read_length, coverage=coverage,
                          seed=seed + 1).all_reads()
    path = root / "reads.lsgr"
    with PackedReadStore.create(path, read_length) as store:
        store.append_batch(reads)
    return path


def _lazy(config, store_path, workdir):
    """``Assembler.assemble`` plus the graph archive it left in ``workdir``."""
    result = Assembler(config).assemble(store_path, workdir=workdir, resume=True)
    return result, np.load(workdir / "graph.npz")


def _canonical(records: np.ndarray) -> np.ndarray:
    # External sorting orders by key only; (key, val) makes it canonical
    # (records of one vertex and length never share a key twice).
    return records[np.lexsort((records[VAL_FIELD], records[KEY_FIELD]))]


def _sorted_records(partitions: PartitionStore, side: str, length: int):
    with partitions.open_run(side, length, sorted_run=True) as reader:
        return _canonical(reader.read_all())


class TestSameGraphAsEager:
    @given(kind=st.sampled_from(["random", "at-only", "tiled"]),
           genome_length=st.integers(300, 1200),
           read_length=st.integers(30, 60),
           coverage=st.floats(6.0, 18.0),
           seed=st.integers(0, 2**31 - 1),
           blocks=st.sampled_from([(0, 0), (96, 24)]),
           lanes=st.sampled_from([1, 2]))
    # Derandomized: the same 25 draws every run, so its time does not vary.
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_graph_and_contigs_equal_eager(self, tmp_path_factory, kind,
                                           genome_length, read_length, coverage,
                                           seed, blocks, lanes):
        root = tmp_path_factory.mktemp("lazy")
        store_path = _store(root, kind, genome_length, read_length, coverage, seed)
        config = AssemblyConfig(min_overlap=read_length // 2,
                                fingerprint_lanes=lanes,
                                host_block_pairs=blocks[0],
                                device_block_pairs=blocks[1])
        eager = pipeline.eager_composition(config, store_path, root / "eager")
        result, archive = _lazy(config, store_path, root / "lazy")
        assert np.array_equal(archive["target"], eager.target)
        assert np.array_equal(archive["overlap"], eager.overlap)
        # In-edges are the complements' out-degree bits: equal bits, equal
        # in-degrees.
        assert archive["out_bits"].tobytes() == eager.out_bits
        assert result.reduce_report.edges_added == eager.n_edges
        assert result.reduce_report.per_length_edges \
            == eager.reduce_report.per_length_edges
        assert np.array_equal(result.contigs.flat_codes, eager.contigs.flat_codes)
        assert np.array_equal(result.contigs.offsets, eager.contigs.offsets)
        assert result.reduce_report.candidates <= eager.reduce_report.candidates
        assert result.sort_report.total_records <= eager.sort_report.total_records


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads whose graph (8,200 B) is 20.5 % of the ``cramped`` host."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("lazy-data"),
                         genome_length=2000, read_length=50, coverage=20.0,
                         min_overlap=MIN_OVERLAP, seed=11)
    return md


#: An ``outofcore``-shaped budget: ``m_h`` comes from the host bytes, the
#: longest partition needs a merge round, and the resident graph takes
#: 20.5 % of the host from the second length on (the paper's graph takes
#: about 19 % of its host).
CRAMPED = AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2,
                         memory=MemoryConfig(40_000, 16_000, name="cramped"))


@pytest.fixture(scope="module")
def runs(data, tmp_path_factory):
    """``(eager, lazy, lazy_runs)``: the lazy run's sorted runs by
    ``(side, length)``, the ones it held and the ones it wrote."""
    root = tmp_path_factory.mktemp("lazy-runs")
    eager = pipeline.eager_composition(CRAMPED, data.store_path,
                                       root / "eager")
    with pytest.MonkeyPatch.context() as patch:
        held = spy_held_runs(patch)
        result, _ = _lazy(CRAMPED, data.store_path, root / "lazy")
    dtype = kv_dtype(CRAMPED.fingerprint_lanes)
    lazy_runs = {(name[0], int(name[2:7])): np.frombuffer(run, dtype)
                 for name, run in sorted_runs(root / "lazy" / "partitions",
                                              held).items()}
    return eager, result, lazy_runs


def _records(partitions: PartitionStore, side: str, length: int):
    with partitions.open_run(side, length) as reader:
        return reader.read_all()


@pytest.fixture(scope="module")
def mapped(data, tmp_path_factory):
    """``(eager, banded)``: every unsorted partition of the eager map, and
    of ``Assembler``'s banded map as its sort found it."""
    root = tmp_path_factory.mktemp("lazy-mapped")
    ctx = RunContext(CRAMPED, workdir=root / "eager")
    try:
        with PackedReadStore.open(data.store_path) as store:
            partitions, _ = run_map(ctx, store)
        eager = {(side, length): _records(partitions, side, length)
                 for length in partitions.lengths()
                 for side in partition_sides(length, READ_LENGTH)}
    finally:
        ctx.cleanup()
    banded = {}
    real = pipeline.run_sort

    def spy(ctx, partitions, *, lengths, **kwargs):
        for length in lengths:
            for side in partition_sides(length, READ_LENGTH):
                banded[(side, length)] = _records(partitions, side, length)
        return real(ctx, partitions, lengths=lengths, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "run_sort", spy)
        Assembler(CRAMPED).assemble(data.store_path, workdir=root / "banded")
    return eager, banded


def _dropped(eager) -> np.ndarray:
    """Per vertex of the eager graph, whether its read was dropped as a
    duplicate: its bit is set and it has no out-edge."""
    n_vertices = eager.target.shape[0]
    bits = PackedBitVector.from_bytes(eager.out_bits, n_vertices)
    return bits.get(np.arange(n_vertices)) & (eager.target == NO_EDGE)


def _closed_after(eager, length: int) -> np.ndarray:
    """The vertices closed once every length longer than ``length`` is
    reduced: the duplicates (closed at the whole-read length) and the
    sources of the longer edges."""
    if length == READ_LENGTH:
        return np.zeros(eager.target.shape[0], dtype=bool)
    return _dropped(eager) | ((eager.target != NO_EDGE)
                              & (eager.overlap > length))


class TestWhatIsSorted:
    def test_modeled_time_and_records_are_pinned(self, runs):
        """The filter takes the bit-vector, not the graph, since the cluster
        shares it; the single-node run charges the same host seconds in the
        same order. Floats of the commit before that change, less the terms
        that moved since: reduce's disk reads of the runs the sort now hands
        over in host memory (0.9870239745774726 before), the sort passes
        the graph's halving freed (0.7144466412441389 with a 17,800 B
        graph), then the banded map's writes and the sort's reads of the
        records it no longer writes (0.6095202764966668 with one eager
        map), then the whole-read band that drops the 137 duplicate reads
        before any overlap band (0.596634955804027 with the duplicates
        mapped, sorted and reduced), then the writes of the runs the sort
        holds (0.561234481690924 while a ledger run wrote them), then the
        map's scans, each a seeded scan of its band's window
        (0.5609272816909241 while every launch scanned the whole read),
        then load and compress in budget-sized steps: the same bytes in
        more I/O calls, summed in another order (0.5601836711858733 in
        one step each)."""
        _, result, _ = runs
        assert result.telemetry.total_sim_seconds() == 0.5601836711858734
        assert result.sort_report.total_records == 9_496
        assert result.reduce_report.candidates == 1_324
        assert result.map_report.tuples_written == 16_540
        assert result.reduce_report.reads_closed == 137

    def test_partitions_are_eager_minus_closed_records(self, runs, mapped):
        """A band maps a record iff its claim was open at the band's start,
        and the sort keeps it iff its claim was open at its length's turn."""
        eager, result, lazy_runs = runs
        eager_mapped, banded = mapped
        lengths = eager.partitions.lengths()
        bands = pipeline._bands(lengths[:-1], READ_LENGTH)
        assert [len(band) for band in bands] == [1, 1, 4, 16, 4]
        assert set(banded) == set(eager_mapped)
        unmapped = 0
        for band in bands:
            # A vertex's bit was set when its out-edge was placed, at the
            # overlap length the edge carries, or at the whole-read length
            # when its read was dropped.
            closed = _closed_after(eager, band[0])
            for length in band:
                for side, flip in (("S", 0), ("P", 1)):
                    if side not in partition_sides(length, READ_LENGTH):
                        continue
                    records = eager_mapped[(side, length)]
                    expected = records[~closed[records[VAL_FIELD] ^ flip]]
                    got = banded[(side, length)]
                    assert got.tobytes() == expected.tobytes(), (side, length)
                    unmapped += records.shape[0] - got.shape[0]
        assert unmapped > 0
        assert result.map_report.tuples_written \
            == eager.map_report.tuples_written - unmapped
        dropped = 0
        for length in lengths:
            closed = _closed_after(eager, length)
            for side, flip in (("S", 0), ("P", 1)):
                if side not in partition_sides(length, READ_LENGTH):
                    continue
                records = _sorted_records(eager.partitions, side, length)
                expected = records[~closed[records[VAL_FIELD] ^ flip]]
                got = _canonical(lazy_runs[(side, length)])
                assert got.tobytes() == expected.tobytes(), (side, length)
                dropped += records.shape[0] - got.shape[0]
        assert dropped > unmapped
        assert result.sort_report.total_records \
            == eager.sort_report.total_records - dropped

    def test_a_band_report_counts_what_the_band_maps(self, data, runs,
                                                     tmp_path):
        """``band_report`` (what ``run_map`` returns, and what a resumed run
        reports for the lengths it finds sorted) counts what the band
        writes: its records, and one metered store read a device batch."""
        eager, _, _ = runs
        band = pipeline._bands(eager.partitions.lengths()[:-1], READ_LENGTH)[3]
        closed = PackedBitVector(2 * eager.n_reads)
        closed.set(np.flatnonzero(_closed_after(eager, band[0])))
        ctx = RunContext(CRAMPED, workdir=tmp_path / "ctx")
        try:
            with PackedReadStore.open(data.store_path,
                                      meter=ctx.accountant) as store:
                partitions, _ = run_map(ctx, store, only_lengths=set(band),
                                        closed=closed)
                report = band_report(ctx, store, band, closed)
            assert report.tuples_written == sum(
                partitions.records_in(side, length) for length in band
                for side in partition_sides(length, READ_LENGTH))
            assert ctx.accountant.counters()["disk_read_ops"] \
                == report.n_batches
            assert 0 < report.tuples_written < 2 * 2 * eager.n_reads * len(band)
        finally:
            ctx.cleanup()

    def test_reports_follow_the_surviving_records(self, runs, tmp_path):
        """``report_for`` of the sorted file's size, under the budget the
        partition was sorted with — what a resumed run reconstructs."""
        eager, result, lazy_runs = runs
        ctx = RunContext(CRAMPED, workdir=tmp_path / "ctx")
        try:
            dtype = kv_dtype(CRAMPED.fingerprint_lanes)
            graph_bytes = GreedyStringGraph(eager.n_reads, eager.read_length).nbytes
            whole = make_sorter(ctx, dtype)
            beside_graph = make_sorter(ctx, dtype, graph_bytes)
            assert beside_graph.host_block < whole.host_block
            longest = max(length for _, length in lazy_runs)
            for (side, length), report in result.sort_report.reports.items():
                sorter = whole if length == longest else beside_graph
                n_records = lazy_runs[(side, length)].shape[0]
                assert report == sorter.report_for(n_records), (side, length)
            # Nothing can be dropped before the duplicates are closed, and
            # the graph is not allocated yet: the paper's pass count holds
            # for the whole-read length's one run.
            assert longest == READ_LENGTH
            for side in partition_sides(longest, READ_LENGTH):
                assert result.sort_report.reports[(side, longest)] \
                    == eager.sort_report.reports[(side, longest)]
            assert ("S", longest) not in result.sort_report.reports
            assert result.sort_report.reports[("P", longest)].disk_passes == 2
        finally:
            ctx.cleanup()

    def test_host_budget_holds_with_the_graph_resident(self, runs, tmp_path):
        eager, result, _ = runs
        capacity = CRAMPED.memory.host_bytes
        graph_bytes = GreedyStringGraph(eager.n_reads, eager.read_length).nbytes
        assert 0.15 < graph_bytes / capacity < 0.3
        peak = max(stats.peaks.get("host_bytes", 0.0) for stats in result.telemetry)
        assert graph_bytes < result.telemetry["sort"].peaks["host_bytes"] \
            <= peak <= capacity
        ctx = RunContext(CRAMPED, workdir=tmp_path / "ctx")
        try:
            dtype = kv_dtype(CRAMPED.fingerprint_lanes)
            whole = make_sorter(ctx, dtype)
            # Today's sorter, unless something is resident...
            assert (whole.m_h, whole.m_d) == CRAMPED.resolved_blocks(dtype.itemsize)
            # ...and a full-size block beside the graph would not have fit.
            assert graph_bytes + whole.m_h * dtype.itemsize > capacity
            # An explicit block size wins over the derived one.
            pinned = RunContext(AssemblyConfig(min_overlap=MIN_OVERLAP,
                                               host_block_pairs=500,
                                               device_block_pairs=128),
                                workdir=tmp_path / "pinned")
            try:
                assert make_sorter(pinned, dtype, graph_bytes).m_h == 500
            finally:
                pinned.cleanup()
        finally:
            ctx.cleanup()


class TestCrashAndResume:
    def test_crash_after_sort_resumes_with_reduce_alone(self, data, runs,
                                                        tmp_path, on_disk):
        """In a run that holds nothing (``on_disk("runs")``), every sorted
        run is on disk and vouched for by the ledger. (A held run has no
        file: its length is mapped and sorted again,
        ``test_in_core_invariant.py::test_a_crash_anywhere_resumes``.)"""
        _, golden, _ = runs
        workdir = tmp_path / "w"
        with on_disk("runs"):
            with inject(FaultPlan([Fault(CRASH, site=PHASE, match="sort")])):
                with pytest.raises(FaultInjected):
                    Assembler(CRAMPED).assemble(data.store_path,
                                                workdir=workdir, resume=True)
            # Sort is recorded, the graph the loop had built is gone.
            assert not (workdir / "graph.npz").exists()
            resumed = Assembler(CRAMPED).assemble(data.store_path,
                                                  workdir=workdir, resume=True)
        assert result_digest(resumed) == result_digest(golden)
        sort = resumed.telemetry["sort"].counters
        assert sort["disk_write_bytes"] == 0 and sort["disk_read_bytes"] == 0
        assert resumed.telemetry["reduce"].counters["disk_read_bytes"] > 0
        assert scan_residue(workdir) == []

    def test_crash_mid_loop_keeps_the_sorted_lengths(self, data, runs, tmp_path):
        _, golden, _ = runs
        probe = FaultPlan()
        with inject(probe):
            Assembler(CRAMPED).assemble(data.store_path, workdir=tmp_path / "probe",
                                        resume=True)
        renames = [point for point in probe.trace if point.site == RENAME]
        victim = renames[len(renames) // 2]
        workdir = tmp_path / "w"
        with inject(FaultPlan.crash_at(victim.op, site=RENAME)):
            with pytest.raises(FaultInjected):
                Assembler(CRAMPED).assemble(data.store_path, workdir=workdir,
                                            resume=True)
        done = {path.name for path in (workdir / "partitions").glob("*.sorted.run")}
        assert len(done) == len(renames) // 2
        replay = FaultPlan()
        with inject(replay):
            resumed = Assembler(CRAMPED).assemble(data.store_path, workdir=workdir,
                                                  resume=True)
        assert result_digest(resumed) == result_digest(golden)
        again = {point.path.rsplit("/", 1)[-1] for point in replay.trace
                 if point.site == RENAME}
        assert len(again) == len(renames) - len(done) and not again & done
        assert scan_residue(workdir) == []


#: The ``cramped`` data with room to spare: from the second band on, each
#: band's partitions fit in the 15 % of the host the sorter's block leaves.
ROOMY = AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2,
                       memory=MemoryConfig(4_000_000, 1_000_000, name="roomy"))


class TestBandsInHostMemory:
    """A band after the first whose partitions fit beside the sorter's
    block is kept in host memory: it costs no disk write, read or seek,
    and the sort forms the runs the files would have given."""

    @pytest.fixture(scope="class")
    def pair(self, data, tmp_path_factory, on_disk):
        """``(root, kept, on_disk, held)``: ``ROOMY`` runs with and without
        it, and the sorted runs both held."""
        root = tmp_path_factory.mktemp("in-memory")
        with pytest.MonkeyPatch.context() as patch:
            held = spy_held_runs(patch)
            kept, _ = _lazy(ROOMY, data.store_path, root / "kept")
            with on_disk("partitions"):
                disk, _ = _lazy(ROOMY, data.store_path, root / "disk")
        return root, kept, disk, held

    def test_same_sorted_runs_graph_and_contigs(self, pair):
        root, kept, on_disk, held = pair
        assert result_digest(kept) == result_digest(on_disk)
        assert kept.map_report == on_disk.map_report
        assert kept.sort_report == on_disk.sort_report
        runs = sorted_runs(root / "disk" / "partitions", held)
        assert len(runs) == 2 * 25 + 1
        assert sorted_runs(root / "kept" / "partitions", held) == runs
        assert not list((root / "kept" / "partitions").glob("*.run"))

    def test_no_unsorted_partition_reaches_the_disk(self, data, pair):
        """Every band is kept, the first one's ``P_L`` too (every oriented
        read, before any read is closed): the map writes nothing, and the
        sort reads nothing and seeks nowhere, whatever the data."""
        _, kept, on_disk, _ = pair
        first_band = 2 * data.n_reads * kv_dtype(2).itemsize
        mapped, sorted_ = (kept.telemetry[phase].counters
                           for phase in ("map", "sort"))
        assert mapped["disk_write_bytes"] == 0
        assert on_disk.telemetry["map"].counters["disk_write_bytes"] \
            > first_band
        assert sorted_["disk_read_bytes"] == 0
        assert sorted_["disk_seeks"] == 0
        assert on_disk.telemetry["sort"].counters["disk_seeks"] == 2 * 25 + 1
        assert kept.telemetry.total_sim_seconds() \
            < on_disk.telemetry.total_sim_seconds()

    def test_a_crash_reading_a_kept_partition_resumes(self, data, pair,
                                                      tmp_path):
        _, kept, _, _ = pair
        probe = FaultPlan()
        with inject(probe):
            Assembler(ROOMY).assemble(data.store_path,
                                      workdir=tmp_path / "probe", resume=True)
        second_band = pipeline._bands(range(MIN_OVERLAP, 50), READ_LENGTH)[1]
        # The sort's reads of the second band's unsorted partitions.
        reads = [point for point in probe.trace if point.site == READ
                 and point.phase == "sort"
                 and re.fullmatch(r"[SP]_\d{5}\.run", Path(point.path).name)
                 and _length_of(point.path) in second_band]
        assert reads
        workdir = tmp_path / "w"
        with inject(FaultPlan.crash_at(reads[len(reads) // 2].op, site=READ)):
            with pytest.raises(FaultInjected):
                Assembler(ROOMY).assemble(data.store_path, workdir=workdir,
                                          resume=True)
        resumed = Assembler(ROOMY).assemble(data.store_path, workdir=workdir,
                                            resume=True)
        assert result_digest(resumed) == result_digest(kept)
        assert resumed.map_report == kept.map_report
        assert scan_residue(workdir) == []


def _length_of(path: str) -> int:
    """The overlap length in a partition path (``.../S_00045.run``)."""
    return int(path.rsplit("/", 1)[-1][2:7])


class TestCrashInABand:
    """A crash in a later band resumes to the clean run: the lengths whose
    sorted runs exist are neither mapped nor sorted again, and the rest of
    their band is mapped again from scratch."""

    @pytest.fixture(scope="class")
    def probe(self, data, tmp_path_factory):
        plan = FaultPlan()
        with inject(plan):
            Assembler(CRAMPED).assemble(
                data.store_path, workdir=tmp_path_factory.mktemp("probe"),
                resume=True)
        bands = pipeline._bands(range(MIN_OVERLAP, 50), READ_LENGTH)
        assert [len(band) for band in bands] == [1, 1, 4, 16, 4]
        return plan.trace, bands

    def _crash_and_resume(self, data, tmp_path, point, site):
        workdir = tmp_path / "w"
        with inject(FaultPlan.crash_at(point.op, site=site)):
            with pytest.raises(FaultInjected):
                Assembler(CRAMPED).assemble(data.store_path, workdir=workdir,
                                            resume=True)
        done = {path.name for path in
                (workdir / "partitions").glob("*.sorted.run")}
        replay = FaultPlan()
        with inject(replay):
            resumed = Assembler(CRAMPED).assemble(data.store_path,
                                                  workdir=workdir, resume=True)
        assert scan_residue(workdir) == []
        mapped = {_length_of(point.path) for point in replay.trace
                  if point.site == WRITE and point.phase == "map"}
        renamed = {point.path.rsplit("/", 1)[-1] for point in replay.trace
                   if point.site == RENAME}
        return resumed, done, mapped, renamed

    def test_a_crash_in_the_second_band_map(self, data, runs, probe, tmp_path):
        _, golden, _ = runs
        trace, bands = probe
        writes = [point for point in trace if point.site == WRITE
                  and point.phase == "map"
                  and _length_of(point.path) in bands[1]]
        resumed, done, mapped, renamed = self._crash_and_resume(
            data, tmp_path, writes[len(writes) // 2], WRITE)
        assert result_digest(resumed) == result_digest(golden)
        assert resumed.map_report == golden.map_report
        # The first band's length was sorted; every other length is mapped.
        assert done == {"P_00050.sorted.run"}
        assert mapped == set(range(MIN_OVERLAP, 50))
        assert not renamed & done

    def test_a_crash_in_the_third_band_sort(self, data, runs, probe, tmp_path):
        _, golden, _ = runs
        trace, bands = probe
        renames = [point for point in trace if point.site == RENAME
                   and _length_of(point.path) in bands[2]]
        resumed, done, mapped, renamed = self._crash_and_resume(
            data, tmp_path, renames[len(renames) // 2], RENAME)
        assert result_digest(resumed) == result_digest(golden)
        sorted_lengths = {_length_of(name) for name in done
                          if name.startswith("P")}
        assert set(bands[0] + bands[1]) < sorted_lengths < set(
            bands[0] + bands[1] + bands[2])
        # Only what is left of the third band, and the fourth, is mapped.
        assert mapped == set(range(MIN_OVERLAP, 50)) - sorted_lengths
        # The runs the sort spills are renamed into place, those it holds
        # are not.
        spilled = {point.path for point in trace if point.site == RENAME}
        assert len(spilled) < 2 * 25 + 1
        assert len(renamed) == len(spilled) - len(done) and not renamed & done
