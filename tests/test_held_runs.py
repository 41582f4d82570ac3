"""Sorted runs held in host memory between sort and reduce.

From the second length on, a partition the sort leaves in one run is still
in the sorter's host buffer when its file is renamed into place; the
partition store keeps that array (its bytes reserved in the host pool) and
the next reader of the run takes it from there instead of off the disk.
Nothing else may move: the sorted files, the graph, the contigs, the ledger
and the reports are those of a run that holds nothing (an armed, empty
``FaultPlan`` turns holding off), whatever the host budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core import pipeline, reduce_phase
from repro.device.memory import MemoryPool
from repro.distributed import DistributedAssembler
from repro.errors import HostMemoryError, StreamProtocolError
from repro.extmem import HeldRun, IOAccountant, PartitionStore, RunReader
from repro.extmem.records import kv_dtype, make_records
from repro.faults import FaultPlan, inject
from repro.seq.datasets import tiny_dataset
from repro.trace import EVENTS_FILE, load_events

from .conftest import spans_by_name

MIN_OVERLAP = 25

INCORE = MemoryConfig(256 << 20, 16 << 20, name="incore-like")
#: The longest partition needs a merge round and the graph takes 28 % of
#: the host: some runs are held, the largest are not.
OUTOFCORE = MemoryConfig(64_000, 16_000, name="outofcore-like")
#: The graph takes 44.5 % of the host (``test_lazy_schedule.CRAMPED``).
CRAMPED = MemoryConfig(40_000, 16_000, name="cramped")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads of 50 bp, 25 overlap lengths."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("held-data"),
                         genome_length=2000, read_length=50, coverage=20.0,
                         min_overlap=MIN_OVERLAP, seed=11)
    return md


def _config(memory: MemoryConfig, lanes: int = 2, **kwargs) -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=lanes,
                          memory=memory, **kwargs)


def _runs_read(result) -> tuple[int, int]:
    """``(from disk, from memory)``: the sorted runs reduce read."""
    counters = result.telemetry["reduce"].counters
    return (int(counters.get("sorted_runs_from_disk", 0)),
            int(counters.get("sorted_runs_held", 0)))


def _artifacts(workdir) -> dict[str, bytes]:
    """The workdir's ledger, graph archive and sorted runs, by name."""
    files = {"state.json": (workdir / "state.json").read_bytes(),
             "graph.npz": (workdir / "graph.npz").read_bytes()}
    for path in sorted((workdir / "partitions").glob("*.sorted.run")):
        files[path.name] = path.read_bytes()
    return files


# -- the same artifacts as a run that holds nothing ----------------------------


@pytest.mark.parametrize("lanes", (1, 2))
@pytest.mark.parametrize("memory", (INCORE, OUTOFCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_artifacts_match_a_run_holding_nothing(data, tmp_path, memory, lanes):
    config = _config(memory, lanes)
    held = Assembler(config).assemble(data.store_path, workdir=tmp_path / "held",
                                      resume=True)
    with inject(FaultPlan()):
        plain = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "plain",
                                           resume=True)
    assert _artifacts(tmp_path / "held") == _artifacts(tmp_path / "plain")
    assert held.contigs.flat_codes.tobytes() == plain.contigs.flat_codes.tobytes()
    assert held.contigs.offsets.tobytes() == plain.contigs.offsets.tobytes()
    assert held.sort_report == plain.sort_report
    assert held.reduce_report == plain.reduce_report
    # The longest length is sorted before the graph exists: always disk.
    from_disk, in_memory = _runs_read(held)
    assert from_disk >= 2 and in_memory > 0
    assert from_disk + in_memory == 2 * held.reduce_report.partitions_processed
    assert _runs_read(plain) == (from_disk + in_memory, 0)
    # Only reduce's reads moved: the sort charged what it did.
    for phase in ("load", "map", "sort", "compress"):
        assert held.telemetry[phase].counters["disk_read_bytes"] \
            == plain.telemetry[phase].counters["disk_read_bytes"]
        assert held.telemetry[phase].counters["sim_seconds"] \
            == pytest.approx(plain.telemetry[phase].counters["sim_seconds"])
    assert held.telemetry["reduce"].counters["disk_read_bytes"] \
        < plain.telemetry["reduce"].counters["disk_read_bytes"]


def test_a_tight_budget_reads_what_it_cannot_hold(data, tmp_path):
    """The sorter's block budget beside a held run is not negotiable: under
    the cramped host more runs come off the disk than the longest pair."""
    result = Assembler(_config(CRAMPED)).assemble(data.store_path,
                                                  workdir=tmp_path / "w")
    from_disk, in_memory = _runs_read(result)
    assert from_disk > 2 and in_memory > 0
    roomy = Assembler(_config(INCORE)).assemble(data.store_path,
                                                workdir=tmp_path / "roomy")
    assert _runs_read(roomy) == (2, from_disk + in_memory - 2)


@pytest.mark.parametrize("memory", (INCORE, OUTOFCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_a_held_run_retains_the_bytes_it_reserves(data, tmp_path, monkeypatch,
                                                   memory):
    """Filtered runs are gathered into a buffer sized before the filter;
    the array kept must not be a view that keeps all of it alive."""
    kept = []
    hold = PartitionStore.hold

    def spying(self, side, length, records, allocation=None):
        owner = records if records.base is None else records.base
        kept.append((owner.nbytes, records.nbytes, allocation.nbytes))
        hold(self, side, length, records, allocation)

    monkeypatch.setattr(PartitionStore, "hold", spying)
    Assembler(_config(memory)).assemble(data.store_path, workdir=tmp_path / "w")
    assert kept
    for retained, nbytes, reserved in kept:
        assert retained == nbytes == reserved


# -- no budget is starved ----------------------------------------------------------


@pytest.fixture(scope="module")
def reference_graph(data, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("held-reference")
    Assembler(_config(INCORE)).assemble(data.store_path, workdir=workdir,
                                        resume=True)
    return dict(np.load(workdir / "graph.npz"))


@pytest.mark.parametrize("host", (40_000, 44_000, 48_000, 56_000, 64_000,
                                  80_000, 96_000, 128_000))
def test_no_host_memory_error_in_the_budget_sweep(data, reference_graph,
                                                  tmp_path, host):
    config = _config(MemoryConfig(host, 16_000, name=f"host-{host}"))
    Assembler(config).assemble(data.store_path, workdir=tmp_path / "w",
                               resume=True)
    archive = np.load(tmp_path / "w" / "graph.npz")
    for name, array in reference_graph.items():
        assert np.array_equal(archive[name], array), name


class _Rounds(DistributedAssembler):
    """Fig. 10's round-size sweep: ``size`` lengths a round (0 = all)."""

    size = 0

    def _rounds(self, lengths):
        ordered = sorted(lengths, reverse=True)
        size = self.size or len(ordered)
        return [ordered[i:i + size] for i in range(0, len(ordered), size)]


@pytest.mark.parametrize("per_node", (None, 1, 2, 0),
                         ids=("1", "n", "2n", "all"))
def test_no_host_memory_error_at_any_round_size(data, monkeypatch, per_node):
    """A node holds only what a single-length sort formed after the first
    round, so where a round gives it two lengths (2n: all but the short
    last round; one eager round) it holds nothing."""
    n_nodes = 2
    kept = []
    hold = PartitionStore.hold

    def counting(self, side, length, records, allocation=None):
        kept.append((side, length))
        hold(self, side, length, records, allocation)

    monkeypatch.setattr(PartitionStore, "hold", counting)
    config = _config(CRAMPED)
    single = Assembler(config).assemble(data.store_path)
    kept.clear()
    cluster = type("Sized", (_Rounds,), {
        "size": 1 if per_node is None else per_node * n_nodes})(config, n_nodes)
    result = cluster.assemble(data.store_path)
    assert result.contigs.flat_codes.tobytes() \
        == single.contigs.flat_codes.tobytes()
    assert result.edges == single.reduce_report.edges_added
    rounds = cluster._rounds({length for _, length in single.sort_report.reports})
    lone = {length for lengths in rounds[1:] for length in lengths
            if sum((other - length) % n_nodes == 0 for other in lengths) == 1}
    assert {length for _, length in kept} <= lone
    assert bool(kept) == bool(lone)


# -- every exit path gives the memory back ---------------------------------------


@pytest.mark.parametrize("where", ("reduce_partition", "run_reduce"))
def test_an_exception_at_the_third_length_frees_every_held_byte(
        data, tmp_path, monkeypatch, where):
    """Raised inside the readers (``reduce_partition``) or before reduce
    opened them (``run_reduce``); a resumed run then reads those lengths'
    runs off the disk and assembles what a clean run does."""
    config = _config(INCORE)
    seen = {}

    if where == "reduce_partition":
        real = reduce_phase.reduce_partition

        def failing(ctx, graph, suffixes, prefixes, *args, **kwargs):
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 3:
                seen.update(ctx=ctx, graph=graph,
                            held=isinstance(suffixes, HeldRun)
                            and isinstance(prefixes, HeldRun))
                raise RuntimeError("boom")
            return real(ctx, graph, suffixes, prefixes, *args, **kwargs)

        monkeypatch.setattr(reduce_phase, "reduce_partition", failing)
    else:
        real = pipeline.run_reduce

        def failing(ctx, partitions, store, *, lengths, graph, report):
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 3:
                (length,) = lengths
                seen.update(ctx=ctx, graph=graph,
                            held=partitions.holds("S", length)
                            and partitions.holds("P", length))
                raise RuntimeError("boom")
            return real(ctx, partitions, store, lengths=lengths, graph=graph,
                        report=report)

        monkeypatch.setattr(pipeline, "run_reduce", failing)
    workdir = tmp_path / "w"
    with pytest.raises(RuntimeError, match="boom"):
        Assembler(config).assemble(data.store_path, workdir=workdir,
                                   resume=True)
    assert seen["held"]
    seen["graph"].release()
    assert seen["ctx"].host_pool.used_bytes == 0
    monkeypatch.undo()

    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    clean = Assembler(config).assemble(data.store_path,
                                       workdir=tmp_path / "clean", resume=True)
    # The three lengths sorted before the raise are read off the disk.
    assert _runs_read(resumed)[0] == 6
    assert _runs_read(clean)[0] == 2
    assert resumed.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()
    assert np.load(workdir / "graph.npz")["target"].tobytes() \
        == np.load(tmp_path / "clean" / "graph.npz")["target"].tobytes()
    assert resumed.reduce_report.per_length_edges \
        == clean.reduce_report.per_length_edges


# -- the store's seam --------------------------------------------------------------


@pytest.fixture()
def store(tmp_path):
    """A store with one sorted run on disk, and its records."""
    dtype = kv_dtype(1)
    partitions = PartitionStore(tmp_path / "parts", dtype,
                                IOAccountant())
    records = make_records(np.arange(0, 200, 2, dtype=np.uint64),
                           np.arange(100, dtype=np.uint32))
    with open(partitions.path("S", 30, sorted_run=True), "wb") as handle:
        handle.write(records.tobytes())
    return partitions, records


def test_a_held_run_opens_once(store):
    partitions, records = store
    pool = MemoryPool("host", 10_000, HostMemoryError)
    partitions.hold("S", 30, records, pool.alloc(records.nbytes))
    assert partitions.holds("S", 30) and pool.used_bytes == records.nbytes
    with partitions.open_run("S", 30, sorted_run=True) as first:
        assert isinstance(first, HeldRun)
        assert first.total_records == 100
        assert first.read(10).tobytes() == records[:10].tobytes()
        assert first.read(30).tobytes() == records[10:40].tobytes()
        assert first.read_all().tobytes() == records[40:].tobytes()
        assert first.exhausted and first.read(5).shape == (0,)
    assert pool.used_bytes == 0 and not partitions.holds("S", 30)
    assert partitions.accountant.read_bytes == 0
    with pytest.raises(StreamProtocolError):
        first.read(1)
    with partitions.open_run("S", 30, sorted_run=True) as second:
        assert isinstance(second, RunReader)
        assert second.read_all().tobytes() == records.tobytes()
    assert partitions.accountant.read_bytes == records.nbytes


def test_only_sorted_runs_are_taken_from_memory(store):
    partitions, records = store
    partitions.hold("S", 30, records)
    with open(partitions.path("S", 30), "wb") as handle:
        handle.write(records.tobytes())
    with partitions.open_run("S", 30) as unsorted:
        assert isinstance(unsorted, RunReader)
    assert partitions.holds("S", 30)


@pytest.mark.parametrize("drop", ("delete", "abandon"))
def test_a_dropped_run_frees_its_reservation(store, drop):
    partitions, records = store
    pool = MemoryPool("host", 10_000, HostMemoryError)
    partitions.hold("S", 30, records, pool.alloc(records.nbytes))
    if drop == "delete":
        partitions.delete("S", 30, sorted_run=True)
        assert not partitions.path("S", 30, sorted_run=True).exists()
    else:
        partitions.abandon()
        assert partitions.path("S", 30, sorted_run=True).exists()
    assert pool.used_bytes == 0 and not partitions.holds("S", 30)


# -- what the trace says -------------------------------------------------------------


def test_the_trace_notes_what_was_held(data, tmp_path):
    trace_dir = tmp_path / "trace"
    result = Assembler(_config(CRAMPED, trace=str(trace_dir))).assemble(
        data.store_path, workdir=tmp_path / "w")
    spans = spans_by_name(load_events(trace_dir / EVENTS_FILE))
    reduced = spans["reduce:partition"]
    sorted_ = [span for name, group in spans.items()
               if name.startswith("sort:") for span in group]
    from_disk, in_memory = _runs_read(result)
    assert sum(span["args"]["held"] for span in reduced) == in_memory
    assert sum(span["args"]["held"] for span in sorted_) == in_memory
    assert len(reduced) * 2 == from_disk + in_memory

    cluster_trace = tmp_path / "cluster-trace"
    DistributedAssembler(_config(CRAMPED, trace=str(cluster_trace)), 1
                         ).assemble(data.store_path)
    tokens = spans_by_name(load_events(cluster_trace / EVENTS_FILE))["token"]
    # A cluster of one holds exactly the runs the single node holds.
    assert [span["args"]["held"] for span in tokens] \
        == [span["args"]["held"] for span in reduced]
