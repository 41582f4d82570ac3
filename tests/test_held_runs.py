"""Sorted runs held in host memory between sort and reduce.

A partition the sort leaves in one run is still in the sorter's host
buffer before its file is written; the partition store keeps that array
(its bytes reserved in the host pool), no file is written, and the next
reader of the run takes it from there instead of off the disk. Nothing
else may move: the held arrays and the sorted files together, the graph,
the contigs, the ledger's reports and the sort's reports are those of a
run that holds nothing (``conftest.on_disk("runs")``), whatever the host
budget.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core import pipeline, reduce_phase
from repro.device.memory import MemoryPool
from repro.distributed import DistributedAssembler
from repro.errors import HostMemoryError, StreamProtocolError
from repro.extmem import HeldRun, IOAccountant, PartitionStore, RunReader
from repro.extmem.partitions import KeyRange
from repro.extmem.records import kv_dtype, make_records
from repro.seq.datasets import tiny_dataset
from repro.trace import EVENTS_FILE, load_events

from .conftest import sorted_runs, spans_by_name, spy_held_runs

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


def _ledger(workdir) -> tuple[dict, dict]:
    """The workdir's ledger, and the sort record's artifacts taken out of
    it."""
    state = json.loads((workdir / "state.json").read_text())
    return state, state["artifacts"].pop("sort", {})


# -- the same artifacts as a run that holds nothing ----------------------------


@pytest.mark.parametrize("lanes", (1, 2))
@pytest.mark.parametrize("memory", (INCORE, OUTOFCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_artifacts_match_a_run_holding_nothing(data, tmp_path, monkeypatch,
                                               on_disk, memory, lanes):
    config = _config(memory, lanes)
    kept = spy_held_runs(monkeypatch)
    held = Assembler(config).assemble(data.store_path, workdir=tmp_path / "held",
                                      resume=True)
    with on_disk("runs"):
        plain = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "plain",
                                           resume=True)
    # A held run has no file: the runs held and the runs written are
    # the files of a run that holds nothing, byte for byte.
    assert kept
    runs = sorted_runs(tmp_path / "held" / "partitions")
    assert sorted_runs(tmp_path / "held" / "partitions", kept) \
        == sorted_runs(tmp_path / "plain" / "partitions")
    assert (tmp_path / "held" / "graph.npz").read_bytes() \
        == (tmp_path / "plain" / "graph.npz").read_bytes()
    # The ledger vouches for the runs written, and for nothing else.
    (state, vouched), (plain_state, plain_vouched) = \
        _ledger(tmp_path / "held"), _ledger(tmp_path / "plain")
    assert state == plain_state
    assert vouched == {rel: digest for rel, digest in plain_vouched.items()
                       if rel.removeprefix("partitions/") in runs}
    assert held.contigs.flat_codes.tobytes() == plain.contigs.flat_codes.tobytes()
    assert held.contigs.offsets.tobytes() == plain.contigs.offsets.tobytes()
    assert held.sort_report == plain.sort_report
    assert held.reduce_report == plain.reduce_report
    # In-core, every run reduce reads is held, the whole-read length's one
    # run (P_L) too: it is held beside the graph's bytes, before the graph
    # exists. Out of core the largest runs come off the disk.
    from_disk, in_memory = _runs_read(held)
    assert from_disk + in_memory \
        == 2 * held.reduce_report.partitions_processed - 1
    if memory is INCORE:
        assert from_disk == 0
    else:
        assert from_disk >= 1 and in_memory > 0
    assert _runs_read(plain) == (from_disk + in_memory, 0)
    # Only the sort's writes and reduce's reads moved.
    for phase in ("load", "map", "sort", "compress"):
        assert held.telemetry[phase].counters["disk_read_bytes"] \
            == plain.telemetry[phase].counters["disk_read_bytes"]
    for phase in ("load", "map", "compress"):
        assert held.telemetry[phase].counters["sim_seconds"] \
            == pytest.approx(plain.telemetry[phase].counters["sim_seconds"])
    assert held.telemetry["sort"].counters["disk_write_bytes"] \
        < plain.telemetry["sort"].counters["disk_write_bytes"]
    assert held.telemetry["sort"].counters["sim_seconds"] \
        < plain.telemetry["sort"].counters["sim_seconds"]
    assert held.telemetry["reduce"].counters["disk_read_bytes"] \
        < plain.telemetry["reduce"].counters["disk_read_bytes"]


def test_a_tight_budget_reads_what_it_cannot_hold(data, tmp_path):
    """The sorter's block budget beside a held run is not negotiable: under
    the cramped host several runs come off the disk, where an in-core run
    reads none."""
    result = Assembler(_config(CRAMPED)).assemble(data.store_path,
                                                  workdir=tmp_path / "w")
    from_disk, in_memory = _runs_read(result)
    assert from_disk > 1 and in_memory > 0
    roomy = Assembler(_config(INCORE)).assemble(data.store_path,
                                                workdir=tmp_path / "roomy")
    assert _runs_read(roomy) == (0, from_disk + in_memory)


@pytest.mark.parametrize("memory", (INCORE, OUTOFCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_a_held_run_retains_the_bytes_it_reserves(data, tmp_path, monkeypatch,
                                                   memory):
    """Filtered runs are gathered into a buffer sized before the filter;
    the array kept must not be a view that keeps all of it alive."""
    kept = []
    keep = PartitionStore.keep

    def spying(self, side, length, records, allocation=None):
        owner = records if records.base is None else records.base
        kept.append((owner.nbytes, records.nbytes, allocation.nbytes))
        keep(self, side, length, records, allocation)

    monkeypatch.setattr(PartitionStore, "keep", spying)
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
    """A node holds what its sort formed in one piece: each key range of
    ``P_L`` (half of it, which fits one piece on this budget where the
    whole did not), and after the first round runs of the overlap
    lengths, however many its round gives it: at 2n, where a node sorts
    two lengths a round, it holds runs of both, and the one eager round
    holds none of them. Each run is held only beside the sorter's whole
    block while a run of the call is still to be sorted, so no round size
    runs out of host memory."""
    n_nodes = 2
    kept = []
    keep = PartitionStore.keep

    def counting(self, side, length, records, allocation=None):
        kept.append((side, length))
        keep(self, side, length, records, allocation)

    monkeypatch.setattr(PartitionStore, "keep", counting)
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
    later = {length for lengths in rounds[1:] for length in lengths}
    lone = {length for lengths in rounds[1:] for length in lengths
            if sum((other - length) % n_nodes == 0 for other in lengths) == 1}
    held = {length for _, length in kept}
    assert {key for key in held if isinstance(key, KeyRange)} \
        == {KeyRange(single.read_length, i, n_nodes) for i in range(n_nodes)}
    held = {key for key in held if not isinstance(key, KeyRange)}
    assert held <= later
    assert bool(held) == bool(later)
    assert bool(held - lone) == (per_node == 2)


# -- every exit path gives the memory back ---------------------------------------


@pytest.mark.parametrize("where", ("reduce_partition", "run_reduce"))
def test_an_exception_at_the_third_length_frees_every_held_byte(
        data, tmp_path, monkeypatch, where):
    """Raised inside the readers (``reduce_partition``) or before reduce
    opened them (``run_reduce``); the held runs leave no file, so a resumed
    run maps and sorts those lengths again and assembles what a clean run
    does."""
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
                            held=partitions.kept("S", length, sorted_run=True)
                            and partitions.kept("P", length, sorted_run=True))
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
    assert sorted_runs(workdir / "partitions") == {}
    monkeypatch.undo()

    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    clean = Assembler(config).assemble(data.store_path,
                                       workdir=tmp_path / "clean", resume=True)
    # Every length is mapped and sorted again, and its runs held: an
    # in-core run reads no sorted run off the disk, resumed or not.
    assert _runs_read(resumed)[0] == _runs_read(clean)[0] == 0
    assert resumed.sort_report == clean.sort_report
    assert resumed.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()
    assert np.load(workdir / "graph.npz")["target"].tobytes() \
        == np.load(tmp_path / "clean" / "graph.npz")["target"].tobytes()
    assert resumed.reduce_report.per_length_edges \
        == clean.reduce_report.per_length_edges


def test_an_exception_closing_the_duplicates_frees_the_held_whole_read_run(
        data, tmp_path, monkeypatch):
    """In-core, ``P_L``'s one run is held across the graph's creation: a
    raise in its closing frees it, and a resumed run maps and sorts it
    again and assembles what a clean run does."""
    config = _config(INCORE)
    seen = {}

    def failing(ctx, graph, run, report):
        seen.update(ctx=ctx, graph=graph, held=isinstance(run, HeldRun))
        raise RuntimeError("boom")

    monkeypatch.setattr(reduce_phase, "close_duplicates", failing)
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
    assert _runs_read(resumed)[0] == _runs_read(clean)[0] == 0
    assert resumed.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()
    assert resumed.reduce_report == clean.reduce_report


# -- the store's seam --------------------------------------------------------------


def test_reserving_the_whole_read_length_keeps_its_one_side(tmp_path):
    """``P_L`` has no ``S`` side: reserving ``{L}`` allocates one array of
    ``2n`` records, and the host pool sees exactly those bytes. A later
    reservation of a kept partition starts it again: it lets the first
    one's bytes go and holds only what it reserved."""
    dtype = kv_dtype(1)
    partitions = PartitionStore(tmp_path / "parts", dtype, IOAccountant())
    pool = MemoryPool("host", 1 << 20, HostMemoryError)
    n_reads, read_length = 100, 50
    partitions.reserve([read_length], 2 * n_reads, pool.alloc, read_length)
    assert partitions.kept("P", read_length)
    assert not partitions.kept("S", read_length)
    assert pool.used_bytes == 2 * n_reads * dtype.itemsize
    records = make_records(np.arange(2 * n_reads + 6, dtype=np.uint64),
                           np.arange(2 * n_reads + 6, dtype=np.uint32))
    partitions.append("P", read_length, records[:2 * n_reads])
    with pytest.raises(StreamProtocolError, match="more records than reserved"):
        partitions.append("P", read_length, records[:1])
    partitions.reserve([read_length], 6, pool.alloc, read_length)
    assert pool.used_bytes == 6 * dtype.itemsize
    partitions.append("P", read_length, records[2 * n_reads:])
    with partitions.open_run("P", read_length) as run:
        assert run.read_all().tobytes() == records[2 * n_reads:].tobytes()
    partitions.delete("P", read_length)
    assert pool.used_bytes == 0 and not list(partitions.root.iterdir())


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
    partitions.keep("S", 30, records, pool.alloc(records.nbytes))
    assert partitions.kept("S", 30, sorted_run=True) \
        and pool.used_bytes == records.nbytes
    with partitions.open_run("S", 30, sorted_run=True) as first:
        assert isinstance(first, HeldRun)
        assert first.total_records == 100
        assert first.read(10).tobytes() == records[:10].tobytes()
        assert first.read(30).tobytes() == records[10:40].tobytes()
        assert first.read_all().tobytes() == records[40:].tobytes()
        assert first.exhausted and first.read(5).shape == (0,)
    assert pool.used_bytes == 0 and not partitions.kept("S", 30, sorted_run=True)
    assert partitions.accountant.read_bytes == 0
    with pytest.raises(StreamProtocolError):
        first.read(1)
    with partitions.open_run("S", 30, sorted_run=True) as second:
        assert isinstance(second, RunReader)
        assert second.read_all().tobytes() == records.tobytes()
    assert partitions.accountant.read_bytes == records.nbytes


def test_only_sorted_runs_are_taken_from_memory(store):
    partitions, records = store
    partitions.keep("S", 30, records)
    with open(partitions.path("S", 30), "wb") as handle:
        handle.write(records.tobytes())
    with partitions.open_run("S", 30) as unsorted:
        assert isinstance(unsorted, RunReader)
    assert partitions.kept("S", 30, sorted_run=True)


@pytest.mark.parametrize("drop", ("delete", "abandon"))
def test_a_dropped_run_frees_its_reservation(store, drop):
    partitions, records = store
    pool = MemoryPool("host", 10_000, HostMemoryError)
    partitions.keep("S", 30, records, pool.alloc(records.nbytes))
    if drop == "delete":
        partitions.delete("S", 30, sorted_run=True)
        assert not partitions.path("S", 30, sorted_run=True).exists()
    else:
        partitions.abandon()
        assert partitions.path("S", 30, sorted_run=True).exists()
    assert pool.used_bytes == 0 and not partitions.kept("S", 30, sorted_run=True)


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
    # Two runs a length, one for the whole-read length.
    assert len(reduced) * 2 - 1 == from_disk + in_memory

    cluster_trace = tmp_path / "cluster-trace"
    DistributedAssembler(_config(CRAMPED, trace=str(cluster_trace)), 1
                         ).assemble(data.store_path)
    tokens = spans_by_name(load_events(cluster_trace / EVENTS_FILE))["token"]
    # A cluster of one holds exactly the runs the single node holds.
    assert [span["args"]["held"] for span in tokens] \
        == [span["args"]["held"] for span in reduced]
