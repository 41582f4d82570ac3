"""An in-core run uses the disk only for what it keeps.

After load, an in-core run (the default 1 GB budget) writes no unsorted
partition and no map piece: every band's partitions, the whole-read
band's ``P_L`` too, and every cluster round's pieces and pulled
partitions stay in host memory. On a single node the packed store is held
in host memory from the first walk on, and a sorted run the sort holds for
reduce is never written: a run writes no run file after load and reads
the store off the disk once, and a checkpoint ledger adds ``state.json``
and ``graph.npz`` alone (a resume maps and sorts again what has no file).
Sort and reduce read no partition byte and seek nowhere. The same holds
on a single node, on a lone cluster node and on four nodes, whose
restarted owners pull and sort again from the round's pieces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.core import pipeline
from repro.core.checkpoint import STATE_FILE
from repro.distributed import ClusterSupervisor, DistributedAssembler
from repro.errors import FaultInjected
from repro.extmem import RunReader
from repro.faults import (PHASE, READ, WRITE, FaultPlan, inject,
                          result_digest, scan_residue)
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore

MIN_OVERLAP = 25
READ_LENGTH = 50
#: Every overlap length's two sorted runs, and ``P_L``'s one.
SORTED_RUNS = 2 * (READ_LENGTH - MIN_OVERLAP) + 1
#: The whole-read band, then the overlap lengths in bands of 1, 4, 16, 4.
BANDS = 5
STORE = "reads.lsgr"


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads of 50 bp."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("in-core-data"),
                         genome_length=2000, read_length=READ_LENGTH,
                         coverage=20.0, min_overlap=MIN_OVERLAP, seed=11)
    return md


@pytest.fixture(scope="module")
def config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)


@pytest.fixture()
def opened(monkeypatch) -> list:
    """The path of every run file opened for reading off the disk: a
    partition's bytes reach the host through :class:`RunReader` alone."""
    paths = []
    init = RunReader.__init__

    def spying(self, path, *args, **kwargs):
        paths.append(str(path))
        init(self, path, *args, **kwargs)

    monkeypatch.setattr(RunReader, "__init__", spying)
    return paths


def _writes_after_load(plan: FaultPlan) -> list[str]:
    return [point.path for point in plan.trace
            if point.site == WRITE and point.phase != "load"]


def _files(workdir) -> list[str]:
    """Every file under ``workdir``, by its relative path."""
    return sorted(str(path.relative_to(workdir))
                  for path in workdir.rglob("*") if path.is_file())


def _store_walks(plan: FaultPlan) -> list[list[int]]:
    """The ops of each walk of the packed store: a walk is a stretch of
    store reads that no other op of the trace interrupts (an in-core map
    appends to host memory, so nothing does)."""
    walks, previous = [], None
    for point in plan.trace:
        if point.site == READ and point.path.endswith(STORE) \
                and point.phase != "load":
            if previous is None or point.op != previous + 1:
                walks.append([])
            walks[-1].append(point.op)
            previous = point.op
    return walks


def _disk_read(result, *phases) -> int:
    return sum(result.telemetry[phase].counters["disk_read_bytes"]
               for phase in phases)


def test_a_single_node_without_a_ledger(data, config, tmp_path, opened):
    """Nothing is written after load, nothing is read off the disk but one
    walk of the store, and the workdir keeps no sorted run."""
    plan = FaultPlan()
    with inject(plan):
        result = Assembler(config).assemble(data.store_path,
                                            workdir=tmp_path)
    assert _writes_after_load(plan) == []
    assert opened == []
    store = PackedReadStore.open(tmp_path / STORE)
    store.close()
    assert _disk_read(result, "map", "compress") == store.nbytes
    assert result.telemetry["compress"].counters["disk_read_bytes"] == 0
    for phase in ("map", "sort", "reduce", "compress"):
        assert result.telemetry[phase].counters["disk_write_bytes"] == 0, phase
    for phase in ("sort", "reduce"):
        counters = result.telemetry[phase].counters
        assert counters["disk_read_bytes"] == 0, phase
        assert counters["disk_seeks"] == 0, phase
    assert not list((tmp_path / "partitions").glob("*.run"))
    assert len(_store_walks(plan)) == BANDS + 1  # then compress


def test_a_single_node(data, config, tmp_path, opened):
    """With a ledger (``resume=True``) too: no run file is written after
    load, the ledger vouches for the store and the graph alone, and
    reduce reads no sorted run off the disk."""
    plan = FaultPlan()
    with inject(plan):
        result = Assembler(config).assemble(data.store_path,
                                            workdir=tmp_path, resume=True)
    assert _writes_after_load(plan) == []
    assert opened == []
    for phase in ("map", "sort", "reduce", "compress"):
        assert result.telemetry[phase].counters["disk_write_bytes"] == 0, phase
    for phase in ("sort", "reduce"):
        counters = result.telemetry[phase].counters
        assert counters["disk_read_bytes"] == 0, phase
        assert counters["disk_seeks"] == 0, phase
    assert _files(tmp_path) == ["graph.npz", STORE, STATE_FILE]
    vouched = json.loads((tmp_path / STATE_FILE).read_text())["artifacts"]
    assert vouched.keys() == {"load", "reduce"}
    assert result.telemetry["reduce"].counters["sorted_runs_held"] \
        == SORTED_RUNS


def _crash_points(plan: FaultPlan) -> list[tuple[str, int]]:
    """Where the crash sweep kills an in-core ledger run: each phase
    boundary, and in each band its map (the middle of its walk of the
    store) and its reduce (the first read of a held run after the walk)."""
    walks = _store_walks(plan)[:BANDS]
    held_reads = [point.op for point in plan.trace
                  if point.site == READ and ".sorted.run" in point.path]
    return [(PHASE, point.op) for point in plan.trace if point.site == PHASE] \
        + [(READ, walk[len(walk) // 2]) for walk in walks] \
        + [(READ, next(op for op in held_reads if op > walk[-1]))
           for walk in walks]


def test_a_crash_anywhere_resumes(data, config, tmp_path):
    """Killed at each phase boundary and in each band's map and reduce:
    the runs it held are gone with it, and the resumed run maps and sorts
    them again into the clean run, byte for byte."""
    probe = FaultPlan()
    with inject(probe):
        clean = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "clean",
                                           resume=True)
    points = _crash_points(probe)
    assert len(points) == 5 + 2 * BANDS
    for point in points:
        site, op = point
        workdir = tmp_path / f"w{op}"
        plan = FaultPlan.crash_at(op, site=site)
        with inject(plan), pytest.raises(FaultInjected):
            Assembler(config).assemble(data.store_path, workdir=workdir,
                                       resume=True)
        assert plan.events, point
        assert not list(workdir.rglob("*.sorted.run")), point
        resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                             resume=True)
        assert result_digest(resumed) == result_digest(clean), point
        assert scan_residue(workdir) == [], point
        assert _files(workdir) == _files(tmp_path / "clean"), point
        for name in ("graph.npz", STATE_FILE):
            assert (workdir / name).read_bytes() \
                == (tmp_path / "clean" / name).read_bytes(), (point, name)


def test_a_crash_after_a_held_sort_resumes(data, config, tmp_path):
    """Killed reading a run its sort has just held (the third overlap
    length's ``S``): no file is left of it, and the resumed run is the
    clean one, byte for byte."""
    probe = FaultPlan()
    with inject(probe):
        clean = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "clean",
                                           resume=True)
    third = f"S_{READ_LENGTH - 3:05d}.sorted.run"
    held_reads = [point for point in probe.trace
                  if point.site == READ and point.path.endswith(third)]
    workdir = tmp_path / "w"
    with inject(FaultPlan.crash_at(held_reads[0].op, site=READ)):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(data.store_path, workdir=workdir,
                                       resume=True)
    assert not list(workdir.rglob("*.sorted.run"))
    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(clean)
    assert scan_residue(workdir) == []
    for name in ("graph.npz", STATE_FILE):
        assert (workdir / name).read_bytes() \
            == (tmp_path / "clean" / name).read_bytes(), name


# -- the fault surface of a held store ------------------------------------------


@pytest.mark.parametrize("resume", (False, True), ids=("no-ledger", "ledger"))
def test_the_read_trace_is_that_of_an_unheld_store(data, config, tmp_path,
                                                   on_disk, resume):
    """Each read of the held store passes the ``READ`` hook under the
    store's path, as a read of the file did: same points, same order."""
    def reads(workdir) -> list[tuple[str, str, str]]:
        plan = FaultPlan()
        with inject(plan):
            Assembler(config).assemble(data.store_path, workdir=workdir,
                                       resume=resume)
        return [(point.site, point.path.replace(str(workdir), ""),
                 point.phase) for point in plan.trace if point.site == READ]

    held = reads(tmp_path / "held")
    with on_disk("store"):
        unheld = reads(tmp_path / "unheld")
    assert held == unheld
    assert sum(path.endswith(STORE) for _, path, _ in held) > 6


def test_a_read_crash_at_the_third_walk_resumes(data, config, tmp_path):
    probe = FaultPlan()
    with inject(probe):
        clean = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "clean",
                                           resume=True)
    third = _store_walks(probe)[2]
    workdir = tmp_path / "w"
    plan = FaultPlan.crash_at(third[len(third) // 2], site=READ)
    with inject(plan):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(data.store_path, workdir=workdir,
                                       resume=True)
    assert plan.events
    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(clean)
    assert scan_residue(workdir) == []


def test_a_held_store_gives_its_memory_back_when_the_run_raises(
        data, config, tmp_path, monkeypatch):
    """Compress raises with the store held beside the graph: the run's
    ``finally`` closes the store, which gives its reservation back."""
    seen = {}

    def failing(ctx, graph, store, **kwargs):
        seen.update(ctx=ctx, graph=graph, used=ctx.host_pool.used_bytes,
                    held=graph.nbytes + store.nbytes)
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "run_compress", failing)
    with pytest.raises(RuntimeError, match="boom"):
        Assembler(config).assemble(data.store_path, workdir=tmp_path)
    assert seen["used"] == seen["held"]
    seen["graph"].release()
    assert seen["ctx"].host_pool.used_bytes == 0


# -- the cluster writes no run it holds ------------------------------------------


@pytest.mark.parametrize("n_nodes", (1, 4))
def test_a_cluster(data, config, tmp_path, opened, monkeypatch, n_nodes):
    """The nodes' disks, metered around every round's sort and reduce."""
    moved = []

    def metered(run, supervisor):
        """``run`` with every node's disk reads and seeks metered;
        ``supervisor`` picks the supervisor out of its arguments."""
        def wrapped(*args, **kwargs):
            nodes = supervisor(args).nodes
            before = [node.ctx.accountant.counters() for node in nodes]
            out = run(*args, **kwargs)
            for node, then in zip(nodes, before):
                now = node.ctx.accountant.counters()
                moved.append((run.__name__, node.node_id,
                              now["disk_read_bytes"] - then["disk_read_bytes"],
                              now["disk_seeks"] - then["disk_seeks"]))
            return out
        return wrapped

    monkeypatch.setattr(ClusterSupervisor, "sort_phase", metered(
        ClusterSupervisor.sort_phase, lambda args: args[0]))
    monkeypatch.setattr(DistributedAssembler, "_reduce", metered(
        DistributedAssembler._reduce, lambda args: args[1]))
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, n_nodes).assemble(
            data.store_path, workdir=tmp_path)
    assert _writes_after_load(plan) == []
    assert opened == []
    assert {run for run, *_ in moved} == {"sort_phase", "_reduce"}
    assert all(read == 0 and seeks == 0 for _, _, read, seeks in moved), moved
    assert not list(tmp_path.glob("node*/**/*.run"))
    assert result.notes["records_shuffled"] > 0
    single = Assembler(config).assemble(data.store_path)
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
