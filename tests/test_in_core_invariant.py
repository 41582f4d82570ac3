"""An in-core run uses the disk only for what it keeps.

After load, an in-core run (the default 1 GB budget) writes no unsorted
partition and no map piece: every band's partitions, the whole-read
band's ``P_L`` too, and every cluster round's pieces and pulled
partitions stay in host memory. On a single node the packed store is held
in host memory from the first walk on, and a sorted run the sort holds for
reduce is written only for a checkpoint ledger: a run without one writes
nothing after load and reads the store off the disk once. A run with one
writes its sorted runs, the runs of record, and nothing else. Sort and
reduce read no partition byte and seek nowhere. The same holds on a
single node, on a lone cluster node and on four nodes, whose sorted runs
are what a restarted owner reads.
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
from repro.faults import (READ, WRITE, FaultPlan, inject, result_digest,
                          scan_residue)
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore

MIN_OVERLAP = 25
READ_LENGTH = 50
#: Every overlap length's two sorted runs, and ``P_L``'s one.
SORTED_RUNS = 2 * (READ_LENGTH - MIN_OVERLAP) + 1
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


def _only_sorted_runs(writes: list[str]) -> None:
    """Each write is a sorted run's, one a run (formed in one piece)."""
    assert len(writes) == SORTED_RUNS
    assert all(".sorted.run" in path for path in writes)
    assert not [path for path in writes if "/map_parts/" in path]


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


def _store_unheld(monkeypatch) -> None:
    """The store reads every walk off the disk, as before it was held."""
    monkeypatch.setattr(PackedReadStore, "hold", lambda self, pool: None)


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
    assert len(_store_walks(plan)) == 6  # 5 bands, then compress


def test_a_single_node(data, config, tmp_path, opened):
    """With a ledger (``resume=True``): the sorted runs are written for it,
    and it vouches for each of them; reduce still reads none of them off
    the disk."""
    plan = FaultPlan()
    with inject(plan):
        result = Assembler(config).assemble(data.store_path,
                                            workdir=tmp_path, resume=True)
    _only_sorted_runs(_writes_after_load(plan))
    assert opened == []
    assert result.telemetry["map"].counters["disk_write_bytes"] == 0
    for phase in ("sort", "reduce"):
        counters = result.telemetry[phase].counters
        assert counters["disk_read_bytes"] == 0, phase
        assert counters["disk_seeks"] == 0, phase
    runs = sorted((tmp_path / "partitions").glob("*.sorted.run"))
    assert len(runs) == SORTED_RUNS
    assert not list((tmp_path / "partitions").glob("[SP]_?????.run"))
    vouched = json.loads((tmp_path / STATE_FILE).read_text())["artifacts"]["sort"]
    assert sorted(vouched) == [str(run.relative_to(tmp_path)) for run in runs]


def test_a_crash_after_a_held_sort_resumes(data, config, tmp_path):
    """Killed writing a run its sort has just held (the third overlap
    length's ``S``): the resumed run is the clean one, byte for byte."""
    probe = FaultPlan()
    with inject(probe):
        clean = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "clean",
                                           resume=True)
    sorted_writes = [point for point in probe.trace if point.site == WRITE
                     and ".sorted.run" in point.path]
    op = sorted_writes[2 * 2 + 1].op  # past P_L and two overlap lengths
    workdir = tmp_path / "w"
    with inject(FaultPlan.crash_at(op, site=WRITE)):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(data.store_path, workdir=workdir,
                                       resume=True)
    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(clean)
    assert scan_residue(workdir) == []
    for name in ("graph.npz", STATE_FILE):
        assert (workdir / name).read_bytes() \
            == (tmp_path / "clean" / name).read_bytes(), name
    for run in (tmp_path / "clean" / "partitions").glob("*.sorted.run"):
        assert (workdir / "partitions" / run.name).read_bytes() \
            == run.read_bytes(), run.name


# -- the fault surface of a held store ------------------------------------------


@pytest.mark.parametrize("resume", (False, True), ids=("no-ledger", "ledger"))
def test_the_read_trace_is_that_of_an_unheld_store(data, config, tmp_path,
                                                   monkeypatch, resume):
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
    with monkeypatch.context() as patch:
        _store_unheld(patch)
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


# -- the cluster keeps writing its sorted runs -----------------------------------


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
    _only_sorted_runs(_writes_after_load(plan))
    assert opened == []
    assert {run for run, *_ in moved} == {"sort_phase", "_reduce"}
    assert all(read == 0 and seeks == 0 for _, _, read, seeks in moved), moved
    assert len(list(tmp_path.glob("node*/partitions/*.sorted.run"))) \
        == SORTED_RUNS
    assert not list(tmp_path.glob("node*/partitions/[SP]_?????.run"))
    assert not list(tmp_path.glob("node*/map_parts/*/*.run"))
    single = Assembler(config).assemble(data.store_path)
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
