"""An in-core run uses the disk only for what it keeps.

After load, an in-core run (the default 1 GB budget) writes no unsorted
partition and no map piece: every band's partitions, the whole-read
band's ``P_L`` too, and every cluster round's pieces and pulled
partitions stay in host memory. On a single node the packed store is held
in host memory from load on (load keeps the packed bytes it writes), and a
sorted run the sort holds for reduce is never written: a run writes no run
file after load and reads nothing off the disk after it, and a checkpoint
ledger adds ``state.json`` and ``graph.npz`` alone (a resume maps and sorts
again what has no file). A store this process did not load (a resumed
run's, a content-store hit's) is held from its first walk on: it is read
off the disk once.
Sort and reduce read no partition byte and seek nowhere. The same holds
on a single node, on a lone cluster node and on four nodes, whose
restarted owners pull and sort again from the round's pieces, and on the
survivor of a lost node, which owns two lengths a round. A cluster
node holds the read blocks it maps from their first read on, so the
cluster's maps read each dealt block off the disk once, the store once in
all, and compress gathers the blocks from the nodes that hold them,
reading nothing off a disk; a restarted node reads its blocks again, and
a survivor reads a lost node's once. Out of core, each node's compress
reads its own blocks off its own disk, and a holder that dies serving a
block, restarted or lost, serves it again or hands it to its adopter.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.config import MemoryConfig
from repro.core import pipeline
from repro.core.checkpoint import STATE_FILE
from repro.device.memory import MemoryPool
from repro.distributed import ClusterSupervisor, DistributedAssembler
from repro.distributed import node as node_module
from repro.distributed.resilience import BLOCKS_PER_NODE
from repro.errors import FaultInjected
from repro.extmem import RunReader
from repro.faults import (BITFLIP, CRASH, MESSAGE, NODE, NODE_CRASH, PHASE,
                          READ, WRITE, Fault, FaultPlan, inject,
                          result_digest, scan_residue)
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore
from repro.service import ContentStore

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
    """Nothing is written after load, nothing is read off the disk after
    it (map and compress read the reads load held), and the workdir keeps
    no sorted run."""
    plan = FaultPlan()
    with inject(plan):
        result = Assembler(config).assemble(data.store_path,
                                            workdir=tmp_path)
    assert _writes_after_load(plan) == []
    assert opened == []
    assert _disk_read(result, "map", "compress") == 0
    for phase in ("map", "sort", "reduce", "compress"):
        assert result.telemetry[phase].counters["disk_write_bytes"] == 0, phase
    for phase in ("sort", "reduce"):
        counters = result.telemetry[phase].counters
        assert counters["disk_read_bytes"] == 0, phase
        assert counters["disk_seeks"] == 0, phase
    assert not list((tmp_path / "partitions").glob("*.run"))
    assert len(_store_walks(plan)) == BANDS + 1  # then compress


@pytest.mark.parametrize("source", ("resumed", "content-store"))
def test_a_store_not_loaded_here_is_read_off_the_disk_once(
        data, config, tmp_path, source):
    """A run killed at the load boundary leaves the store on disk (in the
    workdir's ledger, and in the content store). The run that takes it up
    there, on the same workdir or on a fresh one that finds the store in
    the cache, did not load it: it holds the store from the map's first
    walk on, so map and compress read it off the disk exactly once."""
    cache = ContentStore(tmp_path / "cache", 1 << 30)
    first = tmp_path / "first"
    with inject(FaultPlan([Fault(CRASH, site=PHASE, match="load")])), \
            pytest.raises(FaultInjected):
        Assembler(config, content_store=cache).assemble(
            data.store_path, workdir=first, resume=True)
    workdir = first if source == "resumed" else tmp_path / "second"
    result = Assembler(config, content_store=cache).assemble(
        data.store_path, workdir=workdir, resume=source == "resumed")
    assert result.telemetry["load"].counters["disk_write_bytes"] == 0
    with PackedReadStore.open(workdir / STORE) as store:
        assert _disk_read(result, "map", "compress") == store.nbytes
    assert result.telemetry["compress"].counters["disk_read_bytes"] == 0


def test_a_bitflip_written_to_the_store_reaches_only_a_resume(
        data, config, tmp_path):
    """Load flips a bit of the store on its way to the disk. The run maps
    and spells the packed bytes load held, taken before the write's hook,
    so it is the clean run; only a resume reads the flipped file (here
    its compress, the graph being the ledger's)."""
    clean = Assembler(config).assemble(data.store_path,
                                       workdir=tmp_path / "clean")
    workdir = tmp_path / "w"
    plan = FaultPlan([Fault(BITFLIP, site=WRITE, match=f"*{STORE}")])
    with inject(plan):
        flipped = Assembler(config).assemble(data.store_path,
                                             workdir=workdir, resume=True)
    assert [event.kind for event in plan.events] == [BITFLIP]
    assert result_digest(flipped) == result_digest(clean)
    assert (workdir / STORE).read_bytes() \
        != (tmp_path / "clean" / STORE).read_bytes()
    resumed = Assembler(config).assemble(data.store_path, workdir=workdir,
                                         resume=True)
    assert _disk_read(resumed, "load", "map") == 0
    with PackedReadStore.open(workdir / STORE) as store:
        assert resumed.telemetry["compress"].counters["disk_read_bytes"] \
            == store.nbytes


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
    """The nodes' disks, metered around every round's map, sort and
    reduce and around compress: sort and reduce read nothing, the maps
    read the store once over the nodes, and compress reads nothing off
    any node's disk (every block it gathers is held)."""
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

    for phase in ("map_phase", "sort_phase", "compress"):
        monkeypatch.setattr(ClusterSupervisor, phase, metered(
            getattr(ClusterSupervisor, phase), lambda args: args[0]))
    monkeypatch.setattr(DistributedAssembler, "_reduce", metered(
        DistributedAssembler._reduce, lambda args: args[1]))
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, n_nodes).assemble(
            data.store_path, workdir=tmp_path)
    assert _writes_after_load(plan) == []
    assert opened == []
    assert {run for run, *_ in moved} \
        == {"map_phase", "sort_phase", "_reduce", "compress"}
    assert all(read == 0 and seeks == 0 for run, _, read, seeks in moved
               if run in ("sort_phase", "_reduce")), moved
    # Each dealt block is read off the disk once, in round 0: the store
    # once over the nodes, as a single node's walks read it.
    with PackedReadStore.open(data.store_path) as store:
        nbytes = store.nbytes
    assert sum(read for run, _, read, _ in moved if run == "map_phase") \
        == nbytes
    assert [read for run, _, read, _ in moved if run == "compress"] \
        == [0] * n_nodes
    assert not list(tmp_path.glob("node*/**/*.run"))
    assert result.notes["records_shuffled"] > 0
    single = Assembler(config).assemble(data.store_path)
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)


# -- a cluster node holds the read blocks it maps ---------------------------------


@pytest.fixture()
def workers(monkeypatch) -> list:
    """``[supervisor, node, map_read]`` of every worker the next runs start,
    in order (a restarted node's replacement too): ``map_read`` is what
    the node's maps read off its disk."""
    made = []
    worker, run_map = ClusterSupervisor._worker, node_module.run_map

    def spying(self, node_id):
        made.append([self, worker(self, node_id), 0])
        return made[-1][1]

    def metered(ctx, *args, **kwargs):
        before = ctx.accountant.counters()["disk_read_bytes"]
        out = run_map(ctx, *args, **kwargs)
        entry = next(entry for entry in made if entry[1].ctx is ctx)
        entry[2] += ctx.accountant.counters()["disk_read_bytes"] - before
        return out

    monkeypatch.setattr(ClusterSupervisor, "_worker", spying)
    monkeypatch.setattr(node_module, "run_map", metered)
    return made


def _block_bytes(supervisor, producers) -> int:
    """The packed bytes of the read blocks dealt to ``producers``."""
    per_read = supervisor.store.nbytes // supervisor.store.n_reads
    return sum((stop - start) * per_read for producer in producers
               for start, stop in supervisor.block_ranges[producer])


def _crash(data, config, tmp_path, path: str, round_index: int, **knobs):
    """The 4-node run with ``path``'s node op of round ``round_index``
    crashed: its contigs are the clean run's, byte for byte. Returns its
    result and its plan."""
    probe = FaultPlan()
    with inject(probe):
        clean = DistributedAssembler(config, 4).assemble(
            data.store_path, workdir=tmp_path / "clean")
    point = [p for p in probe.trace if p.site == NODE
             and p.path == path][round_index]
    plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
    with inject(plan):
        result = DistributedAssembler(
            AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, **knobs),
            4).assemble(data.store_path, workdir=tmp_path / "crashed")
    assert [e.kind for e in plan.events] == [NODE_CRASH]
    assert result.degraded is None
    assert result.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()
    assert np.array_equal(result.contigs.offsets, clean.contigs.offsets)
    return result, plan


def test_a_cluster_read_trace_is_that_of_an_unheld_store(
        data, config, tmp_path, on_disk, workers):
    """Two in-core nodes hold their blocks: each held read still passes the
    ``READ`` hook under the store's path, so the fault surface (every
    point, in order) is that of nodes that hold nothing."""
    def trace(workdir) -> tuple[list, int]:
        workers.clear()
        plan = FaultPlan()
        with inject(plan):
            DistributedAssembler(config, 2).assemble(data.store_path,
                                                     workdir=workdir)
        return [(point.op, point.site, point.path.replace(str(workdir), ""),
                 point.phase) for point in plan.trace], \
            sum(map_read for _, _, map_read in workers)

    held, held_read = trace(tmp_path / "held")
    with on_disk("store"):
        unheld, unheld_read = trace(tmp_path / "unheld")
    assert held == unheld
    store_reads = sum(site == READ and path.endswith(STORE)
                      for _, site, path, _ in held)
    rounds = 1 + -(-(READ_LENGTH - MIN_OVERLAP) // 2)
    assert store_reads > rounds * 2 * 4  # every round reads every block
    with PackedReadStore.open(data.store_path) as store:
        assert held_read == store.nbytes
        assert unheld_read == rounds * store.nbytes


def test_a_restarted_node_reads_its_blocks_again(data, config, tmp_path,
                                                 workers, monkeypatch):
    """node01 dies at its round-3 map, after rounds 0-2 mapped its blocks
    (round 0 off the disk, then from host memory). Its copy dies with it:
    the replacement reads the blocks off the disk again, once, and its
    host pool is not charged the dead node's copy (node01 holds nothing
    else that outlives it: no ``resident`` carry-over at all)."""
    resident = []
    alloc = MemoryPool.alloc

    def spying(self, nbytes, *, label=""):
        if label == "resident":
            resident.append(nbytes)
        return alloc(self, nbytes, label=label)

    monkeypatch.setattr(MemoryPool, "alloc", spying)
    _crash(data, config, tmp_path, "node01:map-round", 3)
    crashed = workers[-5:]
    supervisor = crashed[0][0]
    assert [(node.node_id, map_read) for _, node, map_read in crashed] \
        == [(node_id, _block_bytes(supervisor, [node_id]))
            for node_id in (0, 1, 2, 3, 1)]
    assert resident == []


def test_a_survivor_reads_a_lost_nodes_blocks_once(data, config, tmp_path,
                                                   workers, monkeypatch):
    """node02 is lost at its round-3 map: the survivor that takes its id
    reads those blocks off the disk once, then holds them beside its own
    for every later round. One survivor owns two lengths of each later
    round and holds the sorted runs of both, as an owner of one does: the
    run writes nothing after load, and reduce reads nothing off a disk."""
    reduce_read = []
    run_reduce = DistributedAssembler._reduce

    def metered(self, supervisor, *args, **kwargs):
        before = [node.ctx.accountant.counters()["disk_read_bytes"]
                  for node in supervisor.nodes]
        out = run_reduce(self, supervisor, *args, **kwargs)
        reduce_read.append(sum(
            node.ctx.accountant.counters()["disk_read_bytes"] - then
            for node, then in zip(supervisor.nodes, before)))
        return out

    monkeypatch.setattr(DistributedAssembler, "_reduce", metered)
    result, plan = _crash(data, config, tmp_path, "node02:map-round", 3,
                          node_restarts=0)
    assert _writes_after_load(plan) == []
    assert reduce_read and set(reduce_read) == {0}
    assert result.lost_nodes == (2,)
    crashed = workers[-4:]
    supervisor = crashed[0][0]
    survivor = supervisor.holder[2]
    assert survivor != 2
    producers = {node_id: [node_id] for node_id in range(4)}
    producers[survivor].append(2)
    assert [map_read for _, _, map_read in crashed] \
        == [_block_bytes(supervisor, producers[node_id])
            for node_id in range(4)]


# -- compress reads the blocks the nodes hold ------------------------------------


@pytest.fixture()
def served(monkeypatch) -> list:
    """``(node id, start, stop, disk read)`` of every read block a node
    served to compress, in order: what each serve read off its disk."""
    made = []
    serve = node_module.WorkerNode._serve_block

    def spying(self, start, stop):
        before = self.ctx.accountant.counters()["disk_read_bytes"]
        out = serve(self, start, stop)
        made.append((self.node_id, start, stop,
                     self.ctx.accountant.counters()["disk_read_bytes"]
                     - before))
        return out

    monkeypatch.setattr(node_module.WorkerNode, "_serve_block", spying)
    return made


def test_out_of_core_each_node_reads_its_own_blocks(data, tmp_path, workers,
                                                    monkeypatch):
    """Two cramped (out-of-core) nodes hold no block: each one's compress
    reads the blocks of its own producer off its own disk, the master's
    through its view and node01's to serve them, and the contigs are the
    single node's."""
    cramped = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                             memory=MemoryConfig(40_000, 16_000))
    read = {}
    compress = ClusterSupervisor.compress

    def metered(self, spell):
        before = [node.ctx.accountant.counters()["disk_read_bytes"]
                  for node in self.nodes]
        out = compress(self, spell)
        read.update({node.node_id: node.ctx.accountant.counters()[
            "disk_read_bytes"] - then
            for node, then in zip(self.nodes, before)})
        return out

    monkeypatch.setattr(ClusterSupervisor, "compress", metered)
    result = DistributedAssembler(cramped, 2).assemble(data.store_path,
                                                       workdir=tmp_path)
    supervisor = workers[0][0]
    assert not any(node.plan.in_core for node in supervisor.nodes)
    assert read == {node_id: _block_bytes(supervisor, [node_id])
                    for node_id in (0, 1)}
    single = Assembler(cramped).assemble(data.store_path)
    assert result.contigs.flat_codes.tobytes() \
        == single.contigs.flat_codes.tobytes()
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)


def _block_crash(data, tmp_path, holder: int, **knobs):
    """The 4-node in-core run with ``holder`` killed by the master's first
    ``fetch_block`` message to it: its contigs are the clean run's, byte
    for byte. Returns its result."""
    clean = DistributedAssembler(
        AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7), 4).assemble(
            data.store_path, workdir=tmp_path / "clean")
    plan = FaultPlan([Fault(NODE_CRASH, site=MESSAGE,
                            match=f"node00->node{holder:02d}:fetch_block")])
    with inject(plan):
        result = DistributedAssembler(
            AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, **knobs),
            4).assemble(data.store_path, workdir=tmp_path / "crashed")
    assert [e.kind for e in plan.events] == [NODE_CRASH]
    assert result.degraded is None
    assert result.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()
    assert np.array_equal(result.contigs.offsets, clean.contigs.offsets)
    return result


def test_a_holder_dead_at_a_block_fetch_restarts(data, tmp_path, workers,
                                                 served):
    """node01 dies as the master asks it for a block: it restarts without
    its held copy, compress runs again, and the replacement serves its
    blocks off its disk while every other holder serves from host
    memory."""
    result = _block_crash(data, tmp_path, 1)
    assert result.notes["node_restarts"] == 1
    assert result.lost_nodes == ()
    supervisor = workers[-1][0]
    assert workers[-1][1].node_id == 1  # the replacement
    disk = {}
    # The compress run again: 3 holders' blocks besides the master's.
    for node_id, _, _, read in served[-3 * BLOCKS_PER_NODE:]:
        disk[node_id] = disk.get(node_id, 0) + read
    assert disk == {1: _block_bytes(supervisor, [1]), 2: 0, 3: 0}


def test_a_holder_lost_at_a_block_fetch_hands_its_blocks_on(
        data, tmp_path, workers, served):
    """node02 dies as the master asks it for a block and has no restart
    left: its producer id moves to a survivor, which serves node02's
    blocks (off its disk: it never mapped them) beside its own."""
    result = _block_crash(data, tmp_path, 2, node_restarts=0)
    assert result.lost_nodes == (2,)
    supervisor = workers[-1][0]
    adopter = supervisor.holder[2]
    assert adopter not in (0, 2)
    lost = set(supervisor.block_ranges[2])
    # The compress run again: 3 producers' blocks besides the master's.
    again = served[-3 * BLOCKS_PER_NODE:]
    assert sorted((start, stop) for node_id, start, stop, _ in again
                  if node_id == adopter and (start, stop) in lost) \
        == sorted(lost)
    assert sum(read for node_id, *_, read in again if node_id == adopter) \
        == _block_bytes(supervisor, [2])
    assert all(read == 0 for node_id, *_, read in again
               if node_id != adopter)
