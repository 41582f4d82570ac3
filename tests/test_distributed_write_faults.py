"""Faults on cluster nodes: every one recovered, none silent.

The sweep (:mod:`repro.faults.sweep`) runs a 2-node assembly on two
budgets and injects one fault at one cell of each one's clean probe.
``cramped`` (40 kB host, 256-record sort blocks) is not in-core: every
round's pieces and pulled partitions go through the disk, the longer
lengths' sorts spill, and the shorter lengths' runs are held and never
written. ``incore`` (the default budget) writes nothing: its pieces,
pulled partitions, sorted runs and read blocks are held in host memory,
so a restart loses all of them, and its cells are the node operations
and messages alone. The cells:

* every WRITE operation, with ``crash``, ``torn`` (a 5-byte prefix, not a
  whole record, reaches the disk), ``enospc`` (the disk is full) or
  ``fsync-loss`` (the write is acknowledged, then lost when its writer
  dies 1, 4, 16 or 64 operations later, wherever the run is by then);
* every node operation (the master's compress among them), with
  ``node-crash``;
* every active message, with ``node-crash`` (the destination dies
  mid-request).

Every one of them is a node's death: the writer's, the operation's node
or the message's destination. That node restarts, once, and the
operation runs again, rebuilding from lineage what the death took, so
the run is never killed: every cell must return the clean run's contigs,
with no degraded report, without the sweep's rerun (and an ``incore``
one must write nothing). A cell that ends with a named
:class:`~repro.errors.ReproError` instead is counted apart, and fails.
The cells are the probes', taken when the module is collected. Tier-1
runs a fixed seeded sample of each budget and the cells pinned by key
(:data:`PINNED`); ``REPRO_SWEEP=full`` runs every cell. Each budget's
counts are reported apart.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.distributed import ClusterSupervisor, DistributedAssembler
from repro.errors import DistributedProtocolError
from repro.faults import (CRASH, ENOSPC, FSYNC_LOSS, MESSAGE, NODE,
                          NODE_CRASH, READ, WRITE, Fault, FaultPlan, inject,
                          run_cell)
from repro.seq.datasets import tiny_dataset

from .conftest import (SWEEP_OUTCOMES, Probe, cell_id, named_error,
                       probe_root, swept)

READ_LENGTH = 36
N_NODES = 2
#: 66 map-piece writes (33 a node: ``P_L`` and both sides of 16 overlap
#: lengths, drained as each round's map seals them), 33 pulls (one a
#: partition) and 29 writes of the sorts that spill (their runs and
#: merges).
N_WRITES = 128
N_MAP_PIECE_WRITES = 66
N_SORT_WRITES = 29
#: Node operations (each round's maps, pulls, sorts and reduces, then
#: compress) and active messages (one to each producer for each side of
#: each pulled partition, then compress's one to node01 for each of its 4
#: read blocks).
N_NODE_OPS = 70
N_MESSAGES = 70
#: The tier-1 sample's share of each budget's cells.
FRACTIONS = {"cramped": 1 / 300, "incore": 1 / 30}
#: A node operation's cell (the sample reaches none), the master's
#: compress, a holder's death serving compress a read block, a full disk,
#: and the lost write whose writer's death lands in compress, after the
#: token reduced every partition it owned.
PINNED_RUNGS = frozenset("""
    node:node01:map-round#7:node-crash:1
    node:node00:compress#0:node-crash:1
    message:node00->node01:fetch_block#0:node-crash:1
    write:node01/partitions/P_00035.run#0:enospc:1
    write:node01/partitions/P_00023.run#0:fsync-loss:64""".split())
#: Cells kept in tier-1 beside each budget's sample, by key. ``cramped``:
#: the cells an earlier draw put in tier-1 (``P_L``'s writes among them)
#: and :data:`PINNED_RUNGS`. ``incore``: a death at a sort (the sort run
#: again pulls its lost partitions first), at a later round's reduce (the
#: attempt run again does), of a holder serving a pull, in compress, and of
#: a holder serving compress a read block.
PINNED = {"cramped": PINNED_RUNGS | frozenset(f"write:{name}" for name in """
    node00/map_parts/peer00/P_00036.run#0:crash:1
    node01/map_parts/peer01/P_00036.run#0:torn:1
    node00/partitions/P_00036.run#0:crash:1
    node00/partitions/P_00036.sorted.run.scratch/run_00000.run#0:fsync-loss:16
    node00/partitions/P_00036.sorted.run.scratch/merge_000_00000.run#0:fsync-loss:1
    node00/map_parts/peer00/P_00034.run#0:torn:1
    node00/map_parts/peer00/S_00034.run#0:fsync-loss:64
    node00/map_parts/peer00/P_00035.run#0:crash:1
    node00/map_parts/peer00/P_00035.run#0:fsync-loss:4
    node00/map_parts/peer00/S_00035.run#0:fsync-loss:64
    node01/map_parts/peer01/P_00034.run#0:fsync-loss:1
    node01/map_parts/peer01/P_00035.run#0:fsync-loss:16
    node01/map_parts/peer01/S_00035.run#0:fsync-loss:1
    node00/partitions/S_00034.run#0:crash:1
    node00/partitions/S_00034.sorted.run.scratch/run_00001.run#0:crash:1
    node00/partitions/P_00034.sorted.run.scratch/merge_000_00000.run#0:fsync-loss:16
    node01/map_parts/peer01/P_00032.run#0:fsync-loss:4
    node01/map_parts/peer01/P_00033.run#0:crash:1
    node00/partitions/P_00032.run#0:crash:1
    node01/partitions/P_00033.sorted.run.scratch/merge_000_00000.run#0:torn:1
    node01/map_parts/peer01/P_00031.run#0:fsync-loss:1
    node01/partitions/P_00031.run#0:fsync-loss:1
    node01/partitions/P_00031.run#0:fsync-loss:16
    node00/map_parts/peer00/S_00029.run#0:fsync-loss:1
    node01/map_parts/peer01/P_00028.run#0:fsync-loss:1
    node01/map_parts/peer01/P_00029.run#0:crash:1
    node01/map_parts/peer01/P_00027.run#0:fsync-loss:4
    node01/partitions/P_00027.run#0:fsync-loss:1
    node00/map_parts/peer00/P_00025.run#0:crash:1
    node01/map_parts/peer01/P_00024.run#0:fsync-loss:4
    node01/map_parts/peer01/P_00025.run#0:fsync-loss:1
    node01/map_parts/peer01/S_00025.run#0:fsync-loss:1
    node01/map_parts/peer01/S_00025.run#0:fsync-loss:64
    node00/map_parts/peer00/S_00023.run#0:crash:1
    node00/map_parts/peer00/S_00023.run#0:fsync-loss:4
    node01/map_parts/peer01/S_00023.run#0:crash:1""".split()),
          "incore": frozenset("""
    node:node00:sort#4:node-crash:1
    node:node01:reduce[29]#0:node-crash:1
    message:node01->node00:fetch_partition#6:node-crash:1
    node:node00:compress#0:node-crash:1
    message:node00->node01:fetch_block#3:node-crash:1""".split())}
CONFIGS = {
    "cramped": AssemblyConfig(min_overlap=20, seed=7,
                              memory=MemoryConfig(40_000, 16_000,
                                                  name="cramped"),
                              host_block_pairs=256),
    "incore": AssemblyConfig(min_overlap=20, seed=7),
}


def _assemble(budget: str, workdir):
    return DistributedAssembler(CONFIGS[budget], N_NODES).assemble(
        DATA.store_path, workdir=workdir)


ROOT = probe_root("distributed-write-faults-")
DATA, _ = tiny_dataset(ROOT, genome_length=600, read_length=READ_LENGTH,
                       coverage=8.0, min_overlap=20, seed=7)
PROBES = {"cramped": Probe(partial(_assemble, "cramped"), ROOT / "probe",
                           sites=(WRITE, NODE, MESSAGE)),
          "incore": Probe(partial(_assemble, "incore"), ROOT / "incore",
                          sites=(NODE, MESSAGE))}
SWEPT = [(budget, cell) for budget, probe in PROBES.items()
         for cell in swept(probe, FRACTIONS[budget], PINNED[budget])]


def _writes(budget: str = "cramped") -> list:
    return [point for point in PROBES[budget].trace if point.site == WRITE]


def test_the_cluster_writes_what_the_sweep_assumes():
    writes = _writes()
    assert len(writes) == N_WRITES
    assert sum("/map_parts/" in point.path for point in writes) \
        == N_MAP_PIECE_WRITES
    assert sum(".sorted.run" in point.path for point in writes) \
        == N_SORT_WRITES
    # Round 0's piece on each node, then its owner's pulled partition and
    # its sort's first run.
    assert all(f"P_{READ_LENGTH:05d}" in point.path for point in writes[:4])
    for probe in PROBES.values():
        node_ops = [point.path for point in probe.trace
                    if point.site == NODE]
        assert len(node_ops) == N_NODE_OPS
        assert node_ops[-1] == "node00:compress"
        assert sum(point.site == MESSAGE for point in probe.trace) \
            == N_MESSAGES
    # Seven cells a write (crash, torn, enospc, four fsync-loss delays),
    # one a node operation and one a message; in-core, no write.
    assert _writes("incore") == []
    assert len(PROBES["cramped"].cells) \
        == 7 * N_WRITES + N_NODE_OPS + N_MESSAGES
    assert len(PROBES["incore"].cells) == N_NODE_OPS + N_MESSAGES
    for budget, probe in PROBES.items():
        keys = {cell.key for cell in probe.cells}
        assert PINNED[budget] <= keys, budget
        assert not any(str(ROOT) in key for key in keys), budget


def _contigs(result) -> tuple[bytes, bytes]:
    return (result.contigs.flat_codes.tobytes(),
            result.contigs.offsets.tobytes())


def _faulted(fault: Fault, workdir):
    """The plan and the result of one faulted run."""
    plan = FaultPlan([fault])
    with inject(plan):
        result = _assemble("cramped", workdir)
    assert plan.events, f"{fault} never fired"
    return plan, result


@pytest.mark.parametrize(
    "budget, cell", SWEPT,
    ids=[cell_id(cell) if budget == "cramped" else f"{budget}-{cell_id(cell)}"
         for budget, cell in SWEPT])
def test_a_write_fault_recovers_or_raises(tmp_path, budget, cell):
    clean = PROBES[budget].clean
    outcomes = f"{__name__}[{budget}]"
    plan, result, error, rerun = run_cell(
        cell, lambda: _assemble(budget, tmp_path / "w"))
    SWEEP_OUTCOMES[outcomes]["rerun"] += rerun
    assert plan.events, f"{cell.key} never fired"
    if error is not None:
        named_error(outcomes, cell, error)
    assert not rerun, f"{cell.key} ended the run"
    assert result.degraded is None, cell.key
    assert _contigs(result) == _contigs(clean), \
        f"{cell.key} changed the contigs"
    if cell.point.site != WRITE or cell.kind == ENOSPC:
        assert result.notes.get("node_restarts", 0) == 1, cell.key
    if budget == "incore":
        assert not [point.path for point in plan.trace
                    if point.site == WRITE], f"{cell.key} wrote"
    SWEEP_OUTCOMES[outcomes]["clean"] += 1


def test_a_lost_write_restarts_its_writer(tmp_path):
    """node00's pulled ``P_00034`` is acknowledged, then lost when node00
    dies three operations later, inside node01's pull. The crash is
    node00's: it restarts, finds the partition short of what its pull
    wrote and pulls it again, instead of node01 retrying in place while
    node00 sorts a partition that lost its records."""
    clean = PROBES["cramped"].clean
    point = next(point for point in _writes()
                 if point.path.endswith("node00/partitions/P_00034.run"))
    plan, result = _faulted(Fault(FSYNC_LOSS, site=WRITE, at_op=point.op,
                                  delay=3), tmp_path)
    assert [event.kind for event in plan.events] == [FSYNC_LOSS, FSYNC_LOSS]
    assert plan.events[1].path == "node01->node01:fetch_partition"
    assert result.notes["node_restarts"] == 1
    assert result.notes["partitions_rebuilt"] == 1
    assert result.degraded is None
    assert result.reduce_report.candidates == clean.reduce_report.candidates
    assert result.edges == clean.edges
    assert _contigs(result) == _contigs(clean)


def test_a_disk_that_stays_full_loses_its_node(tmp_path):
    """node01's disk is full for good: each of its writes raises
    ``ENOSPC``, which is node01's death. It restarts once, dies again and
    is lost, and node00 fails its work over: the clean contigs, in one
    run."""
    _, result = _faulted(Fault(ENOSPC, site=WRITE, match="*node01/*",
                               once=False), tmp_path)
    assert result.notes["node_restarts"] == 1
    assert result.notes["nodes_lost"] == 1
    assert result.degraded is None
    assert _contigs(result) == _contigs(PROBES["cramped"].clean)


def test_a_disk_full_on_every_node_ends_the_run_by_name(tmp_path):
    with inject(FaultPlan([Fault(ENOSPC, site=WRITE, once=False)])), \
            pytest.raises(DistributedProtocolError, match="no surviving"):
        _assemble("cramped", tmp_path)


def test_a_full_disk_under_a_peers_pull_is_the_holders_death(tmp_path):
    """node01 dies serving node00's pull and restarts without its pieces;
    node00's pull, run again, has node01 map them again first, in
    node01's scope. A full disk there is node01's death, not node00's:
    node01, restarted once already, is lost, and node00 finishes alone."""
    crash = Fault(NODE_CRASH, site=MESSAGE,
                  match="node00->node01:fetch_partition")
    probe, _ = _faulted(crash, tmp_path / "probe")
    died = probe.events[0].op
    remap = next(point for point in probe.trace if point.op > died
                 and point.site == WRITE and "node01/map_parts/" in point.path)
    plan = FaultPlan([crash, Fault(ENOSPC, site=WRITE, at_op=remap.op)])
    with inject(plan):
        result = _assemble("cramped", tmp_path / "full")
    assert [event.kind for event in plan.events] == [NODE_CRASH, ENOSPC]
    assert result.notes["node_restarts"] == 1
    assert result.notes["nodes_lost"] == 1
    assert result.degraded is None
    assert _contigs(result) == _contigs(PROBES["cramped"].clean)


def test_a_read_crash_serving_a_block_is_the_holders_death(tmp_path,
                                                           monkeypatch):
    """node01's disk fails at the first store read after the master asks
    it for a read block (cramped: node01 holds none and reads it off its
    disk). The handler runs in node01's scope, so the death is node01's:
    node01 restarts, not the master, and the contigs are the clean run's."""
    trace = PROBES["cramped"].trace
    fetch = next(point.op for point in trace if point.site == MESSAGE
                 and point.path == "node00->node01:fetch_block")
    read = next(point for point in trace if point.op > fetch
                and point.site == READ and point.path.endswith("reads.lsgr"))
    died = []
    handle_death = ClusterSupervisor._handle_death

    def spying(self, node_id):
        died.append(node_id)
        return handle_death(self, node_id)

    monkeypatch.setattr(ClusterSupervisor, "_handle_death", spying)
    plan, result = _faulted(Fault(CRASH, site=READ, at_op=read.op), tmp_path)
    assert [event.kind for event in plan.events] == [CRASH]
    assert died == [1]
    assert result.notes["node_restarts"] == 1
    assert result.degraded is None
    assert _contigs(result) == _contigs(PROBES["cramped"].clean)
