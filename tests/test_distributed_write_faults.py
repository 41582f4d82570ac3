"""Faults on cluster nodes: every one recovered, none silent.

The sweep (:mod:`repro.faults.sweep`) runs a 2-node assembly on the
``cramped`` budget (40 kB host: the run is not in-core, so every round's
pieces and pulled partitions go through the disk) with 256-record sort
blocks (the longer lengths' sorts spill, the shorter lengths' runs are
held and never written, and a restarted owner pulls and sorts those
again) and injects one fault at one cell of its clean probe:

* every WRITE operation, with ``crash``, ``torn`` (a 5-byte prefix, not a
  whole record, reaches the disk), ``enospc`` (the disk is full: the run
  dies) or ``fsync-loss`` (the write is acknowledged, then lost when its
  writer dies 1, 4, 16 or 64 operations later, wherever the run is by
  then);
* every node operation, with ``crash`` (retried in place where the
  operation allows it) or ``node-crash`` (the node restarts);
* every active message, with ``msg-drop`` (retried in place) or
  ``node-crash`` (the destination dies mid-request).

A run the fault killed is run once more on the same workdir. Every cell
must return the clean run's contigs with no degraded report; a cell that
ends with a named :class:`~repro.errors.ReproError` instead is counted
apart, and fails. The cells are the probe's, taken when the module is
collected. Tier-1 runs a fixed seeded sample and the cells pinned by key
(:data:`PINNED`); ``REPRO_SWEEP=full`` runs every cell.
"""

from __future__ import annotations

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.distributed import DistributedAssembler
from repro.faults import (CRASH, FSYNC_LOSS, MESSAGE, NODE, TORN, WRITE,
                          Fault, FaultPlan, inject, run_cell)
from repro.faults.sweep import TORN_OFFSET
from repro.seq.datasets import tiny_dataset

from .conftest import (SWEEP_OUTCOMES, Probe, cell_id, named_error,
                       probe_root, swept)

READ_LENGTH = 36
N_NODES = 2
#: 66 map-piece writes (33 a node: ``P_L``, drained by ``seal-map``, and
#: both sides of 16 overlap lengths, drained as each round's map seals
#: them), 33 pulls (one a partition) and 29 writes of the sorts that
#: spill (their runs and merges).
N_WRITES = 128
N_MAP_PIECE_WRITES = 66
N_SORT_WRITES = 29
#: Map-piece writes drained inside ``seal-map`` (one a node).
N_SEALED_WRITES = 2
#: Node operations a ``crash`` is retried in place at; the others append
#: to the node's streams, so it restarts instead.
IN_PLACE = ("map-round", "pull", "sort", "reduce")
#: The tier-1 sample's share of the cells.
FRACTION = 1 / 300
#: Cells an earlier draw put in tier-1 (``P_L``'s writes among them), by
#: key.
PINNED = frozenset(f"write:{name}" for name in """
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
    node01/map_parts/peer01/S_00023.run#0:crash:1""".split())


def _config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=20, seed=7,
                          memory=MemoryConfig(40_000, 16_000, name="cramped"),
                          host_block_pairs=256)


def _assemble(workdir):
    return DistributedAssembler(_config(), N_NODES).assemble(
        DATA.store_path, workdir=workdir)


ROOT = probe_root("distributed-write-faults-")
DATA, _ = tiny_dataset(ROOT, genome_length=600, read_length=READ_LENGTH,
                       coverage=8.0, min_overlap=20, seed=7)
PROBE = Probe(_assemble, ROOT / "probe", sites=(WRITE, NODE, MESSAGE))
SWEPT = swept(PROBE, FRACTION, PINNED)


def _writes() -> list:
    return [point for point in PROBE.trace if point.site == WRITE]


def test_the_cluster_writes_what_the_sweep_assumes():
    writes = _writes()
    assert len(writes) == N_WRITES
    assert sum("/map_parts/" in point.path for point in writes) \
        == N_MAP_PIECE_WRITES
    assert sum(".sorted.run" in point.path for point in writes) \
        == N_SORT_WRITES
    # A hand-out piece on each node, then its owner's pulled partition and
    # its sort's first run.
    assert all(f"P_{READ_LENGTH:05d}" in point.path for point in writes[:4])
    keys = {cell.key for cell in PROBE.cells}
    assert PINNED <= keys
    assert not any(str(ROOT) in key for key in keys)


def _sealed(trace) -> list:
    """The WRITE points of ``trace`` inside a ``seal-map`` node op."""
    sealed, op = [], None
    for point in trace:
        if point.site == NODE:
            op = point.path.split(":", 1)[1]
        elif point.site == WRITE and op == "seal-map":
            sealed.append(point)
    return sealed


def _contigs(result) -> tuple[bytes, bytes]:
    return (result.contigs.flat_codes.tobytes(),
            result.contigs.offsets.tobytes())


def _faulted(fault: Fault, workdir):
    """The plan and the result of one faulted run."""
    plan = FaultPlan([fault])
    with inject(plan):
        result = _assemble(workdir)
    assert plan.events, f"{fault} never fired"
    return plan, result


@pytest.mark.parametrize("cell", SWEPT, ids=[cell_id(cell) for cell in SWEPT])
def test_a_write_fault_recovers_or_raises(tmp_path, cell):
    clean = PROBE.clean
    plan, result, error, rerun = run_cell(cell,
                                          lambda: _assemble(tmp_path / "w"))
    SWEEP_OUTCOMES[__name__]["rerun"] += rerun
    assert plan.events, f"{cell.key} never fired"
    if error is not None:
        named_error(__name__, cell, error)
    assert result.degraded is None, cell.key
    assert _contigs(result) == _contigs(clean), \
        f"{cell.key} changed the contigs"
    if cell.point.site == NODE:
        op = cell.point.path.split(":", 1)[1]
        in_place = cell.kind == CRASH and op.startswith(IN_PLACE)
        assert result.notes.get("node_restarts", 0) == (not in_place), \
            cell.key
    SWEEP_OUTCOMES[__name__]["clean"] += 1


@pytest.mark.parametrize("kind", (CRASH, TORN))
def test_seal_map_restarts_instead_of_retrying_in_place(tmp_path, kind):
    """The hand-out's map-piece writes drain inside ``seal-map``. A seal
    cut short is not retried in place (its streams lost their buffered
    tails): the node restarts, wipes its pieces and maps its blocks
    again."""
    sealed = _sealed(PROBE.trace)
    assert len(sealed) == N_SEALED_WRITES
    for point in sealed:
        assert "/map_parts/" in point.path
        _, result = _faulted(Fault(kind, site=WRITE, at_op=point.op,
                                   offset=TORN_OFFSET), tmp_path / str(point.op))
        assert result.notes["node_restarts"] == 1, point.path
        assert result.notes["partitions_replayed"] >= 1, point.path
        assert result.degraded is None, point.path
        assert _contigs(result) == _contigs(PROBE.clean), point.path


def test_a_lost_write_restarts_its_writer(tmp_path):
    """node00's pulled ``P_00034`` is acknowledged, then lost when node00
    dies three operations later, inside node01's pull. The crash is
    node00's: it restarts, finds the partition short of what its pull
    wrote and pulls it again, instead of node01 retrying in place while
    node00 sorts a partition that lost its records."""
    clean = PROBE.clean
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
