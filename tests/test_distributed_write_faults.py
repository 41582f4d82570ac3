"""Write faults on cluster nodes: recovered or raised, never silent.

The sweep runs a 2-node assembly on the ``cramped`` budget (40 kB host:
the run is not in-core, so every round's pieces and pulled partitions go
through the disk) with 256-record sort blocks (the longer lengths' sorts
spill, the shorter lengths' runs are held and never written, and a
restarted owner pulls and sorts those again) and injects one fault at one
WRITE operation of its
clean probe: ``crash``, ``torn`` (a 5-byte prefix, not a
whole record, reaches the disk) or ``fsync-loss`` (the write is
acknowledged, then lost when its writer dies ``delay`` operations later,
wherever the run is by then). Every cell must return the clean run's
contigs with no degraded report, or raise. Tier-1 runs a fixed seeded
sample of the cells, ``P_L``'s writes among them;
``REPRO_WRITE_SWEEP=full`` (as CI's ``distributed-chaos`` job sets it)
runs every WRITE op with ``crash``, ``torn`` and ``fsync-loss`` at delays
1, 4, 16 and 64.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.distributed import DistributedAssembler
from repro.errors import FaultInjected
from repro.faults import (CRASH, FSYNC_LOSS, NODE, TORN, WRITE, Fault,
                          FaultPlan, inject)
from repro.seq.datasets import tiny_dataset

MIN_OVERLAP = 20
READ_LENGTH = 36
N_NODES = 2
#: 66 map-piece writes (33 a node: ``P_L``, drained by ``seal-map``, and
#: both sides of 16 overlap lengths, drained as each round's map seals
#: them), 33 pulls (one a partition) and 29 writes of the sorts that
#: spill (their runs and merges).
N_WRITES = 128
N_MAP_PIECE_WRITES = 66
N_SORT_WRITES = 29
HOST_BLOCK_PAIRS = 256
#: Map-piece writes drained inside ``seal-map`` (one a node).
N_SEALED_WRITES = 2
TORN_OFFSET = 5

CELLS = [(index, kind, delay) for index in range(N_WRITES)
         for kind, delays in ((CRASH, (1,)), (TORN, (1,)),
                              (FSYNC_LOSS, (1, 4, 16, 64)))
         for delay in delays]
SAMPLE_SIZE = 32
SAMPLE_SEED = 7
#: The whole-read partition's writes: a hand-out piece on each node, then
#: its owner's pulled partition and its sort's first run.
P_L_WRITES = (0, 1, 2, 3)


def _sample(cells) -> list:
    """The tier-1 sample: a seeded draw from every write's cells, and one
    cell of each of ``P_L``'s writes. The draw over the first writes does
    not move when writes are added after them."""
    rng = random.Random(SAMPLE_SEED)
    drawn = set(rng.sample(cells, SAMPLE_SIZE))
    for index in P_L_WRITES:
        drawn.add(rng.choice([cell for cell in cells if cell[0] == index]))
    return sorted(drawn)


SWEPT = CELLS if os.environ.get("REPRO_WRITE_SWEEP") == "full" \
    else _sample(CELLS)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The dataset, the clean run and the WRITE points of its probe."""
    root = tmp_path_factory.mktemp("write-faults")
    md, _ = tiny_dataset(root, genome_length=600, read_length=READ_LENGTH,
                         coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    probe = FaultPlan()
    with inject(probe):
        clean = DistributedAssembler(_config(), N_NODES).assemble(
            md.store_path)
    writes = [point for point in probe.trace if point.site == WRITE]
    assert len(writes) == N_WRITES
    assert sum("/map_parts/" in point.path for point in writes) \
        == N_MAP_PIECE_WRITES
    assert sum(".sorted.run" in point.path for point in writes) \
        == N_SORT_WRITES
    assert all(f"P_{READ_LENGTH:05d}" in writes[index].path
               for index in P_L_WRITES)
    return md, clean, writes, _sealed(probe.trace)


def _sealed(trace) -> list:
    """The WRITE points of ``trace`` inside a ``seal-map`` node op."""
    sealed, op = [], None
    for point in trace:
        if point.site == NODE:
            op = point.path.split(":", 1)[1]
        elif point.site == WRITE and op == "seal-map":
            sealed.append(point)
    return sealed


def _config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                          memory=MemoryConfig(40_000, 16_000, name="cramped"),
                          host_block_pairs=HOST_BLOCK_PAIRS)


def _contigs(result) -> tuple[bytes, bytes]:
    return (result.contigs.flat_codes.tobytes(),
            result.contigs.offsets.tobytes())


def _faulted(md, fault: Fault):
    """The plan and the result of one faulted run."""
    plan = FaultPlan([fault])
    with inject(plan):
        result = DistributedAssembler(_config(), N_NODES).assemble(
            md.store_path)
    assert plan.events, f"{fault} never fired"
    return plan, result


@pytest.mark.parametrize("index, kind, delay", SWEPT,
                         ids=[f"w{i:03d}-{k}-d{d}" for i, k, d in SWEPT])
def test_a_write_fault_recovers_or_raises(sweep, index, kind, delay):
    md, clean, writes, _ = sweep
    point = writes[index]
    try:
        _, result = _faulted(md, Fault(kind, site=WRITE, at_op=point.op,
                                       delay=delay, offset=TORN_OFFSET))
    except FaultInjected:
        return  # a crash outside every node operation ends the run
    assert result.degraded is None, point.path
    assert _contigs(result) == _contigs(clean), \
        f"{kind} (delay {delay}) at op {point.op} ({point.path}) " \
        "changed the contigs"


@pytest.mark.parametrize("kind", (CRASH, TORN))
def test_seal_map_restarts_instead_of_retrying_in_place(sweep, kind):
    """The hand-out's map-piece writes drain inside ``seal-map``. A seal
    cut short is not retried in place (its streams lost their buffered
    tails): the node restarts, wipes its pieces and maps its blocks
    again."""
    md, clean, _, sealed = sweep
    assert len(sealed) == N_SEALED_WRITES
    for point in sealed:
        assert "/map_parts/" in point.path
        _, result = _faulted(md, Fault(kind, site=WRITE, at_op=point.op,
                                       offset=TORN_OFFSET))
        assert result.notes["node_restarts"] == 1, point.path
        assert result.notes["partitions_replayed"] >= 1, point.path
        assert result.degraded is None, point.path
        assert _contigs(result) == _contigs(clean), point.path


def test_a_lost_write_restarts_its_writer(sweep):
    """node00's pulled ``P_00034`` is acknowledged, then lost when node00
    dies three operations later, inside node01's pull. The crash is
    node00's: it restarts, finds the partition short of what its pull
    wrote and pulls it again, instead of node01 retrying in place while
    node00 sorts a partition that lost its records."""
    md, clean, writes, _ = sweep
    point = next(point for point in writes
                 if point.path.endswith("node00/partitions/P_00034.run"))
    plan, result = _faulted(md, Fault(FSYNC_LOSS, site=WRITE, at_op=point.op,
                                      delay=3))
    assert [event.kind for event in plan.events] == [FSYNC_LOSS, FSYNC_LOSS]
    assert plan.events[1].path == "node01->node01:fetch_partition"
    assert result.notes["node_restarts"] == 1
    assert result.notes["partitions_rebuilt"] == 1
    assert result.degraded is None
    assert result.reduce_report.candidates == clean.reduce_report.candidates
    assert result.edges == clean.edges
    assert _contigs(result) == _contigs(clean)
