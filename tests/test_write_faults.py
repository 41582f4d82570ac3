"""Write faults on a single node: resumed to the clean run, or a named error.

The sweep runs ``Assembler.assemble(resume=True)`` and injects one fault at
one WRITE operation of its clean probe: ``crash``, ``torn`` (a 5-byte
prefix, not a whole record, reaches the disk) or ``fsync-loss`` (the write
is acknowledged, then lost when the run dies ``delay`` operations later,
wherever it is by then). A run the fault killed is resumed once on the
same workdir. Every cell must end with the clean run's contigs and
reports, or raise a named :class:`~repro.errors.ReproError`. The banded
map writes a band's partitions while reduce is under way, so these cells
are what hold the resume rule of ``Assembler._graph`` to account. The
host budget is one that keeps every band's partitions on disk (a roomy
one keeps the later bands in host memory, and they have no write to
fault: ``tests/test_lazy_schedule.py::TestBandsInHostMemory``), and its
256-record sort blocks make the longer lengths' sorts spill (several
runs, merged) while the shorter lengths' runs are held and never
written: a resume finds the first on disk, vouched for by the ledger,
and maps and sorts the second again. Tier-1
runs a fixed seeded sample of the cells, ``P_L``'s writes among them;
``REPRO_WRITE_SWEEP=full`` (as CI's ``distributed-chaos`` job sets it)
runs every WRITE op with ``crash``, ``torn`` and ``fsync-loss`` at delays
1, 4, 16 and 64.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.errors import FaultInjected, ReproError
from repro.faults import (CRASH, FSYNC_LOSS, TORN, WRITE, Fault, FaultPlan,
                          inject, result_digest, scan_residue)
from repro.seq.datasets import tiny_dataset

MIN_OVERLAP = 20
READ_LENGTH = 36
#: 2 packed-store writes, 33 unsorted partition writes (``P_L``, then 16
#: lengths in bands of 1, 4 and 11) and 23 writes of the sorts that spill
#: (their runs and merges); the other 26 sorted runs are held.
N_WRITES = 58
N_PARTITION_WRITES = 33
N_SORT_WRITES = 23
HOST_BLOCK_PAIRS = 256
TORN_OFFSET = 5

CELLS = [(index, kind, delay) for index in range(N_WRITES)
         for kind, delays in ((CRASH, (1,)), (TORN, (1,)),
                              (FSYNC_LOSS, (1, 4, 16, 64)))
         for delay in delays]
SAMPLE_SIZE = 32
SAMPLE_SEED = 7
#: The whole-read partition's writes: ``P_L``'s map, then its sort's first run.
P_L_WRITES = (2, 3)


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


def _config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                          memory=MemoryConfig(40_000, 16_000, name="cramped"),
                          host_block_pairs=HOST_BLOCK_PAIRS)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The dataset, the clean run and the WRITE points of its probe."""
    root = tmp_path_factory.mktemp("write-faults")
    md, _ = tiny_dataset(root, genome_length=600, read_length=READ_LENGTH,
                         coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    probe = FaultPlan()
    with inject(probe):
        clean = Assembler(_config()).assemble(md.store_path,
                                              workdir=root / "probe",
                                              resume=True)
    writes = [point for point in probe.trace if point.site == WRITE]
    assert len(writes) == N_WRITES
    # The bands' partition writes fall between earlier bands' sorts.
    maps = [i for i, point in enumerate(writes) if point.phase == "map"]
    assert len(maps) == N_PARTITION_WRITES
    assert maps != list(range(maps[0], maps[0] + len(maps)))
    assert sum(".sorted.run" in point.path for point in writes) \
        == N_SORT_WRITES
    assert 0 < clean.telemetry["reduce"].counters["sorted_runs_held"] \
        < N_PARTITION_WRITES
    assert all(f"P_{READ_LENGTH:05d}" in writes[index].path
               for index in P_L_WRITES)
    return md, clean, writes


@pytest.mark.parametrize("index, kind, delay", SWEPT,
                         ids=[f"w{i:03d}-{k}-d{d}" for i, k, d in SWEPT])
def test_a_write_fault_resumes_or_raises(sweep, tmp_path, index, kind, delay):
    md, clean, writes = sweep
    point = writes[index]
    workdir = tmp_path / "w"
    plan = FaultPlan([Fault(kind, site=WRITE, at_op=point.op, delay=delay,
                            offset=TORN_OFFSET)])
    try:
        with inject(plan):
            result = Assembler(_config()).assemble(md.store_path,
                                                   workdir=workdir, resume=True)
    except FaultInjected:
        try:
            result = Assembler(_config()).assemble(md.store_path,
                                                   workdir=workdir, resume=True)
        except ReproError:
            return  # a named error, not a silent wrong assembly
    assert plan.events, f"{kind} at op {point.op} never fired"
    assert result_digest(result) == result_digest(clean), \
        f"{kind} (delay {delay}) at op {point.op} ({point.path}) " \
        "changed the result"
    assert scan_residue(workdir) == []
