"""Faults on a single node: every one resumed to the clean run.

The sweep (:mod:`repro.faults.sweep`) runs
``Assembler.assemble(resume=True)`` under one fault at one cell of its
clean probe: every WRITE, READ, LEDGER, RENAME and PHASE operation, with
each kind its site takes: ``crash``, ``torn`` (a 5-byte prefix, not a
whole record, reaches the disk), ``enospc`` (the disk is full) or
``fsync-loss`` (the write is acknowledged, then lost when the run dies 1,
4, 16 or 64 operations later, wherever it is by then). A run the fault
killed is resumed once on the same workdir. Every cell must end with the
clean run's result: an equal digest, a converged ledger and no residue. A
cell that ends with a named :class:`~repro.errors.ReproError` instead is
counted apart, and fails.

It runs on two budgets. ``incore`` is the default budget: the run holds
its packed store, every band and every sorted run in host memory, and
writes the store only. ``cramped`` keeps every band's partitions on disk,
and its 256-record sort blocks make the longer lengths' sorts spill
(several runs, merged) while the shorter lengths' runs are held and never
written: a resume finds the first on disk, vouched for by the ledger, and
maps and sorts the second again. The banded map writes a band's
partitions while reduce is under way, so these cells are what hold the
resume rule of ``Assembler._graph`` to account.

The cells are the probe's, taken when the module is collected. Tier-1
runs a fixed seeded sample and the cells pinned by key (:data:`PINNED`);
``REPRO_SWEEP=full`` runs every cell.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core.pipeline import PHASES
from repro.faults import (WRITE, ledger_converged, result_digest, run_cell,
                          sample, scan_residue)
from repro.seq.datasets import tiny_dataset

from .conftest import (SWEEP_OUTCOMES, Probe, cell_id, named_error,
                       probe_root, swept)

READ_LENGTH = 36
CONFIGS = {
    "cramped": AssemblyConfig(min_overlap=20, seed=7,
                              memory=MemoryConfig(40_000, 16_000,
                                                  name="cramped"),
                              host_block_pairs=256),
    "incore": AssemblyConfig(min_overlap=24, seed=7),
}
#: ``cramped``: 2 packed-store writes, 33 unsorted partition writes
#: (``P_L``, then 16 lengths in bands of 1, 4 and 11) and 23 writes of
#: the sorts that spill (their runs and merges); the other 26 sorted runs
#: are held. ``incore`` writes the packed store only.
N_WRITES = {"cramped": 58, "incore": 2}
N_PARTITION_WRITES = 33
N_SORT_WRITES = 23
#: The tier-1 sample's share of each budget's cells.
FRACTIONS = {"cramped": 1 / 100, "incore": 1 / 8}
#: Cells kept in tier-1 beside the sample, by key: the compress phase's
#: crash (the sample misses the phase's two points), and the ``cramped``
#: cells an earlier draw put in tier-1 (``P_L``'s writes among them).
PINNED = {
    "incore": frozenset({"phase:compress#0:crash:1"}),
    "cramped": frozenset(f"write:partitions/{name}" for name in """
        P_00036.run#0:crash:1
        P_00036.sorted.run.scratch/run_00000.run#0:torn:1
        P_00036.sorted.run.scratch/run_00001.run#0:crash:1
        P_00036.sorted.run.scratch/run_00001.run#0:fsync-loss:64
        P_00036.sorted.run.scratch/run_00002.run#0:crash:1
        P_00036.sorted.run.scratch/run_00002.run#0:fsync-loss:64
        P_00036.sorted.run.scratch/run_00002.run#0:torn:1
        P_00036.sorted.run.scratch/merge_000_00000.run#0:torn:1
        P_00036.sorted.run.scratch/merge_001_00000.run#0:fsync-loss:1
        P_00036.sorted.run.scratch/merge_001_00000.run#0:fsync-loss:16
        P_00035.run#0:crash:1
        S_00035.sorted.run.scratch/run_00000.run#0:fsync-loss:4
        S_00035.sorted.run.scratch/merge_000_00000.run#0:fsync-loss:64
        P_00032.run#0:torn:1
        S_00032.run#0:crash:1
        P_00033.run#0:fsync-loss:4
        P_00034.sorted.run.scratch/run_00000.run#0:fsync-loss:4
        S_00033.sorted.run.scratch/run_00001.run#0:torn:1
        P_00033.sorted.run.scratch/run_00000.run#0:fsync-loss:16
        P_00033.sorted.run.scratch/run_00000.run#0:fsync-loss:64
        P_00033.sorted.run.scratch/merge_000_00000.run#0:fsync-loss:16
        P_00020.run#0:torn:1
        S_00020.run#0:crash:1
        S_00023.run#0:torn:1
        S_00024.run#0:fsync-loss:16
        S_00025.run#0:crash:1
        P_00026.run#0:torn:1
        S_00026.run#0:fsync-loss:16
        S_00026.run#0:fsync-loss:64
        S_00026.run#0:torn:1
        S_00028.run#0:fsync-loss:16
        S_00028.run#0:fsync-loss:4
        S_00029.run#0:fsync-loss:4""".split()),
}


def _assemble(budget: str, workdir):
    return Assembler(CONFIGS[budget]).assemble(DATA.store_path,
                                               workdir=workdir, resume=True)


ROOT = probe_root("write-faults-")
DATA, _ = tiny_dataset(ROOT, genome_length=600, read_length=READ_LENGTH,
                       coverage=8.0, min_overlap=20, seed=7)
PROBES = {budget: Probe(partial(_assemble, budget), ROOT / budget)
          for budget in CONFIGS}
SWEPT = [(budget, cell) for budget, probe in PROBES.items()
         for cell in swept(probe, FRACTIONS[budget], PINNED[budget])]


def test_the_budgets_write_what_the_sweep_assumes():
    writes = {budget: [point for point in probe.trace if point.site == WRITE]
              for budget, probe in PROBES.items()}
    assert {budget: len(points) for budget, points in writes.items()} \
        == N_WRITES
    assert all(point.path.endswith(".lsgr") for point in writes["incore"])
    cramped = writes["cramped"]
    # The packed store, then ``P_L``'s partition and its sort's first run.
    assert all(f"P_{READ_LENGTH:05d}" in point.path for point in cramped[2:4])
    # The bands' partition writes fall between earlier bands' sorts.
    maps = [i for i, point in enumerate(cramped) if point.phase == "map"]
    assert len(maps) == N_PARTITION_WRITES
    assert maps != list(range(maps[0], maps[0] + len(maps)))
    assert sum(".sorted.run" in point.path for point in cramped) \
        == N_SORT_WRITES
    assert 0 < PROBES["cramped"].clean.telemetry["reduce"].counters[
        "sorted_runs_held"] < N_PARTITION_WRITES
    for budget, probe in PROBES.items():
        keys = {cell.key for cell in probe.cells}
        assert PINNED[budget] <= keys, budget
        # The input, outside the workdir, too: the keys are the same in
        # every run, and so is the sample.
        assert not any(str(ROOT) in key for key in keys), budget


def test_the_incore_sample_covers_every_phase():
    assert {cell.point.phase for budget, cell in SWEPT
            if budget == "incore"} == set(PHASES)


def test_appending_cells_leaves_earlier_picks_unchanged():
    """Each cell's membership is its own: a sample of a sweep grown by
    more cells is the sample of what it was, and of what was added."""
    cramped, incore = PROBES["cramped"].cells, PROBES["incore"].cells
    for head in (cramped[:len(cramped) // 3], cramped):
        assert sample(head + incore, 0.1) \
            == sample(head, 0.1) + sample(incore, 0.1)


@pytest.mark.parametrize(
    "budget, cell", SWEPT,
    ids=[cell_id(cell) if budget == "cramped" else f"{budget}-{cell_id(cell)}"
         for budget, cell in SWEPT])
def test_a_write_fault_resumes_or_raises(tmp_path, budget, cell):
    clean = PROBES[budget].clean
    workdir = tmp_path / "w"
    outcomes = f"{__name__}[{budget}]"
    plan, result, error, rerun = run_cell(cell,
                                          lambda: _assemble(budget, workdir))
    SWEEP_OUTCOMES[outcomes]["rerun"] += rerun
    assert plan.events, f"{cell.key} never fired"
    if error is not None:
        named_error(outcomes, cell, error)
    assert result_digest(result) == result_digest(clean), \
        f"{cell.key} changed the result"
    assert ledger_converged(workdir), cell.key
    assert scan_residue(workdir) == [], cell.key
    SWEEP_OUTCOMES[outcomes]["clean"] += 1
