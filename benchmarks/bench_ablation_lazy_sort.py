"""Ablation D7 — sort schedule: eager (the paper's) vs lazy, per length.

The paper maps and sorts every partition before the first edge is placed
(§III.A–B). Reduce then takes the longest overlaps first and a vertex takes
one out-edge (§III.C), so most records of the shorter partitions belong to
vertices that are already closed when their length's turn comes.
``Assembler`` maps the lengths in bands of 1, 4, 16, ... lengths, each band
just before it is sorted and reduced and minus the claims closed at its
start, and sorts each length just before reduce reads it, dropping the
records closed since while the runs are formed. This ablation runs both
schedules on the Table I analogs under both testbed presets and compares,
on the simulated clock, what each one moves: records mapped and sorted,
disk bytes, passes per partition and per-phase time. The contigs must be
the same bytes.

The eager side is the plain phase composition ``run_map``, ``run_sort``
over every partition, then ``run_reduce`` over all of them. Nothing in the
program runs it any more: the cluster maps eagerly but applies the sort's
filter in rounds of one length per node (``bench_fig10_distributed.py``
sweeps the round size, and its one-round row is this eager schedule on
``n`` nodes).
"""

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.core.pipeline import eager_composition
from repro.units import format_size

from _common import (PAPER_ORDER, PRESETS, dataset, emit,
                     longest_partition_passes, pipeline_result, scale,
                     table_config)


def _disk_bytes(result, phases=("map", "sort", "reduce")) -> float:
    return sum(result.telemetry[phase].counters.get(key, 0.0)
               for phase in phases
               for key in ("disk_read_bytes", "disk_write_bytes"))


def _passes(result) -> tuple[int, int, int]:
    """``(longest partition, worst partition, single-pass partitions)``."""
    reports = result.sort_report.reports.values()
    return (longest_partition_passes(result),
            result.sort_report.max_disk_passes,
            sum(1 for report in reports if report.disk_passes <= 1))


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("paper_name", PAPER_ORDER)
def test_ablation_lazy_sort(benchmark, paper_name):
    def both():
        store_path = dataset(paper_name).store_path
        return {preset: (eager_composition(table_config(paper_name, preset),
                                           store_path),
                         pipeline_result(paper_name, preset))
                for preset in PRESETS}

    measured = benchmark.pedantic(both, rounds=1, iterations=1)

    table = ComparisonTable(
        f"Ablation D7 - sort schedule, {paper_name} (scaled x{scale():g})",
        ["preset", "schedule", "records mapped", "records sorted",
         "candidates", "map+sort+reduce disk", "passes longest/max",
         "1-pass partitions",
         "sim map", "sim sort", "sim reduce", "sim total"],
    )
    for preset, (eager, lazy) in measured.items():
        for label, result in (("eager", eager), ("lazy", lazy)):
            longest, worst, single = _passes(result)
            sim = {stats.name: stats.sim_seconds for stats in result.telemetry}
            table.add_row(
                preset, label, f"{result.map_report.tuples_written:,}",
                f"{result.sort_report.total_records:,}",
                f"{result.reduce_report.candidates:,}",
                format_size(_disk_bytes(result)), f"{longest}/{worst}",
                f"{single}/{len(result.sort_report.reports)}",
                *(f"{seconds:.3f}s" for seconds in (
                    sim["map"], sim["sort"], sim["reduce"], sum(sim.values()))))
    table.add_note("lazy = Assembler: lengths mapped in bands of 1, 4, 16, ... "
                   "minus the claims the out-degree bit-vector has closed at "
                   "the band's start, each length sorted just before reduce "
                   "reads it minus the records closed since; eager = run_map, "
                   "run_sort over everything, then run_reduce")
    table.add_note("from the second length on the graph (5.125 B a vertex) is "
                   "resident while a partition is sorted, and the sorter's "
                   "host block is cut from what it leaves")
    emit(f"ablation_lazy_sort_"
         f"{paper_name.replace(' ', '').replace('.', '').lower()}", table)

    for preset, (eager, lazy) in measured.items():
        assert np.array_equal(lazy.contigs.flat_codes, eager.contigs.flat_codes)
        assert np.array_equal(lazy.contigs.offsets, eager.contigs.offsets)
        assert lazy.reduce_report.edges_added == eager.reduce_report.edges_added
        assert lazy.reduce_report.per_length_edges \
            == eager.reduce_report.per_length_edges
        # Nothing can be dropped before the first edge: the longest
        # partition keeps the paper's pass count.
        assert _passes(lazy)[0] == _passes(eager)[0]
        assert _disk_bytes(lazy) < _disk_bytes(eager)
        if paper_name == "H.Genome":
            assert _disk_bytes(eager) / _disk_bytes(lazy) >= 2.0
