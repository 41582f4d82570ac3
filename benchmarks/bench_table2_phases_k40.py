"""Table II — single-node per-phase times, 128 GB host + K40 (12 GB).

Three columns per phase: the published time, the analytic model at paper
scale, and the measured wall time of the scaled run (whose *shape* — sort
dominant, map second, compress negligible — is the reproduction target).
"""

import pytest

from repro.analysis import ComparisonTable
from repro.model import model_phase_seconds
from repro.model.paper_values import TABLE2_K40

from _common import (PAPER_ORDER, emit, longest_partition_passes,
                     pipeline_result, scale, workload)

PHASES = ("map", "sort", "reduce", "compress", "load", "total")


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("paper_name", PAPER_ORDER)
def test_table2_phase_times_k40(benchmark, paper_name):
    result = benchmark.pedantic(
        lambda: pipeline_result(paper_name, "qb2"), rounds=1, iterations=1)

    from repro.config import MemoryConfig
    model = model_phase_seconds(workload(paper_name),
                                MemoryConfig.preset("qb2"), "K40")
    measured = result.phase_seconds()
    measured["total"] = sum(measured.values())

    table = ComparisonTable(
        f"Table II - {paper_name} on 128 GB + K40 (scaled x{scale():g})",
        ["phase", "paper", "model (paper scale)", "measured wall (scaled)"],
        ["raw", "duration", "duration", "duration"],
    )
    for phase in PHASES:
        table.add_row(phase, TABLE2_K40[paper_name][phase], model[phase],
                      measured[phase])
    longest_passes = longest_partition_passes(result)
    table.add_note(f"sort disk passes, longest partition: {longest_passes} "
                   f"(paper: 1 on this host); worst partition, sorted beside "
                   f"the resident graph: {result.sort_report.max_disk_passes}")
    emit(f"table2_{paper_name.replace(' ', '').replace('.', '').lower()}", table)

    # Shape assertions: the paper's qualitative structure must hold.
    assert longest_passes == 1
    assert model["sort"] > model["map"] > model["compress"]
    assert measured["compress"] < 0.2 * measured["total"]
