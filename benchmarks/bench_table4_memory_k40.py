"""Table IV — peak host/device memory per phase, 128 GB + K40.

The structural claims: device peaks are data-size independent (fixed
per-phase allocations, fully used), host peaks grow with the dataset and
peak in the sort phase. Peaks come from the same cached runs as Table II;
paper-scale values come from the memory model.
"""

import pytest

from repro.analysis import ComparisonTable
from repro.config import MemoryConfig
from repro.model import model_memory_peaks
from repro.model.paper_values import TABLE4_MEMORY_K40

from _common import PAPER_ORDER, emit, pipeline_result, scale, workload

GB = 1e9


@pytest.mark.benchmark(group="table4")
def test_table4_memory_peaks_k40(benchmark):
    results = benchmark.pedantic(
        lambda: {name: pipeline_result(name, "qb2") for name in PAPER_ORDER},
        rounds=1, iterations=1)

    memory = MemoryConfig.preset("qb2")
    host_table = ComparisonTable(
        f"Table IV (host GB) - paper | model | measured-scaled/{scale():g}",
        ["dataset", "map", "sort", "reduce", "contig"],
    )
    device_table = ComparisonTable(
        f"Table IV (device GB) - paper | model | measured-scaled/{scale():g}",
        ["dataset", "map", "sort", "reduce"],
    )
    factor = scale()
    for paper_name in PAPER_ORDER:
        result = results[paper_name]
        model = model_memory_peaks(workload(paper_name), memory, "K40")
        paper = TABLE4_MEMORY_K40[paper_name]

        def cell(kind, phase, measured_phase):
            published = paper[kind][phase]
            modeled = model[kind][phase] / GB
            measured = result.telemetry[measured_phase].peaks.get(
                f"{'device' if kind == 'device' else 'host'}_bytes", 0.0)
            return f"{published:.1f} | {modeled:.1f} | {measured / factor / GB:.1f}"

        host_table.add_row(paper_name, cell("host", "map", "map"),
                           cell("host", "sort", "sort"),
                           cell("host", "reduce", "reduce"),
                           cell("host", "contig", "compress"))
        device_table.add_row(paper_name, cell("device", "map", "map"),
                             cell("device", "sort", "sort"),
                             cell("device", "reduce", "reduce"))
    host_table.add_note("measured column rescaled to paper units by 1/scale")
    host_table.add_note(
        "measured map = the staged map host block: the records of up to "
        "STAGE_READS reads, every kept length, both sides and orientations")
    host_table.add_note(
        "measured sort/reduce include the sorted runs held in host memory "
        "for reduce (one side beside the other side's sort, both while "
        "reduce reads them)")
    emit("table4", host_table, device_table)

    # Structure: device sort peak is identical for every dataset large enough
    # to fill the device blocks; H.Chr 14 sits below (the paper shows the
    # same: 6.46 GB vs 9.02 GB for the other three in Table IV).
    sort_peaks = {name: results[name].telemetry["sort"].peaks["device_bytes"]
                  for name in PAPER_ORDER}
    large = [sort_peaks[n] for n in PAPER_ORDER if n != "H.Chr 14"]
    assert max(large) / max(1.0, min(large)) < 1.05
    assert sort_peaks["H.Chr 14"] <= min(large)
    # Host sort peak grows with dataset size.
    host_sort = [results[name].telemetry["sort"].peaks["host_bytes"]
                 for name in PAPER_ORDER]
    assert host_sort[-1] >= host_sort[0]
    # Budgets never exceeded.
    budget = MemoryConfig.preset("qb2").scaled(factor)
    for result in results.values():
        for stats in result.telemetry:
            assert stats.peaks.get("device_bytes", 0) <= budget.device_bytes
            assert stats.peaks.get("host_bytes", 0) <= budget.host_bytes
