"""Table V — peak host/device memory per phase, 64 GB + K20X.

Same structure as Table IV on the smaller testbed: device peaks scale with
the device (6 GB vs 12 GB) but stay data-size independent; host peaks are
capped by the smaller budget (H.Genome's sort peak saturates near the
buffer limit — the paper's 54.66 GB on a 64 GB host).
"""

import pytest

from repro.analysis import ComparisonTable
from repro.config import MemoryConfig
from repro.model import model_memory_peaks
from repro.model.paper_values import TABLE5_MEMORY_K20

from _common import PAPER_ORDER, emit, pipeline_result, scale, workload

GB = 1e9


@pytest.mark.benchmark(group="table5")
def test_table5_memory_peaks_k20(benchmark):
    results = benchmark.pedantic(
        lambda: {name: pipeline_result(name, "supermic") for name in PAPER_ORDER},
        rounds=1, iterations=1)

    memory = MemoryConfig.preset("supermic")
    factor = scale()
    table = ComparisonTable(
        f"Table V (GB) - paper | model | measured-scaled/{scale():g}",
        ["dataset", "host map", "host sort", "host reduce", "dev map",
         "dev sort", "dev reduce"],
    )
    for paper_name in PAPER_ORDER:
        result = results[paper_name]
        model = model_memory_peaks(workload(paper_name), memory, "K20X")
        paper = TABLE5_MEMORY_K20[paper_name]

        def cell(kind, phase):
            published = paper[kind][phase]
            modeled = model[kind][phase] / GB
            key = "device_bytes" if kind == "device" else "host_bytes"
            measured = result.telemetry[phase].peaks.get(key, 0.0)
            return f"{published:.1f} | {modeled:.1f} | {measured / factor / GB:.1f}"

        table.add_row(paper_name, cell("host", "map"), cell("host", "sort"),
                      cell("host", "reduce"), cell("device", "map"),
                      cell("device", "sort"), cell("device", "reduce"))
    table.add_note(
        "measured host map = the staged map host block (Table IV's note)")
    table.add_note(
        "measured host sort/reduce include the sorted runs held for reduce")
    emit("table5", table)

    # Device peaks halve with the device (Table IV vs V pattern).
    qb2_sort = pipeline_result("H.Genome", "qb2").telemetry["sort"] \
        .peaks["device_bytes"]
    supermic_sort = results["H.Genome"].telemetry["sort"].peaks["device_bytes"]
    assert supermic_sort < qb2_sort
    # H.Genome host sort peak approaches the scaled 64 GB-analog budget.
    budget = MemoryConfig.preset("supermic").scaled(factor)
    hgenome_sort_host = results["H.Genome"].telemetry["sort"].peaks["host_bytes"]
    assert hgenome_sort_host > 0.5 * budget.host_bytes
    assert hgenome_sort_host <= budget.host_bytes
