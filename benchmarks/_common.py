"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures and prints
a comparison block with up to three columns per cell:

* **paper**    — the published number (:mod:`repro.model.paper_values`),
* **model**    — the analytic cost model evaluated at *paper scale*,
* **measured** — a real run of this implementation on the scaled dataset.

Scaled runs use the Table I analog datasets at ``REPRO_SCALE`` (default
2e-5) with memory budgets scaled by the same factor, so pass counts match
the paper's. Pipeline results are cached per (dataset, preset) because
several tables read the same runs (II+IV, III+V, VI).

Rendered blocks are printed and also appended to
``benchmarks/results/<bench>.txt`` so they survive pytest's capture.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro import Assembler, AssemblyConfig
from repro.analysis import ComparisonTable
from repro.config import MemoryConfig
from repro.core.context import RunContext
from repro.core.results import AssemblyResult
from repro.core.sort_phase import make_sorter
from repro.model.workload import Workload
from repro.seq.datasets import active_scale, dataset_registry, materialize_dataset

#: Directory for materialized scaled datasets (kept across runs).
DATA_ROOT = Path(os.environ.get("REPRO_BENCH_DATA",
                                Path(__file__).parent / ".data"))
#: Directory where rendered comparison tables are persisted.
RESULTS_ROOT = Path(__file__).parent / "results"

#: paper-name ↔ registry-name correspondence, in Table I order.
NAME_BY_PAPER = {
    "H.Chr 14": "hchr14_sim",
    "Bumblebee": "bumblebee_sim",
    "Parakeet": "parakeet_sim",
    "H.Genome": "hgenome_sim",
}
PAPER_ORDER = tuple(NAME_BY_PAPER)

#: Testbed presets: (memory preset, GPU) as in the paper's Tables II/III.
PRESETS = {"qb2": "K40", "supermic": "K20X"}


def scale() -> float:
    """The active dataset/memory scale factor."""
    return active_scale()


def scaled_memory(preset: str) -> MemoryConfig:
    """The preset budget scaled down with the datasets."""
    return MemoryConfig.preset(preset).scaled(scale())


def dataset(paper_name: str):
    """Materialize (or reuse) the scaled analog of one Table I dataset."""
    return materialize_dataset(NAME_BY_PAPER[paper_name], DATA_ROOT)


def workload(paper_name: str) -> Workload:
    """Paper-scale workload descriptor for the model columns."""
    return Workload.from_spec(dataset_registry()[NAME_BY_PAPER[paper_name]])


def table_config(paper_name: str, preset: str) -> AssemblyConfig:
    """The configuration of a scaled Table II/III run.

    Uses two fingerprint lanes — the paper's 20-byte record — so the scaled
    disk-pass structure matches Tables II/III.
    """
    return AssemblyConfig(
        min_overlap=dataset(paper_name).spec.min_overlap,
        memory=scaled_memory(preset),
        device_name=PRESETS[preset],
        fingerprint_lanes=2,
    )


@functools.lru_cache(maxsize=None)
def pipeline_result(paper_name: str, preset: str) -> AssemblyResult:
    """Run (once) the full pipeline on a scaled dataset under a preset."""
    return Assembler(table_config(paper_name, preset)).assemble(
        dataset(paper_name).store_path)


def block_sorter(workdir, dtype, m_h: int, m_d: int, *, host_bytes: int,
                 device_bytes: int, fanout: int = 2, device_name: str = "K40"):
    """``(ctx, sorter)``: the external sorter a run of an explicit
    ``(m_h, m_d)`` and merge fanout builds (``make_sorter``), on the
    machine its config names, and the run context that holds its clock,
    pools and disk accountant. The Fig. 8/9 sweeps and the sort ablations
    sort one partition with it."""
    config = AssemblyConfig(
        device_name=device_name,
        memory=MemoryConfig(host_bytes, device_bytes, name="sort-sweep"),
        host_block_pairs=m_h, device_block_pairs=m_d, merge_fanout=fanout)
    ctx = RunContext(config, workdir=workdir)
    return ctx, make_sorter(ctx, dtype)


def longest_partition_passes(result) -> int:
    """Disk passes over the longest partition: the paper's pass count.

    That partition, the whole-read length's ``P_L`` (as many records as
    each side of an overlap length), is sorted unfiltered, before the
    graph is allocated, with the whole host budget (shorter ones are
    filtered first and share the host with the graph; see
    ``bench_ablation_lazy_sort.py``, D7).
    """
    reports = result.sort_report.reports
    return reports[("P", max(length for _, length in reports))].disk_passes


def emit(bench_name: str, *renderables) -> None:
    """Print tables/charts (anything with ``.render()``) and persist them
    under benchmarks/results/."""
    RESULTS_ROOT.mkdir(parents=True, exist_ok=True)
    rendered = "\n\n".join(item.render() for item in renderables)
    print("\n" + rendered)
    (RESULTS_ROOT / f"{bench_name}.txt").write_text(rendered + "\n")
