"""Ablation D4 — fingerprint width: 1 packed key lane vs 2 (~62 vs ~124 bits).

The paper uses 128-bit fingerprints because they "yield zero false positive
edges across all datasets". This ablation measures what each lane costs
(record width → sort volume → time) and what it buys (false positives vs
the exact-overlap oracle).

Runs the eager composition (every partition sorted whole, then reduced):
``Assembler`` drops the records that can no longer win before they become
candidates, so only the unfiltered candidate count can be held against the
oracle's.
"""

import pytest

from repro import AssemblyConfig
from repro.analysis import ComparisonTable
from repro.baselines import exact_overlaps
from repro.core.pipeline import eager_composition
from repro.seq.datasets import tiny_dataset
from repro.units import format_size

from _common import DATA_ROOT, emit


@pytest.mark.benchmark(group="ablation")
def test_ablation_fingerprint_lanes(benchmark):
    md, batch = tiny_dataset(DATA_ROOT / "ablation", genome_length=3000,
                             read_length=50, coverage=18.0, min_overlap=25,
                             seed=42)
    truth = set(exact_overlaps(batch, 25))

    def run_both():
        return {lanes: eager_composition(
                    AssemblyConfig(min_overlap=25, fingerprint_lanes=lanes),
                    md.store_path)
                for lanes in (1, 2)}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = ComparisonTable(
        "Ablation D4 - fingerprint lanes (hash bits per suffix/prefix)",
        ["lanes", "record bytes", "sort traffic", "candidates",
         "false candidates", "aux-rejected", "sim sort time"],
    )
    false_counts = {}
    for lanes, result in results.items():
        candidates = result.reduce_report.candidates
        false_counts[lanes] = candidates - len(truth)
        sort_stats = result.telemetry["sort"]
        table.add_row(
            f"{lanes} (~{62 * lanes} bits)", 12 if lanes == 1 else 20,
            format_size(sort_stats.counters["disk_read_bytes"]
                        + sort_stats.counters["disk_write_bytes"]),
            f"{candidates:,}", false_counts[lanes],
            result.reduce_report.aux_rejected,
            f"{sort_stats.sim_seconds:.3g}s")
    table.add_note("paper: 128-bit fingerprints give zero false positives; "
                   "even one 62-bit lane achieves that at these scales")
    emit("ablation_fingerprint", table)

    # Zero false positives in both configurations (the paper's observation).
    assert false_counts[1] == 0 and false_counts[2] == 0
    # The wider record costs proportionally more sort traffic (20/12 ≈ 1.67).
    traffic = {lanes: results[lanes].telemetry["sort"].counters["disk_read_bytes"]
               for lanes in (1, 2)}
    assert traffic[2] / traffic[1] == pytest.approx(20 / 12, rel=0.05)