"""Ablation — storage media sensitivity (HDD vs SSD).

"In practice, LaSAGNA will benefit from the use of local disks and faster
media such as solid-state drives" (§III.E). Measured: the same scaled
assembly runs against the HDD-class and SSD-class disk models; the modeled
clock shows how much of the pipeline the faster medium recovers and how
the bottleneck shifts from disk toward the device.
"""

from dataclasses import replace

import pytest

from repro import Assembler, AssemblyConfig
from repro.analysis import ComparisonTable
from repro.device.specs import DiskSpec
from repro.units import format_duration

from _common import dataset, emit, scale, scaled_memory


@pytest.mark.benchmark(group="ablation")
def test_ablation_disk_media(benchmark):
    materialized = dataset("Parakeet")
    config = AssemblyConfig(min_overlap=materialized.spec.min_overlap,
                            memory=scaled_memory("supermic"),
                            device_name="K20X", fingerprint_lanes=2)

    def run_both():
        out = {}
        for label, disk in (("hdd", DiskSpec()), ("ssd", DiskSpec.ssd())):
            result = Assembler(replace(config, disk=disk)).assemble(
                materialized.store_path)
            out[label] = result
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = ComparisonTable(
        f"Ablation - disk media, Parakeet analog (scaled x{scale():g})",
        ["disk", "sim total", "sim disk share", "sim sort", "sim map"],
    )
    for label, result in results.items():
        total = result.telemetry.total_sim_seconds()
        disk_seconds = sum(
            stats.counters.get("sim_disk_read_seconds", 0.0)
            + stats.counters.get("sim_disk_write_seconds", 0.0)
            for stats in result.telemetry)
        table.add_row(label, format_duration(total),
                      f"{disk_seconds / total:.0%}",
                      format_duration(result.telemetry["sort"].sim_seconds),
                      format_duration(result.telemetry["map"].sim_seconds))
    speedup = (results["hdd"].telemetry.total_sim_seconds()
               / results["ssd"].telemetry.total_sim_seconds())
    table.add_note(f"SSD end-to-end speedup {speedup:.2f}x; identical contigs")
    emit("ablation_disk", table)

    # Faster media speed the run up and shrink the disk share of total time.
    assert speedup > 1.3
    hdd, ssd = results["hdd"], results["ssd"]
    assert ssd.telemetry["sort"].sim_seconds < hdd.telemetry["sort"].sim_seconds
    # The assembly itself is unchanged.
    import numpy as np
    assert np.array_equal(hdd.contigs.flat_codes, ssd.contigs.flat_codes)
