"""Fig. 8 — effect of host and device block-sizes on sorting time.

Measured: one scaled H.Genome partition is externally sorted under a grid
of (m_h, m_d) block sizes; modeled seconds (which include the disk-pass
structure) are reported alongside. Model: the same grid at paper scale
(2.5 G records of 20 bytes on a K40).

Reproduction targets: time falls as the host block grows (log-shaped, one
disk pass fewer per doubling) and flattens at the single-pass point; the
device block-size matters far less.
"""

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.extmem import RunWriter
from repro.extmem.records import kv_dtype, make_records
from repro.model.paper_values import FIG8_DEVICE_BLOCKS, FIG8_HOST_BLOCKS
from repro.model.sorting import PARTITION_RECORDS, model_partition_sort_seconds
from repro.units import format_duration

from _common import block_sorter, dataset, emit


def _partition_records(n: int) -> np.ndarray:
    rng = np.random.default_rng(88)
    return make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                        np.arange(n, dtype=np.uint32),
                        aux=rng.integers(0, 2**62, n, dtype=np.uint64))


def _sort_once(tmp_path, records: np.ndarray, m_h: int, m_d: int, fanout=2):
    ctx, sorter = block_sorter(tmp_path, records.dtype, m_h, m_d,
                               host_bytes=max(1 << 22, m_h * 60),
                               device_bytes=max(1 << 20, m_d * 60),
                               fanout=fanout)
    in_path = tmp_path / f"part_{m_h}_{m_d}_{fanout}.run"
    with RunWriter(in_path, records.dtype) as writer:
        writer.append(records)
    report = sorter.sort_file(in_path, tmp_path / f"out_{m_h}_{m_d}_{fanout}.run")
    return report, ctx.clock.total_seconds


@pytest.mark.benchmark(group="fig8")
def test_fig8_block_size_sweep(benchmark, tmp_path):
    materialized = dataset("H.Genome")
    n = 2 * materialized.n_reads  # one scaled partition
    records = _partition_records(n)

    host_grid = [n // 4, n // 2, n, 2 * n, 4 * n]
    device_grid = [n // 64, n // 32, n // 16, n // 8]
    fanout_grid = [2, 4, 8]
    fixed_device = n // 16

    def sweep():
        measurements = {}
        for m_h in host_grid:
            measurements[("host", m_h)] = _sort_once(tmp_path, records, m_h,
                                                     fixed_device)
        for m_d in device_grid:
            measurements[("device", m_d)] = _sort_once(tmp_path, records,
                                                       n // 2, m_d)
        for fanout in fanout_grid:
            measurements[("fanout", fanout)] = _sort_once(
                tmp_path, records, n // 8, fixed_device, fanout)
        return measurements

    measurements = benchmark.pedantic(sweep, rounds=1, iterations=1)

    host_table = ComparisonTable(
        "Fig. 8 (host axis) - sort time vs host block-size",
        ["m_h (fraction of partition)", "passes", "sim time",
         "model @ paper scale"],
    )
    for m_h, paper_m_h in zip(host_grid, FIG8_HOST_BLOCKS):
        report, sim = measurements[("host", m_h)]
        model = model_partition_sort_seconds(paper_m_h, 20_000_000)
        host_table.add_row(f"{m_h / n:.3g}x", report.disk_passes,
                           format_duration(sim), format_duration(model))

    device_table = ComparisonTable(
        "Fig. 8 (device axis) - sort time vs device block-size (m_h = n/2)",
        ["m_d (fraction of partition)", "sim time", "model @ paper scale"],
    )
    for m_d, paper_m_d in zip(device_grid, FIG8_DEVICE_BLOCKS):
        _, sim = measurements[("device", m_d)]
        model = model_partition_sort_seconds(640_000_000, paper_m_d)
        device_table.add_row(f"{m_d / n:.3g}x", format_duration(sim),
                             format_duration(model))
    host_table.add_note(f"measured partition: {n:,} records; paper partition: "
                        f"{PARTITION_RECORDS:,} records")

    fanout_table = ComparisonTable(
        "Fig. 8 extension - merge fanout at m_h = n/8 (16 initial runs)",
        ["fanout k", "passes", "sim time", "model @ paper scale"],
    )
    for fanout in fanout_grid:
        report, sim = measurements[("fanout", fanout)]
        model = model_partition_sort_seconds(160_000_000, 20_000_000,
                                             merge_fanout=fanout)
        fanout_table.add_row(fanout, report.disk_passes, format_duration(sim),
                             format_duration(model))

    from repro.analysis import AsciiChart
    chart = AsciiChart("Fig. 8 (model) - partition sort seconds (K40)",
                       [f"{b // 10**6}M" for b in FIG8_HOST_BLOCKS], y_log=True)
    for paper_m_d in FIG8_DEVICE_BLOCKS:
        chart.add_series(f"m_d={paper_m_d // 10**6}M",
                         [model_partition_sort_seconds(b, paper_m_d)
                          for b in FIG8_HOST_BLOCKS])
    emit("fig8", host_table, fanout_table, device_table, chart)

    # Shapes: monotone drop along the host axis, flat past single-pass
    # (blocks of 2n and 4n records both sort the partition in one pass).
    host_sims = [measurements[("host", m_h)][1] for m_h in host_grid]
    assert host_sims[0] > host_sims[1] > host_sims[2]
    assert measurements[("host", 2 * n)][0].disk_passes == 1
    assert abs(host_sims[-1] - host_sims[-2]) < 0.05 * host_sims[-2]
    # Host axis effect dwarfs device axis effect.
    device_sims = [measurements[("device", m_d)][1] for m_d in device_grid]
    host_effect = host_sims[0] / host_sims[-1]
    device_effect = max(device_sims) / min(device_sims)
    assert host_effect > 1.5 * device_effect
    # Fanout axis: k-way merging removes whole disk passes at fixed m_h.
    fanout_passes = [measurements[("fanout", k)][0].disk_passes
                     for k in fanout_grid]
    assert fanout_passes == sorted(fanout_passes, reverse=True)
    assert fanout_passes[-1] < fanout_passes[0]
    assert measurements[("fanout", 8)][1] < measurements[("fanout", 2)][1]
