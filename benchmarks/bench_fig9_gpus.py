"""Fig. 9 — sorting time across GPUs (K40/P40/P100/V100) vs host block-size.

Measured: the scaled partition sort re-run under each GPU's spec (the
virtual device charges bandwidth-dependent kernel/PCIe time), at a large
and a small host block. Model: the paper-scale curve per GPU.

Reproduction targets: V100 < P100 < P40 < K40 in time (P100 beats P40
despite fewer cores — bandwidth), and the GPUs converge as the host block
shrinks and sorting turns I/O-bound.
"""

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.extmem import RunWriter
from repro.extmem.records import make_records
from repro.model.paper_values import FIG9_GPU_ORDER_FAST_TO_SLOW
from repro.model.sorting import model_partition_sort_seconds
from repro.units import format_duration

from _common import block_sorter, dataset, emit

GPUS = ("K40", "P40", "P100", "V100")


def _sort_with_gpu(tmp_path, records, gpu_name: str, m_h: int, m_d: int) -> float:
    ctx, sorter = block_sorter(tmp_path, records.dtype, m_h, m_d,
                               host_bytes=max(1 << 22, m_h * 60),
                               device_bytes=max(1 << 20, m_d * 60),
                               device_name=gpu_name)
    in_path = tmp_path / f"in_{gpu_name}_{m_h}.run"
    with RunWriter(in_path, records.dtype) as writer:
        writer.append(records)
    sorter.sort_file(in_path, tmp_path / f"out_{gpu_name}_{m_h}.run")
    return ctx.clock.total_seconds


@pytest.mark.benchmark(group="fig9")
def test_fig9_gpu_sweep(benchmark, tmp_path):
    materialized = dataset("H.Genome")
    n = 2 * materialized.n_reads
    rng = np.random.default_rng(99)
    records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                           np.arange(n, dtype=np.uint32),
                           aux=rng.integers(0, 2**62, n, dtype=np.uint64))
    big_block, small_block = 2 * n, n // 8

    def sweep():
        return {(gpu, m_h): _sort_with_gpu(tmp_path, records, gpu, m_h, n // 16)
                for gpu in GPUS for m_h in (big_block, small_block)}

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = ComparisonTable(
        "Fig. 9 - per-partition sort time by GPU and host block-size",
        ["GPU", "model large m_h", "model small m_h",
         "measured(sim) large m_h", "measured(sim) small m_h"],
    )
    for gpu in GPUS:
        table.add_row(
            gpu,
            format_duration(model_partition_sort_seconds(2_560_000_000,
                                                         20_000_000, gpu)),
            format_duration(model_partition_sort_seconds(160_000_000,
                                                         20_000_000, gpu)),
            format_duration(measured[(gpu, big_block)]),
            format_duration(measured[(gpu, small_block)]),
        )
    table.add_note("expected ordering fast-to-slow: "
                   + " < ".join(FIG9_GPU_ORDER_FAST_TO_SLOW))

    from repro.analysis import AsciiChart
    host_blocks = (40_000_000, 160_000_000, 640_000_000, 2_560_000_000)
    chart = AsciiChart("Fig. 9 (model) - partition sort seconds vs host "
                       "block-size, fixed m_d = 20 M",
                       [f"{b // 10**6}M" for b in host_blocks], y_log=True)
    for gpu in GPUS:
        chart.add_series(gpu, [model_partition_sort_seconds(b, 20_000_000, gpu)
                               for b in host_blocks])
    emit("fig9", table, chart)

    # Ordering at the large block: bandwidth ranking, incl. P100 > P40.
    big = {gpu: measured[(gpu, big_block)] for gpu in GPUS}
    assert tuple(sorted(big, key=big.get)) == FIG9_GPU_ORDER_FAST_TO_SLOW
    assert big["P100"] < big["P40"]
    # Convergence: relative GPU spread shrinks in the I/O-bound regime.
    small = {gpu: measured[(gpu, small_block)] for gpu in GPUS}

    def spread(times):
        return (max(times.values()) - min(times.values())) / min(times.values())

    assert spread(small) < spread(big)
