"""Ablation D6 — merge fanout: pairwise Algorithm 1 vs fanout-k merging.

The paper's level-1 merge folds runs pairwise, so sorting ``R`` initial
runs costs ``1 + ⌈log₂ R⌉`` disk passes. Generalizing Algorithm 1 to a
k-way window-equalized merge (as in the external-memory string-graph
constructions of Bonizzoni et al. and Guidi et al.) cuts that to
``1 + ⌈log_k R⌉`` — each round's windows shrink by ``k/2``, but windows
are cheap and disk passes are the dominant cost.

The dataset is synthetic and *larger than the host pool* (the records do
not fit in host memory), so every merge round is a real disk round trip.
``REPRO_KWAY_RECORDS`` overrides the record count (CI quick mode uses a
small value).
"""

import os

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.extmem import RunReader, RunWriter
from repro.extmem.records import make_records
from repro.model.sorting import model_partition_sort_seconds, predicted_sort_passes
from repro.units import format_duration, format_size

from _common import block_sorter, emit

#: Default synthetic partition size; override with REPRO_KWAY_RECORDS.
DEFAULT_RECORDS = 192_000
FANOUTS = (2, 4, 8, 16)


def _sort(tmp_path, records, m_h, m_d, fanout):
    record_nbytes = records.dtype.itemsize
    # Host pool sized to one m_h block: the dataset itself cannot fit.
    ctx, sorter = block_sorter(tmp_path, records.dtype, m_h, m_d,
                               host_bytes=max(1 << 16, m_h * record_nbytes),
                               device_bytes=max(1 << 16, m_d * record_nbytes * 2),
                               fanout=fanout)
    accountant = ctx.accountant
    assert records.nbytes > ctx.host_pool.capacity_bytes, \
        "dataset must exceed host pool"
    in_path = tmp_path / f"in_k{fanout}.run"
    with RunWriter(in_path, records.dtype) as writer:
        writer.append(records)
    before = accountant.total_bytes
    report = sorter.sort_file(in_path, tmp_path / f"out_k{fanout}.run")
    with RunReader(tmp_path / f"out_k{fanout}.run", records.dtype) as reader:
        out_keys = reader.read_all()["key"]
    assert np.array_equal(out_keys, np.sort(records["key"]))
    return report, accountant.total_bytes - before, ctx.clock.total_seconds


@pytest.mark.benchmark(group="ablation")
def test_ablation_kway_merge_fanout(benchmark, tmp_path):
    n = int(os.environ.get("REPRO_KWAY_RECORDS", DEFAULT_RECORDS))
    rng = np.random.default_rng(29)
    records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                           np.arange(n, dtype=np.uint32))
    m_h = n // 8       # host blocks of m_h/2 records -> 16 initial runs
    m_d = max(64, m_h // 8)

    def sweep():
        return {fanout: _sort(tmp_path, records, m_h, m_d, fanout)
                for fanout in FANOUTS}

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = ComparisonTable(
        "Ablation D6 - merge fanout k (1 + ceil(log_k R) disk passes)",
        ["fanout k", "initial runs", "merge rounds", "disk passes",
         "passes (model)", "disk bytes", "sim time"],
    )
    for fanout in FANOUTS:
        report, disk_bytes, sim = measured[fanout]
        table.add_row(fanout, report.initial_runs, report.merge_rounds,
                      report.disk_passes,
                      predicted_sort_passes(n, m_h, merge_fanout=fanout),
                      format_size(disk_bytes), format_duration(sim))
    paper2 = model_partition_sort_seconds(640_000_000, 20_000_000)
    paper4 = model_partition_sort_seconds(640_000_000, 20_000_000,
                                          merge_fanout=4)
    table.add_note(f"records: {n:,} ({format_size(records.nbytes)}), "
                   f"host pool holds m_h = {m_h:,} records only")
    table.add_note(f"model @ paper scale (m_h=640M): k=2 "
                   f"{format_duration(paper2)} -> k=4 {format_duration(paper4)}")
    emit("ablation_kway", table)

    report2, bytes2, sim2 = measured[2]
    report4, bytes4, sim4 = measured[4]
    assert report2.initial_runs >= 8
    # The measured pass counts match the analytic model for every fanout...
    for fanout in FANOUTS:
        assert measured[fanout][0].disk_passes \
            == predicted_sort_passes(n, m_h, merge_fanout=fanout)
    # ...and k=4 beats pairwise on passes, disk traffic, and modeled time.
    assert report4.disk_passes < report2.disk_passes
    assert bytes4 < bytes2
    assert sim4 < sim2
