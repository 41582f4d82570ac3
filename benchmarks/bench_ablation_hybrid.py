"""Ablation D1 — the two-level (hybrid) sort vs direct disk↔device sorting.

Removing the host buffer tier means initial runs are device-block-sized
(``m_h = m_d``): the run count explodes and with it the merge rounds and
disk passes — the paper's claimed ``log(m_h/m_d)`` pass saving (§III.B),
"typically about 3–4 times".
"""

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.extmem import RunWriter
from repro.extmem.records import make_records
from repro.units import format_duration, format_size

from _common import block_sorter, dataset, emit


def _sort(tmp_path, records, m_h, m_d, tag):
    ctx, sorter = block_sorter(tmp_path, records.dtype, m_h, m_d,
                               host_bytes=max(1 << 22, m_h * 60),
                               device_bytes=max(1 << 20, m_d * 60))
    accountant = ctx.accountant
    in_path = tmp_path / f"in_{tag}.run"
    with RunWriter(in_path, records.dtype) as writer:
        writer.append(records)
    before = accountant.total_bytes
    report = sorter.sort_file(in_path, tmp_path / f"out_{tag}.run")
    return report, accountant.total_bytes - before, ctx.clock.total_seconds


@pytest.mark.benchmark(group="ablation")
def test_ablation_hybrid_memory_sort(benchmark, tmp_path):
    materialized = dataset("H.Genome")
    n = 2 * materialized.n_reads
    rng = np.random.default_rng(7)
    records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                           np.arange(n, dtype=np.uint32))
    m_d = n // 32

    def run_both():
        hybrid = _sort(tmp_path, records, n, m_d, "hybrid")
        direct = _sort(tmp_path, records, m_d, m_d, "direct")
        return hybrid, direct

    (hybrid, direct) = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = ComparisonTable(
        "Ablation D1 - hybrid (disk->host->device) vs direct (disk->device) sort",
        ["variant", "m_h", "disk passes", "disk bytes", "sim time"],
    )
    for label, (report, disk_bytes, sim), m_h in (
            ("hybrid two-level", hybrid, n),
            ("no host tier", direct, m_d)):
        table.add_row(label, f"{m_h:,}", report.disk_passes,
                      format_size(disk_bytes), format_duration(sim))
    saving = direct[0].disk_passes / hybrid[0].disk_passes
    table.add_note(f"disk-pass saving {saving:.1f}x "
                   "(paper: 'typically about 3-4 times')")
    emit("ablation_hybrid", table)

    assert direct[0].disk_passes >= 3 * hybrid[0].disk_passes
    assert direct[1] > 2 * hybrid[1]   # disk traffic
    assert direct[2] > hybrid[2]       # modeled time
