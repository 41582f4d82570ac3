"""Ablation D2 — block-per-read scan fingerprinting vs thread-per-read loops.

The paper reports that assigning one GPU *thread* per read throttles on
memory and wastes shared memory, motivating the Hillis–Steele block-per-read
scan (§III.A). The Python analog of the same contrast: the batched scan
kernel (one vectorized op per log-step, the whole batch in flight) against a
per-read scalar Horner loop. The measured throughput gap is the reason the
map phase is feasible at all in this reproduction.

The scan of Figs. 5–6 keys every position of both sides and the map phase
then discards everything shorter than ``l_min``. The kernel the map phase
runs (``FingerprintScheme.key_matrices``) is told the kept lengths and keys
only those; the second table times it against the all-columns reference at
the two block sizes of the perf harness (55 reads per host block out of
core, 691 in core) and checks the kept rows are bit-equal.
"""

import time

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.fingerprint import (FingerprintScheme, prefix_fingerprints_batch,
                               suffix_fingerprints_batch)
from repro.fingerprint.rabin_karp import HashSpec, naive_prefix_fingerprints_scalar
from repro.fingerprint.scan import ScanWorkspace
from repro.fingerprint.scheme import pack_pair

from _common import emit


def _best_seconds(call, repeats: int) -> float:
    """Best of five timings of ``repeats`` back-to-back calls, per call."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            call()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def _all_columns_keys(scheme, codes):
    """Both key sides of every position from the reference scans (Figs. 5-6)."""
    prefix_keys, suffix_keys = [], []
    for lane in range(scheme.lanes):
        spec_hi, spec_lo = scheme.hash_specs[2 * lane:2 * lane + 2]
        prefix_hi = prefix_fingerprints_batch(codes, spec_hi)
        prefix_lo = prefix_fingerprints_batch(codes, spec_lo)
        prefix_keys.append(pack_pair(prefix_hi, prefix_lo))
        suffix_keys.append(pack_pair(suffix_fingerprints_batch(codes, spec_hi),
                                     suffix_fingerprints_batch(codes, spec_lo)))
    return prefix_keys, suffix_keys


def _kernel_table(rng) -> ComparisonTable:
    """The kernel that runs against the all-columns reference scan."""
    read_length, l_min = 100, 63
    lengths = np.arange(l_min, read_length)
    scheme = FingerprintScheme(lanes=2)
    workspace = ScanWorkspace()
    table = ComparisonTable(
        "Ablation D2 - the kernel the map phase runs (us per oriented read; "
        "both key sides, two lanes, l_min = 63 of 100)",
        ["rows per call", "all-columns scan", "kept lengths, tiled", "speedup"],
    )
    for rows in (55, 691):
        codes = rng.integers(0, 4, (rows, read_length), dtype=np.uint8)
        out = [np.empty((2, lengths.shape[0], rows), dtype=np.uint64)
               for _ in range(scheme.lanes)]
        repeats = max(3, 4000 // rows)
        reference_s = _best_seconds(lambda: _all_columns_keys(scheme, codes),
                                    repeats)
        kernel_s = _best_seconds(
            lambda: scheme.key_matrices(codes, lengths, workspace, out=out),
            repeats)
        prefix_keys, suffix_keys = _all_columns_keys(scheme, codes)
        for lane in range(scheme.lanes):
            assert np.array_equal(out[lane][0], prefix_keys[lane][:, lengths - 1].T)
            assert np.array_equal(out[lane][1],
                                  suffix_keys[lane][:, read_length - lengths].T)
        table.add_row(str(rows), f"{reference_s / rows * 1e6:.1f}",
                      f"{kernel_s / rows * 1e6:.1f}",
                      f"{reference_s / kernel_s:.1f}x")
        assert reference_s > 1.5 * kernel_s, (rows, reference_s, kernel_s)
    table.add_note("bit-equal on every kept row; the virtual GPU is charged "
                   "a seeded scan of each side's kept window")
    return table


@pytest.mark.benchmark(group="ablation")
def test_ablation_scan_vs_per_read(benchmark):
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 4, (4000, 100), dtype=np.uint8)
    spec = HashSpec.lane(0)

    scan_out = benchmark.pedantic(
        lambda: prefix_fingerprints_batch(codes, spec), rounds=3, iterations=1)

    scan_seconds = _best_seconds(
        lambda: prefix_fingerprints_batch(codes, spec), 1)

    start = time.perf_counter()
    loop_rows = 200  # a subsample; the full loop would take minutes
    for row in codes[:loop_rows]:
        naive_prefix_fingerprints_scalar(row, spec)
    loop_seconds = (time.perf_counter() - start) * (codes.shape[0] / loop_rows)

    # Correctness of the fast path against the slow path.
    assert np.array_equal(scan_out[17],
                          naive_prefix_fingerprints_scalar(codes[17], spec))

    bases = codes.size
    table = ComparisonTable(
        "Ablation D2 - fingerprint generation strategy (400k bases)",
        ["strategy", "time", "throughput"],
    )
    table.add_row("block-per-read scan (Figs. 5-6)", f"{scan_seconds * 1e3:.1f} ms",
                  f"{bases / scan_seconds / 1e6:.0f} Mbases/s")
    table.add_row("thread-per-read loop", f"{loop_seconds * 1e3:.0f} ms (extrap.)",
                  f"{bases / loop_seconds / 1e6:.2f} Mbases/s")
    table.add_note(f"speedup {loop_seconds / scan_seconds:.0f}x; the paper "
                   "reports the same directional win from the scan formulation")
    emit("ablation_scan", table, _kernel_table(rng))

    assert loop_seconds > 5 * scan_seconds
