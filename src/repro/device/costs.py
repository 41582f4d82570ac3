"""Analytic cost model for kernels, transfers and disk I/O.

One set of formulas is shared by two consumers:

* :class:`repro.device.gpu.VirtualGPU` charges these costs to its
  :class:`~repro.device.clock.SimClock` as the pipeline actually executes on
  scaled data, and
* :mod:`repro.model` evaluates the same formulas symbolically at paper scale
  (Table I sizes) to regenerate the paper's tables and figures.

The model is deliberately simple and bandwidth-centric:

* **Radix sort** (Merrill & Grimshaw, the paper's Thrust backend): one pass
  per key byte, each pass streaming every record ~:data:`RADIX_PASS_ACCESSES`
  times through device memory.
* **Merge**: both inputs read, output written, plus one extra pass of
  overhead for path determination.
* **Vectorized binary search**: ``log2(n)`` dependent probes per query, each
  costing a cache-line-sized transaction.
* **Scan** (Hillis–Steele, seeded): a tree reduction up to the window's
  first position, then ``log2(k)`` passes over the window's ``k``
  positions (the whole row when the window starts at 1); below held
  fingerprints, the window's passes and one elementwise pass, no fold.
* **Transfers**: bytes over the PCIe link; **disk**: bytes over the disk
  bandwidth plus, on reads, a seek per sequential stream switch.

A single fudge constant per formula is calibrated in
``tests/test_model_calibration.py`` against the paper's published end-to-end
numbers (e.g. H.Genome sort on K40 ≈ 11 h).
"""

from __future__ import annotations

import math

from .specs import DeviceSpec, DiskSpec, HostSpec

#: Streaming accesses per record per radix-sort pass (read + write + histogram).
RADIX_PASS_ACCESSES = 3.0

#: Effective fraction of peak memory bandwidth real kernels achieve.
BANDWIDTH_EFFICIENCY = 0.55

#: Bytes moved per random-access probe (one 32-byte memory transaction).
PROBE_BYTES = 32.0

#: Extra streamed passes a merge spends beyond reading inputs/writing output.
MERGE_OVERHEAD_PASSES = 1.0

#: Host-side software efficiency relative to raw memory bandwidth.
HOST_EFFICIENCY = 0.35

#: Bytes of one scan element (a ``uint64`` rolling-hash lane).
SCAN_ELEMENT_BYTES = 8


def _effective_bw(spec: DeviceSpec) -> float:
    return spec.mem_bandwidth * BANDWIDTH_EFFICIENCY


def sort_pairs_seconds(spec: DeviceSpec, n: int, key_nbytes: int, value_nbytes: int) -> float:
    """Device LSD radix sort of ``n`` (key, value) records."""
    if n <= 0:
        return 0.0
    passes = max(1, key_nbytes)  # one 8-bit digit per pass
    record = key_nbytes + value_nbytes
    return passes * RADIX_PASS_ACCESSES * n * record / _effective_bw(spec)


def merge_pairs_seconds(spec: DeviceSpec, n_total: int, key_nbytes: int,
                        value_nbytes: int) -> float:
    """Device merge of two sorted runs totalling ``n_total`` records."""
    if n_total <= 0:
        return 0.0
    record = key_nbytes + value_nbytes
    return (2.0 + MERGE_OVERHEAD_PASSES) * n_total * record / _effective_bw(spec)


def search_seconds(spec: DeviceSpec, n_queries: int, n_haystack: int) -> float:
    """Vectorized lower/upper bound: ``n_queries`` binary searches."""
    if n_queries <= 0 or n_haystack <= 0:
        return 0.0
    probes = max(1.0, math.log2(n_haystack + 1))
    return n_queries * probes * PROBE_BYTES / _effective_bw(spec)


def scan_seconds(spec: DeviceSpec, n_rows: int, width: int, *,
                 lo: int = 1) -> float:
    """Seeded window scan over positions ``lo..width`` of ``n_rows`` rows
    (fingerprint map).

    A tree reduction folds each row's first ``lo − 1`` elements into a
    seed (each read once and written once, halving), then the Hillis–Steele
    scan makes ``⌈log₂ k⌉`` passes over the ``k = width − lo + 1`` window
    positions. ``lo = 1`` is the whole-row scan, to the float.
    """
    if n_rows <= 0 or width <= 0:
        return 0.0
    window = width - lo + 1
    passes = max(1.0, math.ceil(math.log2(window)))
    seconds = (2.0 * passes * n_rows * window * SCAN_ELEMENT_BYTES
               / _effective_bw(spec))
    if lo > 1:
        seconds += (2.0 * n_rows * (lo - 1) * SCAN_ELEMENT_BYTES
                    / _effective_bw(spec))
    return seconds


def descent_seconds(spec: DeviceSpec, n_rows: int, window: int) -> float:
    """Descending window scan over ``window`` positions of ``n_rows`` rows
    (a fingerprint map band below held fingerprints).

    The whole-row scan of the window's ``window`` positions (no fold: the
    row's fingerprint above the window is held), then one elementwise pass
    over its sums that joins each to the held fingerprint.
    """
    return (scan_seconds(spec, n_rows, window)
            + elementwise_seconds(spec, n_rows * window * SCAN_ELEMENT_BYTES))


def elementwise_seconds(spec: DeviceSpec, nbytes_touched: int) -> float:
    """A streaming elementwise/gather kernel touching ``nbytes_touched``."""
    if nbytes_touched <= 0:
        return 0.0
    return nbytes_touched / _effective_bw(spec)


def transfer_seconds(spec: DeviceSpec, nbytes: int) -> float:
    """Host↔device copy over PCIe."""
    if nbytes <= 0:
        return 0.0
    return nbytes / spec.pcie_bandwidth


def host_work_seconds(host: HostSpec, nbytes_touched: int) -> float:
    """Host-side streaming work (graph updates, window bookkeeping)."""
    if nbytes_touched <= 0:
        return 0.0
    return nbytes_touched / (host.mem_bandwidth * HOST_EFFICIENCY)


def disk_read_seconds(disk: DiskSpec, nbytes: int, *, seeks: int = 0) -> float:
    """Sequential disk read plus optional stream-switch seeks."""
    if nbytes <= 0 and seeks <= 0:
        return 0.0
    return max(0, nbytes) / disk.read_bandwidth + seeks * disk.seek_seconds
