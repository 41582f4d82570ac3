"""Map phase: fingerprint generation and length partitioning (§III.A).

Batches of reads stream host→device; for each read *and its reverse
complement* the fingerprints of every prefix and suffix are produced by the
Hillis–Steele scan kernels of Figs. 5–6 (one virtual kernel launch per hash
lane per direction per orientation). Each ``(length, fingerprint, vertex)``
tuple is then routed to the per-length partition files:

* lengths below ``l_min`` are discarded (too short to be an overlap),
* suffix tuples go to the ``S`` partition of their length, prefixes to the
  ``P`` partition,
* the whole-read length ``l_max = L`` is no overlap; its prefix tuples (a
  whole read's suffix is its prefix, so ``S_L`` would equal ``P_L``) go to
  the one partition ``P_L``, where reduce finds the duplicate reads
  (:func:`~repro.core.reduce_phase.close_duplicates`).

The paper materializes the tuples on the GPU, sorts them by length, and
writes one file per partition. The virtual GPU is charged the paper's
full scan launches and the fan-out; the host evaluates the same mapping
without the discarded tuples and without the intermediate sort:
:mod:`repro.fingerprint.scan`'s kernel is told the partition lengths and
keys only those, length-major, so row ``j`` of its output *is* the block's
contribution to partition ``lengths[j]`` and lands in the staged record
block as it is computed. The partition files are byte-identical to the
all-positions scan's.

Given the greedy graph's out-degree bit-vector (``closed``), the map
writes only the records whose claim is still open: the ``S`` record of a
vertex ``u`` needs ``u`` open, the ``P`` record of ``v`` needs ``v ^ 1``
open (the rule of :func:`repro.core.sort_phase._open_claims`, moved
upstream). Each host block is compacted to its oriented reads with an open
claim, and each of those is keyed on the side it still needs only. A
partition file is then the unfiltered one minus the closed records, in the
same order.

The phase works at the two levels of the paper's hierarchy. The *modeled*
unit is the device batch (``map_batch_reads``, or as many reads as the
device budget holds): kernel charges, disk metering and
``MapReport.n_batches`` are all per device batch. The unit that numpy, the
partition writers, the pools and the trace (one ``map:block`` span) see is
the *host block* of :func:`_stage_batches` consecutive device batches,
read, fingerprinted and appended in one go, so a small device budget does
not turn into one interpreter round trip per five reads. A partition file
holds, per device batch, the forward-strand records then the
reverse-complement records; :func:`_oriented` lays a block's reads out in
exactly that order, so the files do not depend on the block size.

There is one schedule: :func:`run_map` is a plain loop that reads a block,
fingerprints it and appends it before it reads the next.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from ..device import costs
from ..errors import ConfigError
from ..extmem import PartitionStore
from ..extmem.partitions import partition_sides
from ..extmem.records import AUX_FIELD, KEY_FIELD, VAL_FIELD, kv_dtype
from ..fingerprint import FingerprintScheme
from ..fingerprint.scan import ScanWorkspace
from ..graph.bitvector import PackedBitVector
from ..seq.alphabet import reverse_complement
from ..seq.packing import PackedReadStore, unpack_codes
from .context import RunContext

#: Reads a host block is filled up to (whole device batches, host budget
#: permitting). Per-call interpreter overhead is amortized well below this.
STAGE_READS = 256


def per_read_device_bytes(read_length: int, lanes: int) -> int:
    """Device working set of one read in the map phase, in bytes.

    Per read and orientation the device holds the code row plus, per hash
    lane, two ``uint64`` fingerprint rows and the packed key row (prefix
    and suffix each): ``L · (1 + 8·6·lanes)`` bytes, times 2 orientations.
    Single source of truth for both the auto batch sizing and the per-batch
    scratch reservation.
    """
    return 2 * read_length * (1 + 8 * 6 * lanes)


def _auto_batch_reads(ctx: RunContext, read_length: int) -> int:
    """Largest batch whose device working set fits the device budget."""
    per_read = per_read_device_bytes(read_length, ctx.config.fingerprint_lanes)
    budget = int(ctx.config.memory.device_bytes * ctx.config.memory.buffer_fraction)
    return max(1, budget // per_read)


def _stage_batches(ctx: RunContext, batch_reads: int, per_read: int,
                   resident_bytes: int = 0) -> int:
    """Device batches per host block.

    Enough to reach :data:`STAGE_READS`, as far as the host budget holds
    the block's staged records (``per_read`` bytes a read); a device batch
    that is already that large is its own block. ``resident_bytes`` is
    host memory something else holds meanwhile (the string graph): the
    block is cut from what it leaves, as the sorter's is.
    """
    memory = ctx.config.memory
    host_budget = int((memory.host_bytes - resident_bytes) * memory.buffer_fraction)
    return max(1, min(-(-STAGE_READS // batch_reads),
                      host_budget // max(1, batch_reads * per_read)))


def overlap_lengths(ctx: RunContext, read_length: int) -> tuple[int, ...]:
    """The lengths an edge can have: ``[l_min, l_max)``."""
    l_min = ctx.config.min_overlap
    if l_min >= read_length:
        raise ConfigError(
            f"min_overlap {l_min} must be smaller than the read length {read_length}")
    return tuple(range(l_min, read_length))


def partition_lengths(ctx: RunContext, read_length: int) -> tuple[int, ...]:
    """The lengths the map writes: every overlap length, then the
    whole-read length (its ``P`` side only)."""
    return (*overlap_lengths(ctx, read_length), read_length)


@dataclass(frozen=True)
class MapReport:
    """What the map phase produced."""

    n_reads: int
    n_batches: int
    tuples_written: int
    lengths: tuple[int, ...]

    def to_json(self) -> dict:
        """The report's JSON form (ledger state and cache meta alike)."""
        return {**asdict(self), "lengths": list(self.lengths)}

    @classmethod
    def from_json(cls, saved: dict) -> MapReport:
        """Inverse of :meth:`to_json`."""
        return cls(**{**saved, "lengths": tuple(saved["lengths"])})


def _batch_reads(ctx: RunContext, read_length: int) -> int:
    return ctx.config.map_batch_reads or _auto_batch_reads(ctx, read_length)


def band_report(ctx: RunContext, store: PackedReadStore, lengths,
                closed: PackedBitVector | None = None) -> MapReport:
    """What ``run_map(ctx, store, only_lengths=lengths, closed=closed)``
    reports, without mapping.

    An open vertex ``w`` has one ``S`` record (its own claim) and is the
    ``w ^ 1`` of one ``P`` record, at every length (the whole-read length
    has the ``P`` record only); nothing is closed without ``closed``. A
    resumed run reports the lengths it finds sorted with this, as the sort
    reports a sorted run it finds
    (:meth:`~repro.extmem.ExternalSorter.report_for`).
    """
    n_reads, read_length = store.n_reads, store.read_length
    sides = sum(len(partition_sides(length, read_length)) for length in lengths)
    return MapReport(n_reads, -(-n_reads // _batch_reads(ctx, read_length)),
                     open_vertices(store, closed) * sides,
                     overlap_lengths(ctx, read_length))


def open_vertices(store: PackedReadStore,
                  closed: PackedBitVector | None = None) -> int:
    """Oriented reads ``closed`` leaves open: the records of each side of
    every length a map with ``closed`` writes."""
    return 2 * store.n_reads - (0 if closed is None else closed.count())


def _place(dst: np.ndarray, orientation: int, src: np.ndarray,
           batch_reads: int) -> None:
    """Write one orientation's ``(..., n)`` values into ``dst``'s ``(..., 2n)``.

    ``dst`` is in partition-file order: per device batch of ``batch_reads``
    reads (the last one of a store may be shorter), the forward values then
    the reverse-complement values.
    """
    n = src.shape[-1]
    whole = n // batch_reads
    full = whole * batch_reads
    lead = src.shape[:-1]
    # Splitting the last axis never copies: the reshape is a view of ``dst``.
    dst[..., :2 * full].reshape(*lead, whole, 2, batch_reads)[
        ..., orientation, :] = src[..., :full].reshape(*lead, whole, batch_reads)
    ragged = n - full
    lo = 2 * full + orientation * ragged
    dst[..., lo:lo + ragged] = src[..., full:]


#: Per-thread scan scratch: the service runs pipelines on its batch threads
#: (``max_parallel``), and a workspace's buffers alias across calls.
_SCAN_TLS = threading.local()


def _scan_workspace() -> ScanWorkspace:
    workspace = getattr(_SCAN_TLS, "workspace", None)
    if workspace is None:
        workspace = _SCAN_TLS.workspace = ScanWorkspace()
    return workspace


def _oriented(packed: np.ndarray, first_read: int, read_length: int,
              batch_reads: int) -> tuple[np.ndarray, np.ndarray]:
    """A host block's oriented reads and their vertex ids, in file order.

    ``packed`` holds the block's 2-bit-packed reads, ``first_read`` is the
    id of the first. Returns ``(codes, vertices)``: ``(2·n, L)`` codes and
    ``2·n`` vertex ids, per device batch the forward reads then their
    reverse complements (see :func:`_place`).
    """
    forward_codes = unpack_codes(packed, read_length)
    n = forward_codes.shape[0]
    forward = np.arange(first_read, first_read + n, dtype=np.uint32) << np.uint32(1)
    codes = np.empty((2 * n, read_length), dtype=np.uint8)
    vertices = np.empty(2 * n, dtype=np.uint32)
    for orientation, oriented in enumerate(
            (forward_codes, reverse_complement(forward_codes))):
        _place(codes.T, orientation, oriented.T, batch_reads)
        _place(vertices, orientation, forward | np.uint32(orientation), batch_reads)
    return codes, vertices


def _key_fields(records: np.ndarray, lanes: int) -> list[np.ndarray]:
    return [records[field] for field in (KEY_FIELD, AUX_FIELD)[:lanes]]


def _fingerprint_block(packed: np.ndarray, first_read: int, read_length: int,
                       batch_reads: int, scheme: FingerprintScheme,
                       lengths: tuple[int, ...], out: np.ndarray,
                       whole: np.ndarray | None = None) -> None:
    """Pure-numpy fingerprint kernel for one host block, both orientations.

    Fills ``out``, a ``(2, len(lengths), 2·n)`` record array:
    ``out[0][j]`` / ``out[1][j]`` are the records the block contributes to
    the ``P`` / ``S`` partition of ``lengths[j]``, in file order — same
    values and field layout as one record assembly per device batch,
    orientation and length. ``whole``, a ``(1, 1, 2·n)`` record array,
    receives the block's ``P_L`` records (the whole reads). The oriented
    reads and their vertex ids are laid out in file order first
    (:func:`_oriented`), so each ``key_matrices`` call writes every key
    straight into its record.
    """
    codes, vertices = _oriented(packed, first_read, read_length, batch_reads)
    if lengths:
        scheme.key_matrices(codes, lengths, _scan_workspace(),
                            out=_key_fields(out, scheme.lanes))
        out[VAL_FIELD] = vertices
    if whole is not None:
        scheme.key_matrices(codes, (read_length,), _scan_workspace(),
                            out=_key_fields(whole, scheme.lanes), sides="P")
        whole[VAL_FIELD] = vertices


def _fingerprint_open(packed: np.ndarray, first_read: int, read_length: int,
                      batch_reads: int, scheme: FingerprintScheme,
                      lengths: tuple[int, ...], closed: PackedBitVector,
                      dtype: np.dtype) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`_fingerprint_block` minus the records ``closed`` refuses.

    Returns ``(records, open_masks)``, each ``[P, S]``: ``records[i]`` is
    a ``(k_lengths, k)`` record array, the block's open claims of that
    side in file order, one row per length of ``lengths`` that has the
    side (the whole-read length has ``P`` only); ``open_masks[i]`` marks
    them among the block's ``2·n`` oriented reads. Each side keys only its
    own rows.
    """
    codes, vertices = _oriented(packed, first_read, read_length, batch_reads)
    records, masks = [], []
    for side, claimants in (("P", vertices ^ np.uint32(1)), ("S", vertices)):
        mask = ~closed.get(claimants)
        rows = np.flatnonzero(mask)
        keyed = tuple(length for length in lengths
                      if side in partition_sides(length, read_length))
        staged = np.empty((1, len(keyed), rows.size), dtype=dtype)
        if keyed:
            scheme.key_matrices(codes[rows], keyed, _scan_workspace(),
                                out=_key_fields(staged, scheme.lanes),
                                sides=side)
            staged[VAL_FIELD] = vertices[rows]
        records.append(staged[0])
        masks.append(mask)
    return records, masks


def run_map(ctx: RunContext, store: PackedReadStore,
            partitions: PartitionStore | None = None, *,
            read_range: tuple[int, int] | None = None,
            only_lengths: frozenset[int] | set[int] | None = None,
            closed: PackedBitVector | None = None,
            resident_bytes: int = 0,
            ) -> tuple[PartitionStore, MapReport]:
    """Fingerprint reads and write the S/P length partitions.

    ``read_range`` restricts the phase to reads ``[start, stop)`` — the unit
    of work the distributed master hands to a node; by default the whole
    store is mapped. An existing ``partitions`` store may be passed so a
    node can accumulate several blocks before finalizing (the caller then
    owns ``finalize()``); otherwise one is created and finalized here.
    By default every overlap length and the whole-read length's ``P_L``
    are written (:func:`partition_lengths`).
    ``only_lengths`` keeps the fingerprinting and the appends to the given
    partition lengths, each file byte for byte what a full pass writes —
    how a survivor adopts a lost node's pieces for the lengths the token
    has still to reduce, in one pass over its blocks (the modeled scan
    launches are charged whole either way).

    ``closed`` is the out-degree bit-vector of the graph built so far:
    records whose claim it has taken are neither fingerprinted nor
    written, and the scan launches are charged for the oriented reads that
    are, plus one compaction pass per device batch. ``resident_bytes`` is
    host memory the graph holds meanwhile (:func:`_stage_batches`).
    """
    read_length = store.read_length
    lengths = overlap_lengths(ctx, read_length)
    batch_reads = _batch_reads(ctx, read_length)

    dtype = kv_dtype(ctx.config.fingerprint_lanes)
    caller_owns_store = partitions is not None
    if partitions is None:
        partitions = PartitionStore(ctx.workdir / "partitions", dtype, ctx.accountant)
    lanes = ctx.config.fingerprint_lanes
    per_read = per_read_device_bytes(read_length, lanes)
    n_batches = 0
    tuples_written = 0
    start, stop = read_range if read_range is not None else (0, store.n_reads)
    kept = tuple(length for length in partition_lengths(ctx, read_length)
                 if only_lengths is None or length in only_lengths)
    # The kept lengths with both sides, and whether P_L is kept.
    pairs = tuple(length for length in kept if length < read_length)
    whole = len(kept) - len(pairs)
    p_lengths = len(pairs) + whole
    # What the host holds of a read: its P and S records, both orientations,
    # at every kept length (``staged`` below).
    per_read_host = 2 * (p_lengths + len(pairs)) * dtype.itemsize
    block_reads = batch_reads * _stage_batches(ctx, batch_reads, per_read_host,
                                               resident_bytes)

    tracer = ctx.tracer
    spec = ctx.gpu.spec
    batch_charges: dict[tuple[int, ...], list[float]] = {}

    # The prefix direction's scans, and the suffix direction's unless the
    # band is the whole-read length alone.
    scans = 2 * lanes * (2 if pairs else 1)

    def orientation(rows: int, records: tuple[int, int]) -> list[float]:
        """One orientation's launches: one scan per hash per direction over
        its ``rows`` keyed reads (Figs. 5-6), then the fan-out of its
        ``records`` (P, S) at every kept length with that side."""
        prefixes, suffixes = records
        fanned = prefixes * p_lengths + suffixes * len(pairs)
        return [*[costs.scan_seconds(spec, rows, read_length)] * scans,
                costs.elementwise_seconds(spec, fanned * dtype.itemsize)]

    def kernel_charges(n: int, forward_rows: int, forward_records: tuple,
                       reverse_rows: int, reverse_records: tuple) -> list[float]:
        """The kernel launches of one device batch of ``n`` reads, in order.

        The second orientation starts with the reverse-complement pass; a
        compacted batch ends with the pass that compacted it. Built once
        per distinct batch shape.
        """
        key = (n, forward_rows, forward_records, reverse_rows, reverse_records)
        charges = batch_charges.get(key)
        if charges is None:
            charges = batch_charges[key] = [
                *orientation(forward_rows, forward_records),
                costs.elementwise_seconds(spec, n * read_length * 2),
                *orientation(reverse_rows, reverse_records)]
            if closed is not None:
                charges.append(costs.elementwise_seconds(spec, 2 * n * read_length))
        return charges

    try:
        for block_start in range(start, stop, block_reads):
            block_stop = min(block_start + block_reads, stop)
            block_n = block_stop - block_start
            # One sequential read per host block, metered per device batch:
            # the modeled disk sees the same ops whatever the block size.
            packed = store.read_packed_slice(block_start, block_stop,
                                             meter_reads=batch_reads)
            batches = [(lo, min(batch_reads, block_n - lo))
                       for lo in range(0, block_n, batch_reads)]
            # Per device batch, forward then reverse complement: the
            # oriented reads keyed and their (P, S) records.
            if closed is None:
                staged = np.empty((2, len(pairs), 2 * block_n), dtype=dtype)
                whole_staged = np.empty((1, whole, 2 * block_n), dtype=dtype)
                _fingerprint_block(packed, block_start, read_length,
                                   batch_reads, ctx.scheme, pairs, staged,
                                   whole_staged if whole else None)
                prefix = [*staged[0], *whole_staged[0]]
                suffix = list(staged[1])
                keyed = [n for _, n in batches for _ in range(2)]
                rows = [(n, n) for n in keyed]
                staged_bytes = staged.nbytes + whole_staged.nbytes
            else:
                (prefix, suffix), (p_open, s_open) = _fingerprint_open(
                    packed, block_start, read_length, batch_reads, ctx.scheme,
                    kept, closed, dtype)
                starts = [2 * lo + offset for lo, n in batches
                          for offset in (0, n)]
                keyed = np.add.reduceat(p_open | s_open, starts).tolist()
                rows = list(zip(np.add.reduceat(p_open, starts).tolist(),
                                np.add.reduceat(s_open, starts).tolist()))
                staged_bytes = prefix.nbytes + suffix.nbytes
            charges = []
            for i, (_, n) in enumerate(batches):
                charges += kernel_charges(n, keyed[2 * i], rows[2 * i],
                                          keyed[2 * i + 1], rows[2 * i + 1])
            n_batches += len(batches)
            # One (length, P records, S records or None) entry per kept length.
            appended = [(length, prefix[j],
                         suffix[j] if length < read_length else None)
                        for j, length in enumerate(kept)]
            # One span per host block (a span per device batch costs more
            # than the batch at small device budgets). det=False keeps the
            # per-block spans out of the sim export (its size).
            with tracer.span("map:block", track="pipeline",
                             first_batch=n_batches - len(batches) + 1,
                             reads=block_n), \
                    ctx.host_pool.alloc(staged_bytes, label="map-host-buffers"), \
                    ctx.gpu.scratch(max(n for _, n in batches) * per_read,
                                    label="map-batch"):
                # The charges are per device batch and in batch order, so
                # the clock's float does not depend on the block size.
                ctx.gpu.charge_kernels(charges)
                partitions.append_pairs(appended, rows)
                tuples_written += sum(
                    p.shape[0] + (0 if s is None else s.shape[0])
                    for _, p, s in appended)
    finally:
        # Even on an injected crash the writers must close: the fault sweep
        # resumes the pipeline in-process, and a stale _OPEN_PATHS entry
        # would wrongly reject the recovery run's writers.
        if not caller_owns_store:
            partitions.finalize()
    return partitions, MapReport(stop - start, n_batches, tuples_written, lengths)
