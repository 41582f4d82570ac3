"""Map phase: fingerprint generation and length partitioning (§III.A).

Batches of reads stream host→device; for each read *and its reverse
complement* the fingerprints of every prefix and suffix are produced by the
Hillis–Steele scan kernels of Figs. 5–6 (one virtual kernel launch per hash
lane per direction per orientation). Each ``(length, fingerprint, vertex)``
tuple is then routed to the per-length partition files:

* lengths below ``l_min`` are discarded (too short to be an overlap),
* length ``l_max`` (whole-read matches) is dropped to avoid self-loops,
* suffix tuples go to the ``S`` partition of their length, prefixes to the
  ``P`` partition.

The paper materializes the tuples on the GPU, sorts them by length, and
writes one file per partition. The virtual GPU is charged the paper's
full scan launches and the fan-out; the host evaluates the same mapping
without the discarded tuples and without the intermediate sort:
:mod:`repro.fingerprint.scan`'s kernel is told the partition lengths and
keys only those, length-major, so row ``j`` of its output *is* the block's
contribution to partition ``lengths[j]`` and lands in the staged record
block as it is computed. The partition files are byte-identical to the
all-positions scan's.

The phase works at the two levels of the paper's hierarchy. The *modeled*
unit is the device batch (``map_batch_reads``, or as many reads as the
device budget holds): scratch reservation, kernel charges, disk metering
and ``MapReport.n_batches`` are all per device batch. The unit that numpy,
the partition writers and the trace (one ``map:block`` span) see is the
*host block* of :func:`_stage_batches` consecutive device batches, read,
fingerprinted and appended in one go, so a small device budget does not
turn into one interpreter round trip per five reads. A partition file
holds, per device batch, the forward-strand records then the
reverse-complement records; :func:`_fingerprint_block` lays a block's
records out in exactly that order, so the files do not depend on the
block size.

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
from ..extmem.records import AUX_FIELD, KEY_FIELD, VAL_FIELD, kv_dtype
from ..fingerprint import FingerprintScheme
from ..fingerprint.scan import ScanWorkspace
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


def _stage_batches(ctx: RunContext, batch_reads: int, per_read: int) -> int:
    """Device batches per host block.

    Enough to reach :data:`STAGE_READS`, as far as the host budget holds
    the block's staged records (``per_read`` bytes a read); a device batch
    that is already that large is its own block.
    """
    host_budget = int(ctx.config.memory.host_bytes * ctx.config.memory.buffer_fraction)
    return max(1, min(-(-STAGE_READS // batch_reads),
                      host_budget // max(1, batch_reads * per_read)))


def overlap_lengths(ctx: RunContext, read_length: int) -> tuple[int, ...]:
    """The partition lengths ``[l_min, l_max)`` for this run."""
    l_min = ctx.config.min_overlap
    if l_min >= read_length:
        raise ConfigError(
            f"min_overlap {l_min} must be smaller than the read length {read_length}")
    return tuple(range(l_min, read_length))


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


def _fingerprint_block(packed: np.ndarray, first_read: int, read_length: int,
                       batch_reads: int, scheme: FingerprintScheme,
                       lengths: tuple[int, ...], out: np.ndarray) -> None:
    """Pure-numpy fingerprint kernel for one host block, both orientations.

    ``packed`` holds the block's 2-bit-packed reads, ``first_read`` is the
    id of the first. Fills ``out``, a ``(2, len(lengths), 2·n)`` record
    array: ``out[0][j]`` / ``out[1][j]`` are the records the block
    contributes to the ``P`` / ``S`` partition of ``lengths[j]``, in file
    order (see :func:`_place`) — same values and field layout as one record
    assembly per device batch, orientation and length. The oriented reads
    and their vertex ids are laid out in file order first, so one
    ``key_matrices`` call writes every key straight into its record.
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
    scheme.key_matrices(codes, lengths, _scan_workspace(),
                        out=[out[field]
                             for field in (KEY_FIELD, AUX_FIELD)[:scheme.lanes]])
    out[VAL_FIELD] = vertices


def run_map(ctx: RunContext, store: PackedReadStore,
            partitions: PartitionStore | None = None, *,
            read_range: tuple[int, int] | None = None,
            only_lengths: frozenset[int] | set[int] | None = None,
            ) -> tuple[PartitionStore, MapReport]:
    """Fingerprint reads and write the S/P length partitions.

    ``read_range`` restricts the phase to reads ``[start, stop)`` — the unit
    of work the distributed master hands to a node; by default the whole
    store is mapped. An existing ``partitions`` store may be passed so a
    node can accumulate several blocks before finalizing (the caller then
    owns ``finalize()``); otherwise one is created and finalized here.
    ``only_lengths`` keeps the fingerprinting and the appends to the given
    partition lengths, each file byte for byte what a full pass writes —
    how a survivor adopts a lost node's pieces for the lengths the token
    has still to reduce, in one pass over its blocks (the modeled scan
    launches are charged whole either way).
    """
    read_length = store.read_length
    lengths = overlap_lengths(ctx, read_length)
    batch_reads = ctx.config.map_batch_reads or _auto_batch_reads(ctx, read_length)

    dtype = kv_dtype(ctx.config.fingerprint_lanes)
    caller_owns_store = partitions is not None
    if partitions is None:
        partitions = PartitionStore(ctx.workdir / "partitions", dtype, ctx.accountant)
    lanes = ctx.config.fingerprint_lanes
    per_read = per_read_device_bytes(read_length, lanes)
    n_batches = 0
    tuples_written = 0
    start, stop = read_range if read_range is not None else (0, store.n_reads)
    kept = tuple(length for length in lengths
                 if only_lengths is None or length in only_lengths)
    # What the host holds of a read: its P and S records, both orientations,
    # at every kept length (``staged`` below).
    per_read_host = 2 * 2 * len(kept) * dtype.itemsize
    block_reads = batch_reads * _stage_batches(ctx, batch_reads, per_read_host)

    tracer = ctx.tracer
    batch_charges: dict[int, list[float]] = {}

    def kernel_charges(n: int) -> list[float]:
        """The kernel launches of one device batch of ``n`` reads, in order.

        Per orientation one scan launch per hash lane per direction
        (Figs. 5-6) and the partition fan-out; the second orientation
        starts with the reverse-complement pass. Built once per distinct
        batch size (the last batch of a store may be shorter).
        """
        charges = batch_charges.get(n)
        if charges is None:
            spec = ctx.gpu.spec
            scans = [costs.scan_seconds(spec, n, read_length)] * (2 * 2 * lanes)
            fan_out = costs.elementwise_seconds(
                spec, 2 * n * len(kept) * dtype.itemsize)
            charges = batch_charges[n] = [
                *scans, fan_out,
                costs.elementwise_seconds(spec, n * read_length * 2),
                *scans, fan_out]
        return charges

    def packed_blocks():
        """``(first read, packed reads)`` per host block.

        One sequential read per *device batch* — the modeled disk sees the
        same ops whatever the block size — joined into one array.
        """
        for block_start in range(start, stop, block_reads):
            block_stop = min(block_start + block_reads, stop)
            parts = [store.read_packed_slice(lo, min(lo + batch_reads, block_stop))
                     for lo in range(block_start, block_stop, batch_reads)]
            yield block_start, parts[0] if len(parts) == 1 else np.concatenate(parts)

    try:
        for first_read, packed in packed_blocks():
            block_n = packed.shape[0]
            staged = np.empty((2, len(kept), 2 * block_n), dtype=dtype)
            _fingerprint_block(packed, first_read, read_length, batch_reads,
                               ctx.scheme, kept, staged)
            rows = []
            # One span per host block (a span per device batch costs more
            # than the batch at small device budgets). det=False keeps the
            # per-block spans out of the sim export (its size).
            with tracer.span("map:block", track="pipeline",
                             first_batch=n_batches + 1, reads=block_n), \
                    ctx.host_pool.alloc(block_n * per_read_host,
                                        label="map-host-buffers"):
                # Modeled accounting is per device batch and in batch
                # order: scratch reservations, kernel charges and (through
                # ``rows``) the metered appends are the same for any block
                # size.
                for lo in range(0, block_n, batch_reads):
                    n = min(batch_reads, block_n - lo)
                    n_batches += 1
                    rows += (n, n)  # forward, reverse-complement
                    with ctx.gpu.scratch(n * per_read, label="map-batch"):
                        ctx.gpu.charge_kernels(kernel_charges(n))
                partitions.append_pairs(
                    [(length, staged[0][j], staged[1][j])
                     for j, length in enumerate(kept)],
                    rows)
                tuples_written += 2 * 2 * block_n * len(kept)
    finally:
        # Even on an injected crash the writers must close: the in-process
        # crash loop re-runs the pipeline, and a stale _OPEN_PATHS entry
        # would wrongly reject the recovery run's writers.
        if not caller_owns_store:
            partitions.finalize()
    return partitions, MapReport(stop - start, n_batches, tuples_written, lengths)
