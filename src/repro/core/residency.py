"""Residency: where each artifact of a run lives, host memory or disk.

The paper's memory model has two levels below the data: the host holds
what fits, the disk the rest. A :class:`Residency` plan, one a run (one a
node on the cluster), decides which artifacts stay in host memory: the
reads of the packed store it maps and the fingerprints its map's
bands leave each other (:meth:`~Residency.hold_store`),
unsorted partitions whose sizes are known before they are written
(:meth:`~Residency.keep`), and sorted runs the sort formed in one piece
(:meth:`~Residency.hold`). The store's reads and the partitions stay
only in an *in-core* run, by budget alone (:func:`in_core_reads`, the
one bound); the paper's regime (data ≫ host) is not in-core. Each
placement is reserved in the host pool through the plan and leaves the
sorter's whole host block free beside it, so every later map block and
sort reserves what it would with the artifact on disk. Load, before the
plan exists, and compress, after the graph is gone, stream the reads in
steps sized the same way: the largest batch that fits what the pool has
free (:func:`stream_batch_reads`). Load also keeps the packed bytes it
writes while its read count stays within the in-core bound, and the plan
adopts them as the held store. This module is the only code that reads
the pool's free or used bytes to decide a placement (DESIGN.md §2f,
*Residency*).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..extmem import PartitionStore
from ..extmem.partitions import partition_sides
from ..extmem.records import kv_dtype
from ..extmem.sort import HOST_SORT_FOOTPRINT
from ..graph import GreedyStringGraph
from ..seq.packing import PackedReadStore
from .context import RunContext
from .map_phase import HeldSeeds, open_vertices, partition_lengths
from .sort_phase import make_sorter

#: The most reads one streaming step of load or compress takes.
STREAM_BATCH_READS = 65536


def load_read_bytes(read_length: int, *, fastq: bool) -> int:
    """Host bytes one read costs a load step: its source record (the FASTQ
    text the accountant charges, or its packed bytes), its codes and the
    packed bytes it is written as."""
    packed = -(-read_length // 4)
    return (2 * read_length + 16 if fastq else packed) + read_length + packed


def compress_read_bytes(read_length: int) -> int:
    """Host bytes one read costs a compress step: its decoded codes and
    their reverse complement."""
    return 2 * read_length


def stream_batch_reads(ctx: RunContext, read_bytes: int, *,
                       beside: int = 0) -> int:
    """The reads of one streaming step: the largest batch of
    ``read_bytes`` a read that fits what the host pool has free, less
    ``beside`` bytes the step must leave free, at most
    :data:`STREAM_BATCH_READS`. The step's reservation raises
    ``HostMemoryError`` if not one read fits."""
    return max(1, min(STREAM_BATCH_READS,
                      (ctx.host_pool.free_bytes - beside) // read_bytes))


def in_core_reads(ctx: RunContext, read_length: int) -> int:
    """The most reads an in-core run can have: every record an eager map
    writes, one an oriented read on each side of every length, fits one
    sorter block. Zero when no overlap length exists (the map refuses
    such a run)."""
    try:
        lengths = partition_lengths(ctx, read_length)
    except ConfigError:
        return 0
    sides = sum(len(partition_sides(length, read_length))
                for length in lengths)
    return make_sorter(ctx, kv_dtype(ctx.config.fingerprint_lanes)).m_h \
        // (2 * sides)


class Residency:
    """The residency plan of one run, or of one cluster node."""

    def __init__(self, ctx: RunContext, store: PackedReadStore):
        self.ctx = ctx
        self.read_length = store.read_length
        self.dtype = kv_dtype(ctx.config.fingerprint_lanes)
        #: Whether every record an eager map writes fits one sorter block.
        self.in_core = store.n_reads <= in_core_reads(ctx, store.read_length)
        self._placed = set()
        #: The fingerprints held for the map's next band, by read range
        #: (:meth:`hold_store`).
        self.seeds: dict[tuple[int, int], HeldSeeds] = {}
        self.check_block(store)

    def check_block(self, store: PackedReadStore,
                    graph: GreedyStringGraph | None = None) -> None:
        """Refuse an explicit ``host_block_pairs`` whose largest sort
        request (the whole block, or the partition if smaller, twice over)
        cannot fit on this host: alone before the map (``P_L``, a record
        a vertex, is sorted before the graph exists), and beside ``graph``
        once it exists (a later partition holds the claims it leaves open).
        """
        if not self.ctx.config.host_block_pairs:
            return
        closed, beside = (None, 0) if graph is None \
            else (graph.out_bits, graph.nbytes)
        request = min(make_sorter(self.ctx, self.dtype).host_block,
                      open_vertices(store, closed)) \
            * self.dtype.itemsize * HOST_SORT_FOOTPRINT
        budget = self.ctx.config.memory.host_bytes
        if request + beside > budget:
            raise ConfigError(
                f"host_block_pairs={self.ctx.config.host_block_pairs}: a "
                f"sort block of {request:,} B"
                + (f" beside the {beside:,} B string graph" if beside else "")
                + f" does not fit in {budget:,} B of host memory")

    # -- what the host holds -------------------------------------------------

    def _reserve(self, nbytes: int, label: str):
        allocation = self.ctx.host_pool.alloc(nbytes, label=label)
        self._placed.add(allocation)
        return allocation

    @property
    def resident_bytes(self) -> int:
        """Host memory held beside what the plan placed (the string graph,
        once built): what the map's block and the sorter's are cut beside."""
        self._placed = {placed for placed in self._placed if placed.live}
        return self.ctx.host_pool.used_bytes \
            - sum(placed.nbytes for placed in self._placed)

    def _block_bytes(self) -> int:
        """The sorter's whole host block, cut beside :attr:`resident_bytes`."""
        return make_sorter(self.ctx, self.dtype, self.resident_bytes).m_h \
            * self.dtype.itemsize

    # -- the three questions -------------------------------------------------

    def hold_store(self, store: PackedReadStore, blocks) -> None:
        """Keep the packed store's read ``blocks`` (``(start, stop)`` pairs:
        a single node's whole store, a cluster node's dealt blocks) in host
        memory from their first read on, in an in-core run. Reads the store
        holds already (those load wrote, :meth:`PackedReadStore.adopt`) are
        placed as they are, not read again.

        Each block's fingerprints are held beside its reads, where they fit
        beside the sorter's block, for the map's bands to descend from
        (:class:`~repro.core.map_phase.HeldSeeds`)."""
        if self.in_core:
            store.hold(self.ctx.host_pool, blocks)
            self._placed.update(store.reservations)
            n_specs = 2 * self.ctx.config.fingerprint_lanes
            for block in blocks:
                nbytes = HeldSeeds.nbytes(block, n_specs)
                if block not in self.seeds and nbytes \
                        <= self.ctx.host_pool.free_bytes - self._block_bytes():
                    self.seeds[block] = HeldSeeds(
                        block, n_specs, self._reserve(nbytes, "held-seeds"))

    def release_seeds(self) -> None:
        """Give back the host memory of every fingerprint held."""
        for seeds in self.seeds.values():
            seeds.release()

    def keep(self, partitions: PartitionStore, lengths, n_records: int) -> None:
        """Keep the unsorted partitions of ``lengths`` in host memory, in an
        in-core run, if the sorter's block stays free beside them.

        Each side of each length is to receive ``n_records`` records (a
        band's or pull's :func:`~repro.core.map_phase.open_vertices`), so
        their bytes are known before they are written.
        """
        sides = sum(len(partition_sides(length, self.read_length))
                    for length in lengths)
        if self.in_core and sides * n_records * self.dtype.itemsize \
                <= self.ctx.host_pool.free_bytes - self._block_bytes():
            partitions.reserve(
                lengths, n_records,
                lambda nbytes: self._reserve(nbytes, "held-partition"),
                self.read_length)

    def hold(self, partitions: PartitionStore, side: str, length: int,
             more: bool, records) -> bool:
        """Whether the sorted run ``(side, length)``, formed in one piece,
        stays in host memory, never written: ``sort_file``'s ``hold`` hook.

        Held if the sorter's block stays free beside it while ``more``
        runs of the sort call are still to be sorted (of one length: its
        ``P`` after its ``S``). The graph needs no room kept: the run's
        sort block, twice its bytes, has just fit, and a run sorted before
        the graph exists has a record a vertex, larger than the graph's
        share of one.
        """
        spare = self._block_bytes() if more else 0
        if self.ctx.host_pool.free_bytes - records.nbytes < spare:
            return False
        partitions.keep(side, length, records,
                        self._reserve(records.nbytes, "held-run"))
        return True
