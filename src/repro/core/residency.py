"""Residency: where each artifact of a run lives, host memory or disk.

The paper's memory model has two levels below the data: the host holds
what fits, the disk the rest. A :class:`Residency` plan, one a run (one a
node on the cluster), decides which artifacts stay in host memory: the
packed store (:meth:`~Residency.hold_store`), unsorted partitions whose
sizes are known before they are written (:meth:`~Residency.keep`), and
sorted runs the sort formed in one piece (:meth:`~Residency.hold`). The
store and the partitions stay only in an *in-core* run, by budget alone;
the paper's regime (data ≫ host) is not in-core. Each placement is
reserved in the host pool through the plan and leaves the sorter's whole
host block free beside it, so every later map block and sort reserves
what it would with the artifact on disk. Load, before the plan exists,
and compress, after the graph is gone, stream the reads in steps sized
the same way: the largest batch that fits what the pool has free
(:func:`stream_batch_reads`). This module is the only code that reads the
pool's free or used bytes to decide a placement (DESIGN.md §2f,
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
from .map_phase import open_vertices, partition_lengths
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


def stream_batch_reads(ctx: RunContext, read_bytes: int) -> int:
    """The reads of one streaming step: the largest batch of
    ``read_bytes`` a read that fits what the host pool has free, at most
    :data:`STREAM_BATCH_READS`. The step's reservation raises
    ``HostMemoryError`` if not one read fits."""
    return max(1, min(STREAM_BATCH_READS, ctx.host_pool.free_bytes // read_bytes))


class Residency:
    """The residency plan of one run, or of one cluster node."""

    def __init__(self, ctx: RunContext, store: PackedReadStore):
        self.ctx = ctx
        self.read_length = store.read_length
        self.dtype = kv_dtype(ctx.config.fingerprint_lanes)
        eager_records = open_vertices(store) * sum(
            len(partition_sides(length, store.read_length))
            for length in partition_lengths(ctx, store.read_length))
        #: Whether every record an eager map writes fits one sorter block.
        self.in_core = eager_records <= make_sorter(ctx, self.dtype).m_h
        self._placed = []
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
        self._placed.append(allocation)
        return allocation

    @property
    def resident_bytes(self) -> int:
        """Host memory held beside what the plan placed (the string graph,
        once built): what the map's block and the sorter's are cut beside."""
        self._placed = [placed for placed in self._placed if placed.live]
        return self.ctx.host_pool.used_bytes \
            - sum(placed.nbytes for placed in self._placed)

    def _block_bytes(self) -> int:
        """The sorter's whole host block, cut beside :attr:`resident_bytes`."""
        return make_sorter(self.ctx, self.dtype, self.resident_bytes).m_h \
            * self.dtype.itemsize

    # -- the three questions -------------------------------------------------

    def hold_store(self, store: PackedReadStore) -> None:
        """Keep the packed store in host memory from its first walk on, in
        an in-core run."""
        if self.in_core:
            self._placed.append(store.hold(self.ctx.host_pool))

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
            self.grow(partitions, lengths, n_records)

    def grow(self, partitions: PartitionStore, lengths, n_records: int) -> None:
        """Make ``n_records`` more room in kept partitions (a node's
        hand-out piece, one read block at a time)."""
        partitions.reserve(
            lengths, n_records,
            lambda nbytes: self._reserve(nbytes, "held-partition"),
            self.read_length)

    def hold(self, partitions: PartitionStore, side: str, length: int,
             records) -> bool:
        """Whether the sorted run ``(side, length)``, formed in one piece,
        stays in host memory, never written: ``sort_file``'s ``hold`` hook.

        Held if the sorter's block stays free beside it while the other
        side is still to be sorted (``S`` goes first). The graph needs no
        room kept: the run's sort block, twice its bytes, has just fit, and
        a run sorted before the graph exists has a record a vertex, larger
        than the graph's share of one.
        """
        spare = self._block_bytes() if side == "S" else 0
        if self.ctx.host_pool.free_bytes - records.nbytes < spare:
            return False
        partitions.keep(side, length, records,
                        self._reserve(records.nbytes, "held-run"))
        return True
