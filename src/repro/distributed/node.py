"""One worker of the simulated cluster.

Each worker owns a private storage directory (the paper: "each node also
has access to private storage for shuffling and sorting intermediate data
… must not be shared across nodes"), its own memory budgets, virtual GPU
and simulated clock, and registers active-message handlers for serving its
map-phase partition pieces during the shuffle and its read blocks during
compress.

Per round (:mod:`repro.distributed.cluster`) a node holds the frozen
out-degree snapshot ``closed`` and the ``pieces`` of every producer id it
holds (its own, and each lost node's it took over): their read blocks mapped for the round's lengths under
``closed`` (:meth:`WorkerNode.map_pieces`), each until its owner pulls
it. The node reads the shared store through one view of its own
(:attr:`WorkerNode.reads`), charged to its disk, for its whole life. The
node's :class:`~repro.core.residency.Residency` plan places what it maps:
in an in-core run the read blocks of the producers it holds stay in host
memory from their first read on (so every round after the first maps
them without a disk read), the pieces and the partitions pulled from
them too, the first round's ``P_L`` and its key ranges too, and a sorted
run held for reduce is never written, however many partitions the node
owns. A ``P_L`` piece is cut into its key ranges once, when the first
owner asks for one (:meth:`WorkerNode.read_piece`). A lone node's
pieces are its partitions. Compress gathers the read blocks on the
master from the nodes that hold them (:meth:`WorkerNode.gather_reads`):
each holder serves its blocks through its view, from its held copy or
its own disk, and the master reads only its own. A node keeps no ledger
and no list of the lengths it owns (its supervisor deals those each
round): what a restart or a pull took is mapped again from the lineage
its supervisor holds, by the operation that needs it
(:mod:`repro.distributed.resilience`), and a restarted node reads its
blocks off the disk again.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..config import AssemblyConfig
from ..core.context import RunContext
from ..core.map_phase import open_vertices, run_map
from ..core.residency import Residency
from ..core.sort_phase import run_sort
from ..errors import StreamProtocolError
from ..extmem import PartitionStore, RunWriter
from ..extmem.partitions import SIDES, KeyRange, length_of, partition_sides
from ..extmem.records import KEY_FIELD, kv_dtype
from ..graph.bitvector import PackedBitVector
from ..seq.packing import PackedReadStore, unpack_codes
from ..seq.records import ReadBatch
from ..trace.tracer import NULL_TRACER
from .message import ActiveMessageLayer, node_scope

#: AM handler name for pulling a map-phase partition piece from a peer.
FETCH_PARTITION = "fetch_partition"
#: AM handler name for fetching packed reads of a block from its holder.
FETCH_BLOCK = "fetch_block"


class WorkerNode:
    """Private state + handlers of one cluster node."""

    def __init__(self, node_id: int, config: AssemblyConfig, root: Path,
                 messages: ActiveMessageLayer, store: PackedReadStore, *,
                 tracer=None, lone: bool = False):
        self.node_id = node_id
        #: The whole-read length, whose partition has a ``P`` side only
        #: (:func:`~repro.extmem.partitions.partition_sides`).
        self.read_length = store.read_length
        #: The cluster's only node: its pieces are its partitions.
        self.lone = lone
        # All of this node's spans land on "nodeNN/..." tracks of the shared
        # cluster tracer, stamped against this node's own simulated clock
        # (the RunContext binds the clock on top of the prefix).
        node_tracer = (tracer if tracer is not None else NULL_TRACER).bind(
            prefix=f"node{node_id:02d}/")
        self.ctx = RunContext(config, workdir=root / f"node{node_id:02d}",
                              tracer=node_tracer)
        #: Where this node's read blocks, pieces, partitions and sorted runs
        #: live.
        self.plan = Residency(self.ctx, store)
        #: The node's view of the shared store, its reads charged to this
        #: node's disk, for its whole life.
        self.reads = PackedReadStore.open(store.path, self.ctx.accountant)
        self.messages = messages
        self.dtype = kv_dtype(config.fingerprint_lanes)
        self.shuffled = PartitionStore(self.ctx.workdir / "partitions",
                                       self.dtype, self.ctx.accountant)
        #: The round's map pieces by producer id (:meth:`map_pieces`), the
        #: lengths each was mapped for, and the pieces served (let go).
        self.pieces: dict[int, PartitionStore] = {}
        self.mapped: dict[int, set] = {}
        self.served: set[tuple] = set()
        #: The producers whose whole-read piece awaits its cut into key
        #: ranges (:meth:`_cut`).
        self.uncut: set[int] = set()
        #: The round's out-degree snapshot (``None`` before the first edge).
        self.closed: PackedBitVector | None = None
        messages.register_node(node_id, self.ctx.clock)
        messages.register_handler(node_id, FETCH_PARTITION, self._serve_partition)
        messages.register_handler(node_id, FETCH_BLOCK, self._serve_block)

    @property
    def scope(self) -> str:
        """This node's fault-plan scope label (``node00``, ``node01``, …)."""
        return node_scope(self.node_id)

    # -- map ---------------------------------------------------------------

    def _fresh_pieces(self, producer: int, keys) -> PartitionStore:
        """``producer``'s piece store (a lone node's partitions), its pieces
        of ``keys`` let go to be mapped anew."""
        if producer not in self.pieces:
            root = self.ctx.workdir / "map_parts" / f"peer{producer:02d}"
            shutil.rmtree(root, ignore_errors=True)
            self.pieces[producer] = self.shuffled if self.lone else \
                PartitionStore(root, self.dtype, self.ctx.accountant)
            self.mapped[producer] = set()
        self.pieces[producer].reopen(keys)
        return self.pieces[producer]

    def map_pieces(self, lineage: dict[int, list[tuple[int, int]]],
                   keys: Iterable) -> None:
        """Map each producer's read blocks, in their original order, into
        its piece store, for the partitions ``keys`` (lengths, or key
        ranges of the whole-read length) under the round's snapshot.

        A piece is its producer's records minus the claims the snapshot
        has closed, in map order, whichever node maps it; a key range's
        is cut from the whole-read piece when one is first asked for
        (:meth:`_cut`). The plan holds the blocks from this read on. A map
        cut short lets the producer's whole store go.
        """
        keys = sorted(keys)
        lengths = sorted({length_of(key) for key in keys})
        resident = self.plan.resident_bytes
        self.plan.hold_store(self.reads, [block for blocks in lineage.values()
                                          for block in blocks])
        for producer, blocks in lineage.items():
            pieces = self._fresh_pieces(producer, keys + lengths)
            try:
                self.plan.keep(pieces, lengths, sum(
                    open_vertices(self.reads, self.closed, block)
                    for block in blocks))
                for start, stop in blocks:
                    run_map(self.ctx, self.reads, pieces,
                            read_range=(start, stop),
                            only_lengths=frozenset(lengths),
                            closed=self.closed, resident_bytes=resident,
                            seeds=self.plan.seeds.get((start, stop)))
                pieces.finalize()
            except BaseException:
                pieces.abandon()
                del self.pieces[producer], self.mapped[producer]
                self.uncut.discard(producer)
                raise
            if any(isinstance(key, KeyRange) for key in keys):
                self.uncut.add(producer)
            self.mapped[producer].update(keys)
            self.served -= {(producer, side, key)
                            for key in keys for side in SIDES}

    def holds(self, producer: int, key) -> bool:
        """Whether ``producer``'s pieces of ``key`` are mapped, unserved."""
        return key in self.mapped.get(producer, ()) and not any(
            (producer, side, key) in self.served for side in SIDES)

    def drop_pieces(self) -> None:
        """Let go of what the round's pulls left, after its last reduce."""
        for pieces in self.pieces.values():
            pieces.abandon()
        shutil.rmtree(self.ctx.workdir / "map_parts", ignore_errors=True)
        self.pieces, self.mapped, self.served = {}, {}, set()
        self.uncut = set()

    # -- shuffle ------------------------------------------------------------

    def read_piece(self, producer: int, side: str, length: int) -> np.ndarray:
        """``producer``'s piece, as the round's map left it (none: no block
        wrote it); a piece served is gone."""
        if (producer, side, length) in self.served:
            raise StreamProtocolError(f"{self.scope}: producer {producer}'s "
                                      f"piece ({side}, {length}) was served")
        if producer in self.uncut and isinstance(length, KeyRange):
            return self._cut(producer, length)
        return self._records(self.pieces[producer], side, length)

    def _cut(self, producer: int, key: KeyRange) -> np.ndarray:
        """Cut ``producer``'s whole-read piece at the key splitters, once,
        at the first request for one of its key ranges: returns ``key``'s
        records and keeps each other unserved range's as its piece, each
        in map order (so a holder reads the piece once, and each other
        range's once, as a piece of its own). The pass is host work."""
        pieces = self.pieces[producer]
        records = self._records(pieces, "P", key.length)
        pieces.delete("P", key.length)
        self.uncut.discard(producer)
        self.ctx.charge_host(records.nbytes)
        index = np.searchsorted(self.ctx.scheme.splitters(key.count),
                                records[KEY_FIELD], side="right")
        others = sorted(other for other in self.mapped[producer]
                        if isinstance(other, KeyRange) and other != key
                        and (producer, "P", other) not in self.served)
        pieces.reopen(others)
        for other in others:
            part = records[index == other.index]
            if part.shape[0]:
                self.plan.keep(pieces, [other], part.shape[0])
                pieces.append("P", other, part)
        pieces.finalize()
        return records[index == key.index]

    def _records(self, pieces: PartitionStore, side: str, key) -> np.ndarray:
        """One piece's records (none: no block wrote it)."""
        if not (pieces.kept(side, key) or pieces.path(side, key).exists()):
            return np.empty(0, dtype=self.dtype)
        with pieces.open_run(side, key) as reader:
            return reader.read_all()

    def _serve_partition(self, producer: int, side: str, length: int,
                         ) -> tuple[np.ndarray, int]:
        """AM handler: ``producer``'s piece of one partition, handed over."""
        records = self.read_piece(producer, side, length)
        self.pieces[producer].delete(side, length)
        self.served.add((producer, side, length))
        return records, records.nbytes

    def pull_partitions(self, store: PackedReadStore, holders: list[int],
                        lengths: Iterable[int]) -> int:
        """Aggregate this node's shuffled partitions of ``lengths`` (or key
        ranges of the whole-read length).

        A partition is the concatenation, in producer-id order, of every
        producer's piece, requested from ``holders[producer]``, and has at
        most one record per vertex the snapshot leaves open. A pull run
        again (a peer died mid-pull) starts each partition again. Returns
        the bytes pulled over the network.
        """
        if self.lone:
            return 0
        pulled = 0
        for length in lengths:
            sides = partition_sides(length, self.read_length)
            for side in sides:
                self.shuffled.delete(side, length)
            self.plan.keep(self.shuffled, [length],
                           open_vertices(store, self.closed))
            for side in sides:
                kept = self.shuffled.kept(side, length)
                writer = None if kept else RunWriter(
                    self.shuffled.path(side, length), self.dtype,
                    self.ctx.accountant)
                try:
                    for producer, holder in enumerate(holders):
                        records = self.messages.request(
                            self.node_id, holder, FETCH_PARTITION,
                            producer, side, length)
                        if not records.shape[0]:
                            continue
                        if kept:
                            self.shuffled.append(side, length, records)
                        else:
                            writer.append(records)
                        if holder != self.node_id:
                            pulled += records.nbytes
                finally:
                    if writer is not None:
                        writer.close()
        return pulled

    # -- compress ------------------------------------------------------------

    def _serve_block(self, start: int, stop: int) -> tuple[np.ndarray, int]:
        """AM handler: the packed reads ``[start, stop)`` through this
        node's view of the store (its held copy, or its own disk)."""
        packed = self.reads.read_packed_slice(start, stop)
        return packed, packed.nbytes

    def gather_reads(self, block_ranges: dict[int, list[tuple[int, int]]],
                     holders: list[int], step: int) -> Iterator[ReadBatch]:
        """Every read of the store once, in read order, in batches of at
        most ``step`` reads.

        Each producer's blocks come from ``holders[producer]``: this
        node's own through its view, every other one a ``fetch_block``
        message a batch.
        """
        blocks = sorted((start, stop, producer)
                        for producer, ranges in block_ranges.items()
                        for start, stop in ranges)
        for start, stop, producer in blocks:
            holder = holders[producer]
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                if holder == self.node_id:
                    yield self.reads.read_slice(lo, hi)
                else:
                    packed = self.messages.request(self.node_id, holder,
                                                   FETCH_BLOCK, lo, hi)
                    yield ReadBatch(unpack_codes(packed, self.read_length),
                                    start_id=lo)

    # -- sort ----------------------------------------------------------------

    def sort_lengths(self, lengths: Iterable[int]):
        """Sort the given shuffled partitions with what the host has left.

        Idempotent: partitions whose sorted file already exists (a sort
        run again after a death) are skipped by :func:`run_sort`. The
        round's map filtered them. The node's plan holds runs (no file) for
        this round's reduce, as a single node's does, one length or more.
        """
        return run_sort(self.ctx, self.shuffled, lengths=sorted(lengths),
                        plan=self.plan)

    def has_sorted(self, length: int) -> bool:
        """Whether every sorted run of ``length`` is held or on disk."""
        return all(self.shuffled.kept(side, length, sorted_run=True)
                   or self.shuffled.path(side, length, sorted_run=True).exists()
                   for side in partition_sides(length, self.read_length))

    # -- recovery ------------------------------------------------------------

    def abandon(self) -> None:
        """Tear down a declared-dead node's in-process residue.

        The simulated process died but its private storage survives; the
        replacement node reopens the same directory. What must not survive
        are this object's open stream writers (the exclusivity registry
        would reject the replacement's files), its view of the store and
        what it kept in memory, its held read blocks too.
        """
        for pieces in self.pieces.values():
            pieces.abandon()
        self.shuffled.abandon()
        self.close()

    def close(self) -> None:
        """Close this node's view of the store: its held blocks and their
        fingerprints go back."""
        self.reads.close()
        self.plan.release_seeds()
