"""One worker of the simulated cluster.

Each worker owns a private storage directory (the paper: "each node also
has access to private storage for shuffling and sorting intermediate data
… must not be shared across nodes"), its own memory budgets, virtual GPU
and simulated clock, and registers active-message handlers for serving its
map-phase partition pieces during the shuffle.

The cluster shuffles, sorts and reduces in rounds (see
:mod:`repro.distributed.cluster`). A node's per-round state is two fields:
``owned_lengths`` (what it pulls, sorts and holds the token for this round)
and ``closed`` (the round's frozen copy of the graph's out-degree
bit-vector). Every map piece leaves its holder through
:meth:`WorkerNode.read_piece`, which drops the records ``closed`` has
already closed before they touch the network.

A node's map pieces are the input of every later round's pull, so they
outlive the node: when it is lost, one survivor maps its recorded blocks
again, once (:meth:`WorkerNode.adopt`), and serves those pieces under the
lost node's id from then on. :meth:`WorkerNode.pull_partitions` asks each
producer's current holder for its piece; a rebuild is the same pull.

A node keeps no ledger: a restarted node's files are checked against the
lineage its supervisor holds (:mod:`repro.distributed.resilience`).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterable

import numpy as np

from ..config import AssemblyConfig
from ..core.context import RunContext
from ..core.map_phase import run_map
from ..core.sort_phase import _open_claims, run_sort
from ..device.kernels import raw_view
from ..device.specs import DiskSpec, HostSpec
from ..extmem import PartitionStore, RunReader, RunWriter
from ..extmem.partitions import partition_sides
from ..extmem.records import kv_dtype
from ..graph.bitvector import PackedBitVector
from ..seq.packing import PackedReadStore
from ..trace.tracer import NULL_TRACER
from .message import ActiveMessageLayer, node_scope

#: AM handler name for pulling a map-phase partition piece from a peer.
FETCH_PARTITION = "fetch_partition"


class WorkerNode:
    """Private state + handlers of one cluster node."""

    def __init__(self, node_id: int, config: AssemblyConfig, root: Path,
                 messages: ActiveMessageLayer, *,
                 disk: DiskSpec | None = None, host: HostSpec | None = None,
                 tracer=None, read_length: int | None = None):
        self.node_id = node_id
        #: The whole-read length, whose partition has a ``P`` side only
        #: (:func:`~repro.extmem.partitions.partition_sides`).
        self.read_length = read_length
        # All of this node's spans land on "nodeNN/..." tracks of the shared
        # cluster tracer, stamped against this node's own simulated clock
        # (the RunContext binds the clock on top of the prefix).
        node_tracer = (tracer if tracer is not None else NULL_TRACER).bind(
            prefix=f"node{node_id:02d}/")
        self.ctx = RunContext(config, workdir=root / f"node{node_id:02d}",
                              disk=disk, host=host, tracer=node_tracer)
        self.messages = messages
        self.dtype = kv_dtype(config.fingerprint_lanes)
        self.map_partitions = PartitionStore(self.ctx.workdir / "map_parts",
                                             self.dtype, self.ctx.accountant)
        self.shuffled = PartitionStore(self.ctx.workdir / "partitions",
                                       self.dtype, self.ctx.accountant)
        #: Partition lengths this node owns in the current round.
        self.owned_lengths: list[int] = []
        #: Map pieces this node derived for lost producers, by producer id
        #: (:meth:`adopt`).
        self.adopted: dict[int, PartitionStore] = {}
        #: The round's out-degree snapshot (``None`` before the first edge).
        self.closed: PackedBitVector | None = None
        self.mapped_reads = 0
        messages.register_node(node_id, self.ctx.clock)
        messages.register_handler(node_id, FETCH_PARTITION, self._serve_partition)

    @property
    def scope(self) -> str:
        """This node's fault-plan scope label (``node00``, ``node01``, …)."""
        return node_scope(self.node_id)

    # -- map ---------------------------------------------------------------

    def map_block(self, store: PackedReadStore, start: int, stop: int) -> int:
        """Fingerprint reads ``[start, stop)`` into the local map partitions
        (every overlap length and ``P_L``); returns the records written."""
        _, report = run_map(self.ctx, store, self.map_partitions,
                            read_range=(start, stop))
        self.mapped_reads += stop - start
        return report.tuples_written

    def finish_map(self) -> None:
        """Close local map-phase partition writers."""
        self.map_partitions.finalize()

    # -- shuffle ------------------------------------------------------------

    def read_piece(self, pieces: PartitionStore, side: str, length: int,
                   ) -> np.ndarray:
        """One map piece of ``pieces``, minus what the round has closed.

        The one way a piece enters a shuffled partition, whether it is this
        node's own map output or one it derived for a lost producer: the
        same snapshot gives the same records either way.
        """
        path = pieces.path(side, length)
        if not path.exists():
            return np.empty(0, dtype=self.dtype)
        with RunReader(path, self.dtype, self.ctx.accountant) as reader:
            records = reader.read_all()
        if self.closed is not None:
            keep = _open_claims(self.ctx, self.closed, side)(records)
            # Gathered as bytes, like the sorter's survivors: numpy moves a
            # packed dtype field by field otherwise.
            records = np.take(raw_view(records), np.flatnonzero(keep),
                              mode="clip").view(self.dtype)
        return records

    def _serve_partition(self, producer: int, side: str, length: int,
                         ) -> tuple[np.ndarray, int]:
        """AM handler: the still-open records of ``producer``'s map piece."""
        records = self.read_piece(self.adopted.get(producer, self.map_partitions),
                                  side, length)
        return records, records.nbytes

    def pull_partitions(self, holders: list[int], lengths: Iterable[int]) -> int:
        """Aggregate this node's shuffled partitions of ``lengths``.

        A partition is the concatenation, in producer-id order, of every
        producer's map piece as the round's snapshot filters it, requested
        from ``holders[producer]``: the producer itself, or the survivor
        that adopted it. A lone node renames its own pieces into place
        instead (its sort applies the snapshot). Returns the bytes pulled
        over the network.
        """
        pulled = 0
        lone = holders == [self.node_id] and self.node_id not in self.adopted
        for length in lengths:
            for side in partition_sides(length, self.read_length):
                destination = self.shuffled.path(side, length)
                if lone:
                    piece = self.map_partitions.path(side, length)
                    if piece.exists():
                        piece.replace(destination)
                    continue
                with RunWriter(destination, self.dtype,
                               self.ctx.accountant) as writer:
                    for producer, holder in enumerate(holders):
                        records = self.messages.request(
                            self.node_id, holder, FETCH_PARTITION,
                            producer, side, length)
                        if records.shape[0]:
                            writer.append(records)
                            if holder != self.node_id:
                                pulled += records.nbytes
        return pulled

    def adopt(self, store: PackedReadStore,
              lineage: dict[int, list[tuple[int, int]]],
              only_lengths: frozenset[int]) -> None:
        """Derive lost producers' map pieces and hold them from now on.

        ``lineage`` maps each producer to the read blocks it mapped, in
        their original order; mapped again in that order into a store of
        their own (``adopted/peerNN/``), they give the producer's pieces
        byte for byte, for the ``only_lengths`` still to be reduced. The
        pieces are served like this node's own until
        :meth:`drop_map_partitions`.
        """
        derived = {}
        for producer, blocks in lineage.items():
            root = self.ctx.workdir / "adopted" / f"peer{producer:02d}"
            shutil.rmtree(root, ignore_errors=True)
            with PartitionStore(root, self.dtype, self.ctx.accountant) as pieces:
                for start, stop in blocks:
                    run_map(self.ctx, store, pieces, read_range=(start, stop),
                            only_lengths=only_lengths)
            derived[producer] = pieces
        self.adopted.update(derived)

    def drop_map_partitions(self) -> None:
        """Delete the map pieces, own and adopted (every length is reduced)."""
        for path in self.map_partitions.root.glob("*.run"):
            path.unlink()
        shutil.rmtree(self.ctx.workdir / "adopted", ignore_errors=True)
        self.adopted.clear()

    # -- sort ----------------------------------------------------------------

    def sort_lengths(self, lengths: Iterable[int], *, unserved: bool = False):
        """Sort the given shuffled partitions with what the host has left.

        Idempotent: partitions whose sorted file already exists (a restarted
        node replaying the phase) are skipped by :func:`run_sort`.
        ``unserved`` partitions were renamed into place, not pulled (a lone
        node's shuffle): nothing has filtered them yet, so the sort does.
        The round's frozen bit-vector exists once the graph does, and
        :func:`run_sort` then holds runs for this round's reduce by the
        single node's rule.
        """
        return run_sort(self.ctx, self.shuffled, lengths=sorted(lengths),
                        closed=self.closed if unserved else None,
                        resident_bytes=self.ctx.host_pool.used_bytes,
                        graph_built=self.closed is not None)

    def has_sorted(self, length: int) -> bool:
        """Whether every sorted run of ``length`` is on this node's disk."""
        return all(self.shuffled.path(side, length, sorted_run=True).exists()
                   for side in partition_sides(length, self.read_length))

    # -- recovery ------------------------------------------------------------

    def abandon(self) -> None:
        """Tear down a declared-dead node's in-process residue.

        The simulated process died but its private storage survives; the
        replacement node reopens the same directory. What must not survive
        are this object's open stream writers (the exclusivity registry
        would reject the replacement's files).
        """
        self.map_partitions.abandon()
        self.shuffled.abandon()
