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
bit-vector). Every map piece leaves its producer through
:meth:`WorkerNode.read_piece`, which drops the records ``closed`` has
already closed before they touch the network.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from typing import Callable, Iterable

from ..config import AssemblyConfig
from ..core.checkpoint import CheckpointManager, config_fingerprint
from ..core.context import RunContext
from ..core.map_phase import run_map
from ..core.sort_phase import _open_claims, run_sort
from ..device.kernels import raw_view
from ..device.specs import DiskSpec, HostSpec
from ..extmem import PartitionStore, RunReader, RunWriter
from ..extmem.records import kv_dtype
from ..graph.bitvector import PackedBitVector
from ..seq.packing import PackedReadStore
from ..trace.tracer import NULL_TRACER
from .message import ActiveMessageLayer, node_scope

#: AM handler name for pulling a map-phase partition piece from a peer.
FETCH_PARTITION = "fetch_partition"

#: Per-node ledger phases, in pipeline order.
LEDGER_PHASES = ("map", "shuffle", "sort")


class WorkerNode:
    """Private state + handlers of one cluster node."""

    def __init__(self, node_id: int, config: AssemblyConfig, root: Path,
                 messages: ActiveMessageLayer, *,
                 disk: DiskSpec | None = None, host: HostSpec | None = None,
                 tracer=None):
        self.node_id = node_id
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
        #: The round's out-degree snapshot (``None`` before the first edge).
        self.closed: PackedBitVector | None = None
        self.mapped_reads = 0
        # Per-node artifact ledger (state.json in the node's private dir):
        # each phase records digests of the files it produced (shuffle and
        # sort: of the current round, a mark replaces the round before), so
        # a restarted replacement can tell intact partitions from damaged
        # ones and replay only the latter. A fresh WorkerNode on the same
        # workdir reloads the dead node's surviving ledger — that survival
        # is the whole point of checkpointed node recovery.
        self.ledger = CheckpointManager(
            self.ctx.workdir,
            config_fingerprint(config, node_scope(node_id)))
        messages.register_node(node_id, self.ctx.clock)
        messages.register_handler(node_id, FETCH_PARTITION, self._serve_partition)

    @property
    def scope(self) -> str:
        """This node's fault-plan scope label (``node00``, ``node01``, …)."""
        return node_scope(self.node_id)

    # -- map ---------------------------------------------------------------

    def map_block(self, store: PackedReadStore, start: int, stop: int) -> None:
        """Fingerprint reads ``[start, stop)`` into the local map partitions."""
        run_map(self.ctx, store, self.map_partitions, read_range=(start, stop))
        self.mapped_reads += stop - start

    def finish_map(self) -> None:
        """Close local map-phase partition writers."""
        self.map_partitions.finalize()

    # -- shuffle ------------------------------------------------------------

    def read_piece(self, pieces: PartitionStore, side: str, length: int,
                   ) -> np.ndarray:
        """One map piece of ``pieces``, minus what the round has closed.

        The one way a piece enters a shuffled partition, whether served
        from this node's own map output or recomputed for a lost peer: the
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

    def _serve_partition(self, side: str, length: int) -> tuple[np.ndarray, int]:
        """AM handler: the still-open records of one local map partition."""
        records = self.read_piece(self.map_partitions, side, length)
        return records, records.nbytes

    def pull_owned_partitions(self, peers: list["WorkerNode"], lengths: list[int],
                              ) -> int:
        """Aggregate this node's partitions from every peer (incl. itself).

        Returns the number of bytes pulled over the network.
        """
        pulled = 0
        remote_peers = [peer for peer in peers if peer.node_id != self.node_id]
        for length in lengths:
            for side in ("S", "P"):
                destination = self.shuffled.path(side, length)
                local_piece = self.map_partitions.path(side, length)
                if not remote_peers:
                    # Single node: the data is already in place — rename only.
                    if local_piece.exists():
                        local_piece.replace(destination)
                    continue
                writer = RunWriter(destination, self.dtype, self.ctx.accountant)
                try:
                    for peer in peers:
                        records = self.messages.request(
                            self.node_id, peer.node_id, FETCH_PARTITION, side, length)
                        if records.shape[0]:
                            writer.append(records)
                            if peer.node_id != self.node_id:
                                pulled += records.nbytes
                finally:
                    writer.close()
        self.owned_lengths = sorted(lengths)
        return pulled

    def drop_map_partitions(self) -> None:
        """Delete served map-phase files (consumed by the shuffle)."""
        for path in self.map_partitions.root.glob("*.run"):
            path.unlink()

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

    # -- recovery ------------------------------------------------------------

    def record_ledger(self, phase: str) -> None:
        """Digest this phase's on-disk artifacts into the node ledger."""
        if phase == "map":
            artifacts = sorted(self.map_partitions.root.glob("[SP]_*.run"))
        elif phase == "shuffle":
            artifacts = [self.shuffled.path(side, length)
                         for length in self.owned_lengths for side in ("S", "P")
                         if self.shuffled.path(side, length).exists()]
        elif phase == "sort":
            artifacts = [self.shuffled.path(side, length, sorted_run=True)
                         for length in self.owned_lengths for side in ("S", "P")
                         if self.shuffled.path(side, length, sorted_run=True).exists()]
        else:
            raise ValueError(f"no ledger phase {phase!r}")
        self.ledger.mark(phase, artifacts)

    def damaged_lengths(self, phase: str) -> list[int]:
        """Owned lengths whose ``phase`` artifacts fail their ledger digest.

        A record left by an earlier round names files the token has
        consumed since: not owned any more, not damaged.
        """
        return sorted({PartitionStore.length_of(rel)
                       for rel in self.ledger.damaged(phase)}
                      & set(self.owned_lengths))

    def rebuild_partitions(self, n_nodes: int, alive: dict[int, "WorkerNode"],
                           lengths: Iterable[int],
                           recompute_piece: Callable[[int, str, int], np.ndarray],
                           ) -> int:
        """Reconstruct shuffled partitions byte-identically from lineage.

        A shuffled partition is the concatenation, in node-id order, of each
        peer's retained map-phase piece as the round's snapshot filters it
        (:meth:`read_piece`). Pieces of live peers are re-pulled
        over the active-message layer; pieces of lost peers (or of this node
        itself after a single-node rename consumed the piece) come from
        ``recompute_piece(peer_id, side, length)``, which re-derives them
        from the shared packed store. Returns bytes pulled over the network.
        """
        pulled = 0
        for length in sorted(lengths, reverse=True):
            for side in ("S", "P"):
                # Drop damaged leftovers of the dead attempt first: a stale
                # sorted file would make the sort skip the rebuilt input.
                self.shuffled.delete(side, length)
                self.shuffled.delete(side, length, sorted_run=True)
                writer = RunWriter(self.shuffled.path(side, length), self.dtype,
                                   self.ctx.accountant)
                try:
                    for peer_id in range(n_nodes):
                        peer = alive.get(peer_id)
                        if peer is not None and \
                                peer.map_partitions.path(side, length).exists():
                            records = self.messages.request(
                                self.node_id, peer_id, FETCH_PARTITION,
                                side, length)
                        else:
                            records = recompute_piece(peer_id, side, length)
                        if records.shape[0]:
                            writer.append(records)
                            if peer_id != self.node_id:
                                pulled += records.nbytes
                finally:
                    writer.close()
        return pulled

    def abandon(self) -> None:
        """Tear down a declared-dead node's in-process residue.

        The simulated process died but its private storage survives; the
        replacement node reopens the same directory. What must not survive
        are this object's open stream writers (the exclusivity registry
        would reject the replacement's files).
        """
        self.map_partitions.abandon()
        self.shuffled.abandon()
