"""Distributed resilience: heartbeats, node restart, failover, degraded mode.

The paper's distributed reduce is a chain: the out-degree bit-vector token
travels through partition owners in descending length order, so one dead
node stalls the whole assembly. This module gives the simulated cluster the
failure ladder a production deployment would have, entirely on the
simulated clock so every timeline is deterministic and replayable.

One entry rule: any fault a node operation (map, shuffle pull, sort,
reduce attempt, compress) raises is the death of the scope that
died: the operation's own node, the writer of a lost write, or the
destination of a message. An injected :class:`~repro.errors.FaultInjected`
names that scope; a full disk (``OSError(ENOSPC)``) is the death of the
node whose disk it is. Nothing is retried in place: the operation runs
again after its node's recovery.

1. **Heartbeat/timeout detection** — the supervisor declares the node dead
   at ``last_heartbeat + node_timeout`` on the simulated clock, emitting
   one ``heartbeat-miss`` instant per missed beat.
2. **Node restart from lineage** — a fresh :class:`WorkerNode` reopens the
   dead node's private storage, which keeps no ledger, is sent the round's
   snapshot again and does no work: the operation that needs something
   the death took rebuilds it. Its map pieces of the round in flight died
   with it (or lost writes): it maps them again from the recorded read
   blocks when a pull first needs them. The sort op, and a reduce attempt
   that finds no sorted run, pull again a partition whose size no longer
   matches what its pull wrote (:meth:`ClusterSupervisor._sorted`),
   byte-identically: it is the concatenation of per-producer pieces in
   node-id order, and each holder maps again the pieces it served.
3. **Failover** — a node past its restart budget is *lost*. One rule, in
   every phase: the least-loaded survivor takes the lost node's producer
   ids and maps their recorded blocks with its own (the round in flight's
   when a pull first needs them); the lost node's partitions move only
   when the reduce reaches them (:meth:`ClusterSupervisor.reduce_partition`).
   A disk that stays full uses up its node's restarts the same way.
4. **Degraded-mode completion** — when a partition survives no owner, the
   run finishes on the surviving nodes and reports the drop in a
   :class:`DegradedRunReport`. A run no node survives raises
   :class:`~repro.errors.DistributedProtocolError` ("no surviving nodes").

Map, shuffle, sort and reduce run in rounds
(:mod:`repro.distributed.cluster`), and recovery is scoped to the round in
flight. The lineage is the read blocks dealt to each producer
(``block_ranges``) plus the round's frozen out-degree snapshot, held here
(:meth:`ClusterSupervisor.begin_round`) and handed again to a restarted
node: every piece of a round, mapped again or not, is the producer's
records minus what that one snapshot closed, which is what keeps a
rebuilt partition the lost one byte for byte. A key range of the
whole-read length (round 0's partitions) is an owned partition like any
other, named apart from every other range, so it is rebuilt the same way
on a restarted or failover owner. Ownership is per round
and held here (:meth:`ClusterSupervisor.shuffle_phase` deals the round's
partitions to the alive nodes, ``ClusterSupervisor.owned``), so a restarted
node is handed none of it; only an operation of the round in flight
rebuilds a partition, one the reduce has yet to reach. The round's map,
pull and sort run through one per-node loop
(:meth:`ClusterSupervisor._on_each`), and a reduce attempt's return value
comes back on its :class:`ReduceOutcome`.

A failed reduce attempt (restart or failover) replays its partition
whole, like every other node operation: from its sorted runs, or pulled
and sorted again when they went with the attempt or live on a lost
owner; the candidates it offers again are rejected by the out-degree
bit-vector (DESIGN.md §2g records why chunk checkpoints were deleted).
Detection latency is ``node_timeout`` and nothing else.

Everything is instrumented: ``failover`` spans, ``heartbeat-miss``/
``node-lost`` instants on the cluster track (and the reduce's
``token-retry`` / ``close-retry`` instants, one a failed attempt), and an
:class:`~repro.telemetry.EventMeter` of resilience counters surfaced in
``DistributedResult.notes``.
"""

from __future__ import annotations

import errno
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..config import AssemblyConfig
from ..errors import DistributedProtocolError, FaultInjected
from ..extmem.partitions import SIDES, KeyRange, length_of, partition_sides
from ..faults import plan as faults
from ..graph.bitvector import PackedBitVector
from ..seq.packing import PackedReadStore
from ..telemetry import EventMeter
from ..trace.tracer import NULL_TRACER
from .message import ActiveMessageLayer
from .node import WorkerNode

#: Read blocks dealt per node before the first round.
BLOCKS_PER_NODE = 4

#: Hard cap on heartbeat-miss instants emitted per detection (trace hygiene).
_MAX_MISS_INSTANTS = 16

#: Owners tried per partition before it is declared unrecoverable. Two is
#: deliberate: a partition that kills its restarted original owner *and* a
#: fresh failover owner is poisoned data, not node failure — burning every
#: surviving node on it would turn one bad partition into a dead cluster.
_MAX_OWNERS_PER_PARTITION = 2


@dataclass(frozen=True)
class DroppedPartition:
    """One partition degraded mode gave up on."""

    length: int
    owner: int           #: last owner that failed it
    records: int         #: candidate records lost (what its pull wrote)
    reason: str

    def __str__(self) -> str:
        return (f"partition {self.length} (node{self.owner:02d}, "
                f"{self.records:,} candidates): {self.reason}")


@dataclass
class DegradedRunReport:
    """What a degraded-mode completion left behind.

    Contig-level impact: every dropped partition removes its candidate
    overlaps of exactly that length from the greedy graph, so contigs that
    relied on them end (or split) where such an overlap would have extended
    them — quantified here as the share of candidate records lost.
    """

    dropped: tuple[DroppedPartition, ...]
    lost_nodes: tuple[int, ...]
    node_restarts: int
    failovers: int
    candidates_total: int = 0

    @property
    def dropped_lengths(self) -> tuple[int, ...]:
        """Overlap lengths missing from the assembly."""
        return tuple(sorted(d.length for d in self.dropped))

    @property
    def candidates_dropped(self) -> int:
        """Candidate overlap records that never reached the graph."""
        return sum(d.records for d in self.dropped)

    def summary(self) -> str:
        """Human-readable degraded-run report."""
        share = (100.0 * self.candidates_dropped / self.candidates_total
                 if self.candidates_total else 0.0)
        lines = [
            f"DEGRADED RUN: {len(self.dropped)} partition(s) dropped, "
            f"{len(self.lost_nodes)} node(s) lost "
            f"({self.node_restarts} restarts, {self.failovers} failovers)",
            f"  contig-level impact: {self.candidates_dropped:,} candidate "
            f"overlaps lost ({share:.2f}% of all candidates); contigs may "
            f"end early at overlap lengths {list(self.dropped_lengths)}",
        ]
        lines.extend(f"  dropped {d}" for d in self.dropped)
        return "\n".join(lines)


@dataclass
class ReduceOutcome:
    """What the supervisor reports back for one reduce partition."""

    length: int | KeyRange
    ok: bool = False
    #: The surviving attempt's node, or the last owner of a dropped one.
    node: int = -1
    #: What the surviving attempt returned (``None`` for a dropped one).
    value: object = None
    #: Failed attempts, in order, as ``DistributedResult.token_trace``
    #: keeps them (:func:`trace_entry`): ``{"length", "node", "attempt",
    #: "ok", "wasted_s", "sim1"}``, ``sim1`` the failed node's clock when
    #: the attempt died.
    failed: list[dict] = field(default_factory=list)
    #: Attempts run on any owner (0 when no owner was alive to try).
    attempts: int = 0


def trace_entry(key, **fields) -> dict:
    """One reduce attempt of partition ``key`` as the result's traces keep
    it: its length, a key range's index as ``range``, then ``fields``."""
    entry = {"length": length_of(key)}
    if isinstance(key, KeyRange):
        entry["range"] = key.index
    return {**entry, **fields}


class _NodeLost(Exception):
    """Internal: the target node's restart budget is exhausted."""


class ClusterSupervisor:
    """Owns the worker nodes and the whole failure ladder.

    The cluster driver delegates every node operation here; clean runs take
    the zero-overhead fast path (one ``node_op`` hook visit per operation,
    nothing else), faulted runs go through detect → restart → failover →
    degraded, with all detection time charged to the simulated clocks so
    the token timeline stays causal and monotone.
    """

    def __init__(self, config: AssemblyConfig, n_nodes: int, root: Path,
                 messages: ActiveMessageLayer, store: PackedReadStore, *,
                 tracer=None):
        self.config = config
        self.n_nodes = n_nodes
        self.root = root
        self.messages = messages
        self.store = store
        self.tracer = tracer  # raw SpanTracer | None, for WorkerNode ctor
        self.ctracer = tracer if tracer is not None else NULL_TRACER
        self.meter = EventMeter()
        self.nodes = [self._worker(i) for i in range(n_nodes)]
        self.lost: set[int] = set()
        self.restarts_used: dict[int, int] = {}
        #: The read blocks each producer's holder maps every round, dealt
        #: round-robin before anything is mapped (block ``i`` to producer
        #: ``i mod n``). Never move between ids.
        self.block_ranges: dict[int, list[tuple[int, int]]] = {}
        block_reads = -(-store.n_reads // (n_nodes * BLOCKS_PER_NODE))
        for i, start in enumerate(range(0, store.n_reads, block_reads)):
            self.block_ranges.setdefault(i % n_nodes, []).append(
                (start, min(start + block_reads, store.n_reads)))
        #: The node holding each producer id: the producer, or the survivor
        #: that took it over when it was lost.
        self.holder = list(range(n_nodes))
        #: Records each returned pull wrote, by ``(side, length)``: what a
        #: restarted owner's unsorted partition must still hold.
        self.pulled: dict[tuple[str, int], int] = {}
        self.owner_of: dict[int, int] = {}
        #: The lengths each node pulled this round, by node id (a length
        #: failed over to a node is not among them: it never pulled it).
        self.owned: dict[int, list[int]] = {}
        self.phase = "map-round"
        #: The current round's lengths and out-degree snapshot, as every
        #: node holds it: kept here to hand to a restarted node.
        self.round_lengths: tuple[int, ...] = ()
        self.closed: PackedBitVector | None = None
        self.dropped: list[DroppedPartition] = []

    # -- small helpers ---------------------------------------------------------

    def _worker(self, node_id: int) -> WorkerNode:
        return WorkerNode(node_id, self.config, self.root, self.messages,
                          self.store, tracer=self.tracer,
                          lone=self.n_nodes == 1)

    def alive(self) -> list[WorkerNode]:
        """Current nodes not declared lost, in node-id order."""
        return [n for n in self.nodes if n.node_id not in self.lost]

    def _survivors(self) -> list[WorkerNode]:
        """:meth:`alive`, which must not be empty."""
        candidates = self.alive()
        if not candidates:
            raise DistributedProtocolError(
                "no surviving nodes: every worker exhausted its restart budget")
        return candidates

    def master(self) -> WorkerNode:
        """The first alive node: it holds the graph's bits and compresses."""
        return self._survivors()[0]

    @staticmethod
    def _least_loaded(nodes: list[WorkerNode]) -> WorkerNode:
        return min(nodes, key=lambda n: n.ctx.clock.total_seconds)

    # -- death, detection, restart, loss ---------------------------------------

    def _run_on_node(self, node_id: int, op: str, fn,
                     hop: ReduceOutcome | None = None):
        """The full ladder for one operation on one node: ``fn(node)``.

        A fault it raises is the death of the scope it names (this node, a
        peer that died servicing its message, the writer of a lost write),
        and its crash is acknowledged; a full disk is the death of the node
        whose disk it is (the plan names it; a real one is this node's).
        Any other ``OSError`` is no node's death and is raised again. The
        attempt's seconds are booked as ``wasted_s`` (and on ``hop``, a
        reduce hop's, as a failed attempt), heartbeat detection runs, and
        the dead node is restarted, or, budget exhausted, marked lost; then
        the operation runs again. No operation appends to streams an
        earlier one opened (a map writes its pieces anew, a pull starts its
        partitions again), so one cut short by another scope's death runs
        again as is. With this node lost it raises :class:`_NodeLost` for
        the phase driver to fail the work over.
        """
        cycles = 0
        while node_id not in self.lost:
            cycles += 1
            if cycles > self.n_nodes * (self.config.node_restarts + 2) + 2:
                raise DistributedProtocolError(
                    f"recovery did not converge for {op} on node {node_id}")
            node = self.nodes[node_id]
            if hop is not None:
                hop.attempts += 1
            before = node.ctx.clock.total_seconds
            try:
                with faults.scoped(node.scope):
                    faults.node_op(node.scope, op)
                    return fn(node)
            except (FaultInjected, OSError) as exc:
                if isinstance(exc, OSError) and exc.errno != errno.ENOSPC:
                    raise
                victim = getattr(exc, "scope", None) or node.scope
                faults.clear_crash(scope=victim)
                wasted = node.ctx.clock.total_seconds - before
                self.meter.bump("wasted_s", wasted)
                if hop is not None:
                    hop.failed.append(trace_entry(
                        hop.length, node=node_id, attempt=hop.attempts - 1,
                        ok=False, wasted_s=wasted,
                        sim1=node.ctx.clock.total_seconds))
                self._handle_death(int(victim.removeprefix("node")))
        raise _NodeLost(f"node {node_id} lost")

    def _handle_death(self, node_id: int) -> None:
        """Detect, then restart or permanently lose one dead node."""
        if node_id in self.lost:
            return
        dead = self.nodes[node_id]
        detect_at, misses = self._detect(dead)
        used = self.restarts_used.get(node_id, 0)
        if used < self.config.node_restarts:
            self.restarts_used[node_id] = used + 1
            self._restart(node_id, detect_at, misses)
        else:
            self._mark_lost(node_id)

    def _detect(self, dead: WorkerNode) -> tuple[float, int]:
        """Heartbeat-timeout detection on the simulated clock.

        The node's last heartbeat went out at the last whole
        ``heartbeat_interval`` before it died; the supervisor declares it
        dead ``node_timeout`` after that beat. Pure arithmetic on the
        simulated clock — the same failure always detects at the same
        instant.
        """
        hb = self.config.heartbeat_interval
        t_fail = dead.ctx.clock.total_seconds
        last_hb = math.floor(t_fail / hb) * hb
        detect_at = max(t_fail, last_hb + self.config.node_timeout)
        misses = max(1, int(round((detect_at - last_hb) / hb)))
        self.meter.bump("heartbeat_misses", misses)
        if self.ctracer.enabled:
            for k in range(1, min(misses, _MAX_MISS_INSTANTS) + 1):
                self.ctracer.instant("heartbeat-miss", track="cluster",
                                     cat="resilience", det=True,
                                     sim_at=last_hb + k * hb,
                                     node=dead.node_id, miss=k)
        return detect_at, misses

    def _restart(self, node_id: int, detect_at: float, misses: int) -> None:
        """Replace a dead node with a fresh worker on the same storage.

        The replacement gets the round's snapshot again and does no work:
        the operation that runs again rebuilds what it needs
        (:meth:`_restore_pieces`, :meth:`_sorted`)."""
        dead = self.nodes[node_id]
        t_fail = dead.ctx.clock.total_seconds
        wall0 = time.perf_counter()
        dead.abandon()
        fresh = self._worker(node_id)
        fresh.ctx.clock.advance_to(dead.ctx.clock)
        gap = detect_at - fresh.ctx.clock.total_seconds
        if gap > 0:
            fresh.ctx.clock.charge("retry", gap)
        network = self.config.network
        fresh.ctx.clock.charge("network", misses * network.heartbeat_seconds())
        if self.closed is not None:
            fresh.closed = self.closed
            fresh.ctx.clock.charge(
                "network", network.transfer_seconds(self.closed.nbytes))
        # What the dead worker's host still held, its pieces, partitions
        # and read blocks let go, is not its own (the master's graph): the
        # replacement maps and sorts beside it all the same.
        if dead.ctx.host_pool.used_bytes:
            fresh.ctx.host_pool.alloc(dead.ctx.host_pool.used_bytes,
                                      label="resident")
        self.nodes[node_id] = fresh
        self.meter.bump("node_restarts")
        if self.ctracer.enabled:
            self.ctracer.complete("failover", wall0, time.perf_counter(),
                                  track="cluster", cat="resilience", det=True,
                                  sim0=t_fail,
                                  sim1=fresh.ctx.clock.total_seconds,
                                  node=node_id, action="restart",
                                  phase=self.phase)

    def _mark_lost(self, node_id: int) -> None:
        """Lose a node for good: the least-loaded survivor takes the
        producer ids it held (its own and those it took over) and maps
        their blocks with its own (:meth:`_restore_pieces`,
        :meth:`map_phase`). With no survivor there is nothing left to pull
        for."""
        dead = self.nodes[node_id]
        dead.abandon()
        self.lost.add(node_id)
        self.meter.bump("nodes_lost")
        if self.ctracer.enabled:
            self.ctracer.instant("node-lost", track="cluster",
                                 cat="resilience", det=True,
                                 sim_at=dead.ctx.clock.total_seconds,
                                 node=node_id, phase=self.phase)
        self.meter.bump("failovers")
        survivors = self.alive()
        if survivors:
            survivor = self._least_loaded(survivors).node_id
            for producer in self._held_by(node_id):
                self.holder[producer] = survivor

    def _held_by(self, node_id: int) -> list[int]:
        """The producer ids ``node_id`` holds, ascending."""
        return [p for p, holder in enumerate(self.holder) if holder == node_id]

    def _map_pieces(self, node: WorkerNode, producers: list[int],
                    lengths=None) -> None:
        """``node`` maps the producers' blocks for ``lengths`` (the round's)."""
        node.map_pieces({p: self.block_ranges.get(p, []) for p in producers},
                        lengths or self.round_lengths)

    def _restore_pieces(self, lengths: list[int]) -> None:
        """Every holder maps again, in its own fault scope, the pieces of
        ``lengths`` and of the round's untaken lengths it lost, took over
        or served; each ``(producer, length)`` is one ``pieces_remapped``."""
        wanted = [length for length in self.round_lengths
                  if length in lengths or ("P", length) not in self.pulled]
        for holder in self.alive():
            stale: dict[tuple[int, ...], list[int]] = {}
            for producer in self._held_by(holder.node_id):
                need = tuple(length for length in wanted
                             if not holder.holds(producer, length))
                if need:
                    stale.setdefault(need, []).append(producer)
            for need, producers in stale.items():
                with faults.scoped(holder.scope):
                    self._map_pieces(holder, producers, need)
                self.meter.bump("pieces_remapped", len(need) * len(producers))

    # -- rebuild from lineage --------------------------------------------------

    def _sorted(self, node: WorkerNode, lengths) -> None:
        """Make ``node``'s sorted runs of ``lengths`` ready, from lineage.

        The one path that brings an owner's sorted runs back, for the sort
        op and for a reduce attempt that finds none (a restarted owner, a
        held run a cut-short attempt consumed, a failover owner). A length
        with no sorted run is pulled again first if the node does not own
        it (a failover owner never pulled it) or its unsorted partition no
        longer holds what its pull wrote; then the node sorts them all.
        """
        stale = [length for length in lengths if not node.has_sorted(length)
                 and (length not in self.owned.get(node.node_id, ())
                      or self._short_partition(node, length))]
        if stale:
            self._rebuild_on(node, stale)
        node.sort_lengths(lengths)

    def _short_partition(self, node: WorkerNode, length: int) -> bool:
        """Whether an unsorted side of ``length`` lost what its pull wrote.

        A sorted run is trusted: ``sort_file`` publishes it by atomic rename.
        A torn write leaves a partial record, so fewer whole ones.
        """
        return any(
            (side, length) in self.pulled
            and not node.shuffled.path(side, length, sorted_run=True).exists()
            and node.shuffled.records_in(side, length)
            != self.pulled[(side, length)]
            for side in partition_sides(length, self.store.read_length))

    def _pull(self, node: WorkerNode, lengths: list[int]) -> int:
        """``node`` pulls ``lengths``; what it wrote becomes their lineage."""
        self._restore_pieces(lengths)
        pulled = node.pull_partitions(self.store, self.holder, lengths)
        self.pulled.update({
            (side, length): node.shuffled.records_in(side, length)
            for length in lengths
            for side in partition_sides(length, self.store.read_length)})
        return pulled

    def _pulled_records(self, length: int) -> int:
        """Records the pull of ``length`` wrote, every side."""
        return sum(self.pulled.get((side, length), 0) for side in SIDES)

    def _rebuild_on(self, node: WorkerNode, lengths: list[int]) -> None:
        """Pull shuffled partitions again, after deleting what is left of them."""
        lengths = sorted(set(lengths))
        sim0 = node.ctx.clock.total_seconds
        for length in lengths:
            for side in SIDES:
                # A stale sorted file would make the sort skip the new input.
                node.shuffled.delete(side, length)
                node.shuffled.delete(side, length, sorted_run=True)
        if node.lone:
            self._map_pieces(node, [node.node_id])  # its pieces are these
        self._pull(node, lengths)
        self.meter.bump("partitions_rebuilt", len(lengths))
        # Rebuild time is work the failure destroyed — the benchmark's
        # "lost work" denominator.
        self.meter.bump("rebuild_s", node.ctx.clock.total_seconds - sim0)

    # -- phase drivers ---------------------------------------------------------

    def begin_round(self, closed: PackedBitVector | None, lengths) -> None:
        """Freeze the round: its lengths, and the filter every node gets.

        The master broadcasts its copy of the bit-vector (one transfer per
        peer on its clock). Every piece of the round is mapped under it,
        so a partition rebuilt after a failure is the lost one byte for byte.
        """
        self.round_lengths = tuple(lengths)
        self.closed = closed
        alive = self.alive()
        for node in alive:
            node.closed = closed
        if closed is not None and len(alive) > 1:
            peer = self.config.network.transfer_seconds(closed.nbytes)
            alive[0].ctx.clock.charge("network", (len(alive) - 1) * peer)

    def _on_each(self, op: str, node_ids: list[int], fn) -> list:
        """``fn(node)`` on each node through the ladder, in order;
        a node lost on the way is skipped. Returns what the others
        returned."""
        done = []
        for node_id in node_ids:
            try:
                done.append(self._run_on_node(node_id, op, fn))
            except _NodeLost:
                pass
        return done

    def map_phase(self) -> None:
        """A round's map: every holder maps the blocks of the producers it
        holds, for the round's lengths under its snapshot."""
        self.phase = "map-round"
        self._on_each("map-round", [n.node_id for n in self.alive()],
                      lambda node: self._map_pieces(
                          node, self._held_by(node.node_id)))

    def shuffle_phase(self, lengths: list[int]) -> int:
        """One round's all-to-all aggregation.

        Ownership is round-robin over the alive nodes, so a round of
        ``n_nodes`` consecutive lengths gives each of them one, as do the
        whole-read length's ``n_nodes`` key ranges (range ``i`` to the
        ``i``-th). A node lost on the way keeps its partitions until the
        reduce re-homes them (:meth:`reduce_partition`). Returns bytes
        pulled.
        """
        self.phase = "shuffle"
        alive_ids = [n.node_id for n in self._survivors()]
        for key in lengths:
            turn = key.index if isinstance(key, KeyRange) \
                else key - self.config.min_overlap
            self.owner_of[key] = alive_ids[turn % len(alive_ids)]
        # Ownership turns over before anyone pulls: a node restarted while
        # serving a peer must not take last round's lengths for its own.
        self.owned = {node_id: sorted(length for length in lengths
                                      if self.owner_of[length] == node_id)
                      for node_id in alive_ids}
        return sum(self._on_each(
            "pull", [node_id for node_id in alive_ids if self.owned[node_id]],
            lambda node: self._pull(node, self.owned[node.node_id])))

    def sort_phase(self) -> None:
        """One round's per-node local sorts (a lost node's wait for the token)."""
        self.phase = "sort"
        self._on_each("sort", [n.node_id for n in self.alive()
                               if self.owned.get(n.node_id)],
                      lambda node: self._sorted(
                          node, self.owned[node.node_id]))

    # -- reduce ---------------------------------------------------------------

    def partition_has_data(self, length: int) -> bool:
        """Whether the token must visit ``length``.

        Genuinely empty partitions are skipped by the token loop exactly as
        in the fail-stop driver. A lost owner's partition is visited and
        rebuilt whether or not its pull returned; any other has its sorted
        runs or the records its pull wrote.
        """
        owner = self.owner_of[length]
        return owner in self.lost or self.nodes[owner].has_sorted(length) \
            or self._pulled_records(length) > 0

    # Wrapped by benchmarks/perf/perf_spans.py, its only reader.
    def commit_chunk(self, *args) -> None:
        """Commits nothing: a partition is replayed whole."""

    # Wrapped by benchmarks/perf/perf_spans.py, its only reader.
    def chunk_resume(self, *args) -> None:
        """Resumes nothing: a partition is replayed whole."""

    # Wrapped by benchmarks/perf/perf_spans.py, its only reader.
    def finish_partition(self, *args) -> None:
        """Retires nothing: no progress is kept inside a partition."""

    def reduce_partition(self, length: int, attempt_fn) -> ReduceOutcome:
        """Run one token hop through the ladder.

        ``attempt_fn(node)`` performs the actual read + reduce on ``node``;
        the outcome carries what the surviving attempt returned. An
        attempt that finds no sorted run (a restarted owner, a held run an
        attempt cut short consumed, a failover owner) makes it ready first
        (:meth:`_sorted`), so a death in that rebuild is a failed attempt
        like any other. A lost owner's partition moves to the least-loaded
        survivor not yet tried; a partition that no owner survives, after
        :data:`_MAX_OWNERS_PER_PARTITION` owners or with none left, is
        dropped into the :class:`DegradedRunReport`.
        """
        self.phase = "reduce"

        def attempt(node: WorkerNode):
            if not node.has_sorted(length):
                self._sorted(node, [length])
            return attempt_fn(node)

        hop = ReduceOutcome(length)
        tried: set[int] = set()
        while len(tried) < _MAX_OWNERS_PER_PARTITION:
            owner_id = self.owner_of[length]
            if owner_id in self.lost:
                candidates = [n for n in self.alive() if n.node_id not in tried]
                if not candidates:
                    break
                owner = self._least_loaded(candidates)
                owner_id = self.owner_of[length] = owner.node_id
                self.meter.bump("failovers")
                if self.ctracer.enabled:
                    wall = time.perf_counter()
                    self.ctracer.complete(
                        "failover", wall, wall, track="cluster",
                        cat="resilience", det=True,
                        sim0=owner.ctx.clock.total_seconds,
                        sim1=owner.ctx.clock.total_seconds,
                        node=owner_id, action="reassign", length=length)
            tried.add(owner_id)
            try:
                hop.value = self._run_on_node(owner_id, f"reduce[{length}]",
                                              attempt, hop)
            except _NodeLost:
                continue
            hop.ok, hop.node = True, owner_id
            return hop
        hop.node = self.owner_of[length]
        self.dropped.append(DroppedPartition(
            length=length, owner=hop.node,
            records=self._pulled_records(length),
            reason=f"no surviving owner after {max(hop.attempts, 1)} attempts"))
        self.meter.bump("partitions_dropped")
        if self.ctracer.enabled:
            self.ctracer.instant("partition-dropped", track="cluster",
                                 cat="resilience", det=True,
                                 sim_at=self.nodes[hop.node]
                                 .ctx.clock.total_seconds,
                                 length=length, node=hop.node)
        return hop

    # -- compress ---------------------------------------------------------------

    def compress(self, spell):
        """``spell(node)`` on the master (the first alive node),
        as a node operation: a death in it, a holder's serving a read
        block too, restarts the node that died and compress runs again; a
        lost master hands it to the next alive node, and a lost holder's
        blocks come from the survivor that took its ids."""
        self.phase = "compress"
        while True:
            try:
                return self._run_on_node(self.master().node_id, "compress",
                                         spell)
            except _NodeLost:
                continue

    def close(self) -> None:
        """Close every node's view of the store: its held blocks and
        their fingerprints go back."""
        for node in self.nodes:
            node.close()

    # -- reporting -------------------------------------------------------------

    def degraded_report(self, candidates_total: int) -> DegradedRunReport | None:
        """The degraded-run report, or ``None`` for a fully recovered run."""
        if not self.dropped:
            return None
        counters = self.meter.counters()
        return DegradedRunReport(
            dropped=tuple(self.dropped),
            lost_nodes=tuple(sorted(self.lost)),
            node_restarts=int(counters.get("node_restarts", 0)),
            failovers=int(counters.get("failovers", 0)),
            # Processed candidates plus the dropped ones = the clean total.
            candidates_total=candidates_total
            + sum(d.records for d in self.dropped))
