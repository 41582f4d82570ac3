"""Distributed resilience: heartbeats, deterministic retry, node recovery.

The paper's distributed reduce is a chain: the out-degree bit-vector token
travels through partition owners in descending length order, so one dead
node stalls the whole assembly. This module gives the simulated cluster the
failure ladder a production deployment would have, entirely on the
simulated clock so every timeline is deterministic and replayable:

1. **Bounded in-place retry** — every node operation (map block, shuffle
   pull, sort, reduce attempt) runs under a
   :class:`~repro.faults.RetryPolicy`: exponential backoff with seeded
   jitter, charged to the node's ``retry`` clock category.
2. **Heartbeat/timeout detection** — when retries exhaust (or an injected
   ``node-crash`` kills the process outright), the supervisor declares the
   node dead at ``last_heartbeat + node_timeout`` on the simulated clock,
   emitting one ``heartbeat-miss`` instant per missed beat.
3. **Checkpointed node restart** — a fresh :class:`WorkerNode` reopens the
   dead node's private storage; the per-phase artifact ledger (digests
   written at each phase boundary) tells it which partitions survived and
   which must be replayed. Only damaged partitions are rebuilt — from the
   retained map-phase pieces of live peers, or recomputed from the shared
   packed store for lost peers — byte-identically, because a shuffled
   partition is the concatenation of per-peer pieces in node-id order and
   each piece is re-derived in its original block order.
4. **Failover re-shuffle** — a node whose restart budget is exhausted is
   *lost*; its orphaned partitions are reassigned to surviving owners and
   rebuilt on demand as the token reaches them.
5. **Degraded-mode completion** — when a partition survives no owner, the
   run finishes on the surviving nodes and reports the drop in a
   :class:`DegradedRunReport` instead of raising (``allow_degraded=False``
   restores the old fail-stop behaviour).

Shuffle, sort and reduce run in rounds (:mod:`repro.distributed.cluster`),
and recovery is scoped to the round in flight. Ownership is per round
(:meth:`ClusterSupervisor.shuffle_phase` deals the round's lengths to the
alive nodes); the round's frozen out-degree snapshot is held here
(:meth:`ClusterSupervisor.begin_round`) and handed again to a restarted
node; a node ledger's ``shuffle`` / ``sort`` records name the current
round's files only, so a replay or failover touches the one or two
partitions a node owns *now*, never one the token has consumed. Every
pull and every rebuild inside a round filters with that one snapshot
(:meth:`WorkerNode.read_piece`), which is what keeps a rebuilt partition
the lost one byte for byte.

A failed reduce attempt (retry, restart or failover) replays its partition
whole from the sorted runs, like every other node operation; the candidates
it offers again are rejected by the out-degree bit-vector (DESIGN.md §2g
records why chunk checkpoints were deleted). Detection latency is
``node_timeout`` and nothing else.

Everything is instrumented: ``failover``/``backoff`` spans,
``heartbeat-miss``/``node-lost`` instants on the cluster track, and an
:class:`~repro.telemetry.EventMeter` of resilience counters surfaced in
``DistributedResult.notes``.
"""

from __future__ import annotations

import math
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..config import AssemblyConfig
from ..core.map_phase import run_map
from ..device.specs import DiskSpec, HostSpec
from ..errors import DistributedProtocolError, FaultInjected, MessageDropped
from ..extmem import PartitionStore
from ..faults import plan as faults
from ..faults.plan import NODE_CRASH
from ..faults.retry import RetryPolicy
from ..graph.bitvector import PackedBitVector
from ..seq.packing import PackedReadStore
from ..telemetry import EventMeter
from ..trace.tracer import NULL_TRACER
from .message import ActiveMessageLayer
from .network import NetworkSpec
from .node import WorkerNode

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
    records: int         #: candidate records lost (from the sort ledger)
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
    retries: int
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
            f"({self.node_restarts} restarts, {self.failovers} failovers, "
            f"{self.retries} retries)",
            f"  contig-level impact: {self.candidates_dropped:,} candidate "
            f"overlaps lost ({share:.2f}% of all candidates); contigs may "
            f"end early at overlap lengths {list(self.dropped_lengths)}",
        ]
        lines.extend(f"  dropped {d}" for d in self.dropped)
        return "\n".join(lines)


@dataclass
class ReduceOutcome:
    """What the supervisor reports back for one reduce partition."""

    ok: bool
    node: int
    t_graph: float = 0.0
    find_done: float = 0.0
    #: Failed attempts, in order: ``{"node", "attempt", "wasted_s"}``.
    failures: list[dict] = field(default_factory=list)
    attempts: int = 1
    dropped: DroppedPartition | None = None


class _NodeDeath(Exception):
    """Internal: a node (or a peer) must go through death detection."""

    def __init__(self, victims: list[str], cause: BaseException, op: str):
        super().__init__(f"{victims} died at {op}")
        self.victims = victims
        self.cause = cause
        self.op = op


class _NodeLost(Exception):
    """Internal: the target node's restart budget is exhausted."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} lost")
        self.node_id = node_id


class ClusterSupervisor:
    """Owns the worker nodes and the whole failure ladder.

    The cluster driver delegates every node operation here; clean runs take
    the zero-overhead fast path (one ``node_op`` hook visit per operation,
    nothing else), faulted runs go through retry → restart → failover →
    degraded, with all detection and backoff time charged to the simulated
    clocks so the token timeline stays causal and monotone.
    """

    def __init__(self, config: AssemblyConfig, n_nodes: int, root: Path,
                 network: NetworkSpec, messages: ActiveMessageLayer,
                 store: PackedReadStore, *, tracer=None,
                 disk: DiskSpec | None = None, host: HostSpec | None = None):
        self.config = config
        self.n_nodes = n_nodes
        self.root = root
        self.network = network
        self.messages = messages
        self.store = store
        self.tracer = tracer  # raw SpanTracer | None, for WorkerNode ctor
        self.ctracer = tracer if tracer is not None else NULL_TRACER
        self.disk = disk
        self.host = host
        self.policy = RetryPolicy(max_attempts=config.reduce_max_attempts,
                                  base_backoff_s=config.retry_backoff_s,
                                  seed=config.seed)
        self.meter = EventMeter()
        self.nodes = [WorkerNode(i, config, root, messages, disk=disk,
                                 host=host, tracer=tracer)
                      for i in range(n_nodes)]
        self.lost: set[int] = set()
        self.restarts_used: dict[int, int] = {}
        #: Read ranges each node mapped, in assignment order — the lineage
        #: that lets a lost node's map piece be recomputed byte-identically.
        self.block_ranges: dict[int, list[tuple[int, int]]] = {}
        self.owner_of: dict[int, int] = {}
        self.phase = "map"
        #: The current round's out-degree snapshot, as every node holds it:
        #: kept here to hand to a restarted node.
        self.closed: PackedBitVector | None = None
        self.dropped: list[DroppedPartition] = []

    # -- small helpers ---------------------------------------------------------

    def alive(self) -> list[WorkerNode]:
        """Current nodes not declared lost, in node-id order."""
        return [n for n in self.nodes if n.node_id not in self.lost]

    def _least_loaded(self) -> WorkerNode:
        candidates = self.alive()
        if not candidates:
            raise DistributedProtocolError(
                "no surviving nodes: every worker exhausted its restart budget")
        return min(candidates, key=lambda n: n.ctx.clock.total_seconds)

    # -- the bounded attempt loop ---------------------------------------------

    def _attempt_cycle(self, node: WorkerNode, op: str, fn, *,
                       counter: list[int] | None = None,
                       failures: list[dict] | None = None,
                       in_place: bool = True):
        """Run ``fn(node, attempt)`` with bounded in-place retries.

        Raises :class:`_NodeDeath` when retries exhaust, when the fault was
        an explicit ``node-crash`` (the process is gone — retrying in place
        is meaningless), when the failure killed a *different* node (a peer
        died servicing our message), or immediately when ``in_place`` is
        off — operations that append to shared state (map blocks) cannot be
        re-run in place without duplicating their partial output, so they
        go straight to wipe-and-replay recovery.
        """
        for local in range(self.policy.max_attempts):
            if counter is not None:
                attempt = counter[0]
                counter[0] += 1
            else:
                attempt = local
            before = node.ctx.clock.total_seconds
            try:
                with faults.scoped(node.scope):
                    faults.node_op(node.scope, op)
                    return fn(node, attempt)
            except (FaultInjected, MessageDropped) as exc:
                wasted = node.ctx.clock.total_seconds - before
                self.meter.bump("retries")
                self.meter.bump("wasted_s", wasted)
                if failures is not None:
                    failures.append({"node": node.node_id, "attempt": attempt,
                                     "wasted_s": wasted})
                if isinstance(exc, MessageDropped):
                    # Nobody died — drops are retried in place; only an
                    # exhausted budget makes the destination a suspect.
                    victims, fatal = [], False
                else:
                    victims = self._victims_of(node, exc)
                    for scope in victims:
                        faults.clear_crash(scope=scope)
                    plan = faults.active_plan()
                    fatal = plan is not None and bool(plan.events) \
                        and plan.events[-1].kind == NODE_CRASH
                others = [s for s in victims if s != node.scope]
                if others or fatal or not in_place \
                        or local + 1 >= self.policy.max_attempts:
                    victims = victims or self._victims_of(node, exc)
                    raise _NodeDeath(victims or [node.scope], exc, op) from exc
                self._backoff(node, local + 1, op)
        raise AssertionError("unreachable")  # pragma: no cover

    def _victims_of(self, node: WorkerNode, exc: BaseException) -> list[str]:
        """Which node scopes this failure killed."""
        if isinstance(exc, MessageDropped):
            # Nobody died — but a *persistent* drop makes the destination
            # unreachable; the last recorded event names the suspect.
            plan = faults.active_plan()
            if plan is not None and plan.events:
                label = plan.events[-1].path  # "node00->node01:handler"
                if "->" in label:
                    return [label.split("->")[1].split(":")[0]]
            return [node.scope]
        return [s for s in faults.crashed_scopes() if s is not None] \
            or [node.scope]

    def _backoff(self, node: WorkerNode, attempt: int, op: str) -> None:
        """Charge one deterministic backoff wait to the node's clock."""
        delay = self.policy.backoff_s(attempt, key=op)
        sim0 = node.ctx.clock.total_seconds
        node.ctx.clock.charge("retry", delay)
        self.meter.bump("backoffs")
        self.meter.bump("backoff_s", delay)
        self.meter.gauge("backoff_s_max", delay)
        if self.ctracer.enabled:
            wall = time.perf_counter()
            self.ctracer.complete("backoff", wall, wall, track="cluster",
                                  cat="resilience", det=True, sim0=sim0,
                                  sim1=sim0 + delay, node=node.node_id,
                                  attempt=attempt, op=op)

    # -- death, detection, restart, loss ---------------------------------------

    def _run_on_node(self, node_id: int, op: str, fn, *,
                     counter: list[int] | None = None,
                     failures: list[dict] | None = None,
                     in_place: bool = True):
        """The full ladder for one operation on one node.

        Retries in place; on death runs heartbeat detection and either
        restarts the node (replaying damaged state) and tries again, or —
        budget exhausted — marks it lost and raises :class:`_NodeLost` for
        the phase driver to fail the work over.
        """
        cycles = 0
        while True:
            if node_id in self.lost:
                raise _NodeLost(node_id)
            cycles += 1
            if cycles > self.n_nodes * (self.config.node_restarts + 2) + 2:
                raise DistributedProtocolError(
                    f"recovery did not converge for {op} on node {node_id}")
            try:
                return self._attempt_cycle(self.nodes[node_id], op, fn,
                                           counter=counter, failures=failures,
                                           in_place=in_place)
            except _NodeDeath as death:
                for scope in death.victims:
                    self._handle_death(int(scope.removeprefix("node")))

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
        """Replace a dead node with a fresh worker on the same storage."""
        dead = self.nodes[node_id]
        t_fail = dead.ctx.clock.total_seconds
        wall0 = time.perf_counter()
        dead.abandon()
        fresh = WorkerNode(node_id, self.config, self.root, self.messages,
                           disk=self.disk, host=self.host, tracer=self.tracer)
        fresh.ctx.clock.advance_to(dead.ctx.clock)
        gap = detect_at - fresh.ctx.clock.total_seconds
        if gap > 0:
            fresh.ctx.clock.charge("retry", gap)
        fresh.ctx.clock.charge(
            "network", misses * self.network.heartbeat_seconds())
        fresh.owned_lengths = list(dead.owned_lengths)
        fresh.mapped_reads = dead.mapped_reads
        if self.closed is not None:
            fresh.closed = self.closed
            fresh.ctx.clock.charge(
                "network", self.network.transfer_seconds(self.closed.nbytes))
        # What the dead worker's host still held is not its own (the
        # master's graph): the replacement sorts beside it all the same.
        if dead.ctx.host_pool.used_bytes:
            fresh.ctx.host_pool.alloc(dead.ctx.host_pool.used_bytes,
                                      label="resident")
        self.nodes[node_id] = fresh
        self.meter.bump("node_restarts")
        try:
            self._replay(fresh)
            replay_ok = True
        except (FaultInjected, MessageDropped):
            # The replacement died during its own replay: acknowledge and
            # go around the ladder again — the restart budget bounds this.
            faults.clear_crash(scope=fresh.scope)
            replay_ok = False
        if self.ctracer.enabled:
            self.ctracer.complete("failover", wall0, time.perf_counter(),
                                  track="cluster", cat="resilience", det=True,
                                  sim0=t_fail,
                                  sim1=fresh.ctx.clock.total_seconds,
                                  node=node_id, action="restart",
                                  phase=self.phase)
        if not replay_ok:
            self._handle_death(node_id)

    def _mark_lost(self, node_id: int) -> None:
        dead = self.nodes[node_id]
        dead.abandon()
        self.lost.add(node_id)
        self.meter.bump("nodes_lost")
        if self.ctracer.enabled:
            self.ctracer.instant("node-lost", track="cluster",
                                 cat="resilience", det=True,
                                 sim_at=dead.ctx.clock.total_seconds,
                                 node=node_id, phase=self.phase)

    # -- checkpointed replay ---------------------------------------------------

    def _replay(self, node: WorkerNode) -> None:
        """Bring a restarted node's storage back to the current phase.

        Ledger-driven: only artifacts whose digests are missing or damaged
        are recomputed; everything the crash did not touch is kept as-is.
        Past map, that is the current round's partitions and nothing else:
        earlier rounds' are consumed, later rounds' do not exist yet.
        """
        if self.phase == "map":
            # Map pieces are append-streams shared by every block the node
            # ran: there is no per-block undo, so wipe and re-run the
            # node's recorded blocks in their original order (byte-identical
            # by construction).
            blocks = self.block_ranges.get(node.node_id, [])
            for path in node.map_partitions.root.glob("*.run"):
                path.unlink()
            for start, stop in blocks:
                run_map(node.ctx, self.store, node.map_partitions,
                        read_range=(start, stop))
            self.meter.bump("partitions_replayed", len(blocks))
        elif self.phase == "shuffle":
            # A crash mid-pull needs no replay: the retried pull truncates
            # and rewrites each partition. Only ledger-recorded partitions
            # that no longer digest clean are rebuilt.
            damaged = node.damaged_lengths("shuffle")
            if damaged:
                self._rebuild_on(node, damaged)
                self.meter.bump("partitions_replayed", len(damaged))
        elif self.phase == "sort":
            damaged = self._damaged_for_sort(node)
            if damaged:
                self._rebuild_on(node, damaged)
            self._sort_owned(node)
        elif self.phase == "reduce":
            damaged = node.damaged_lengths("sort")
            if damaged:
                self._rebuild_on(node, damaged)
                node.sort_lengths(damaged)
                self.meter.bump("partitions_replayed", len(damaged))

    def _sort_owned(self, node: WorkerNode):
        """Sort the node's partitions of this round.

        A lone node's pull renames its map pieces instead of serving them,
        so there the sort is what applies the round's snapshot.
        """
        return node.sort_lengths(node.owned_lengths,
                                 unserved=self.n_nodes == 1)

    def _damaged_for_sort(self, node: WorkerNode) -> list[int]:
        """Shuffle artifacts to rebuild mid-sort.

        An unsorted partition that fails its shuffle-ledger digest is only
        *damaged* if its sorted successor is absent too — the sort consumes
        (deletes) its input after the atomic publish, which is indistinct
        from corruption by digest alone.
        """
        return [length for length in node.damaged_lengths("shuffle")
                if not (node.shuffled.path("S", length, sorted_run=True).exists()
                        and node.shuffled.path("P", length,
                                               sorted_run=True).exists())]

    def _rebuild_on(self, node: WorkerNode, lengths: Iterable[int]) -> int:
        """Rebuild shuffled partitions on ``node`` from retained lineage."""
        lengths = sorted(set(lengths))
        if not lengths:
            return 0
        alive = {n.node_id: n for n in self.alive() if n is not node}
        alive[node.node_id] = node
        recompute = self._piece_provider(node, lengths)
        sim0 = node.ctx.clock.total_seconds
        try:
            pulled = node.rebuild_partitions(self.n_nodes, alive, lengths,
                                             recompute)
        finally:
            shutil.rmtree(node.ctx.workdir / "recover", ignore_errors=True)
        self.meter.bump("partitions_rebuilt", len(lengths))
        # Rebuild time is work the failure destroyed — the benchmark's
        # "lost work" denominator.
        self.meter.bump("rebuild_s", node.ctx.clock.total_seconds - sim0)
        return pulled

    def _piece_provider(self, rebuilder: WorkerNode, lengths: list[int],
                        ) -> Callable[[int, str, int], np.ndarray]:
        """Recompute lost peers' map pieces from the shared packed store.

        One map pass per peer, restricted to the needed lengths; the piece
        comes out byte-identical because the peer's blocks are
        re-fingerprinted in their original assignment order and leave
        through the same :meth:`WorkerNode.read_piece` (the rebuilder's
        snapshot is the round's, like the lost peer's was). Work is charged
        to the rebuilding node's own clock — recovery is never free.
        """
        only = frozenset(lengths)
        stores: dict[int, PartitionStore] = {}

        def recompute(peer_id: int, side: str, length: int) -> np.ndarray:
            if peer_id not in stores:
                tmp = PartitionStore(
                    rebuilder.ctx.workdir / "recover" / f"peer{peer_id:02d}",
                    rebuilder.dtype, rebuilder.ctx.accountant)
                for start, stop in self.block_ranges.get(peer_id, []):
                    run_map(rebuilder.ctx, self.store, tmp,
                            read_range=(start, stop), only_lengths=only)
                tmp.finalize()
                stores[peer_id] = tmp
            return rebuilder.read_piece(stores[peer_id], side, length)

        return recompute

    # -- phase drivers ---------------------------------------------------------

    def map_phase(self, n_blocks: int) -> None:
        """Hand read blocks to the least-loaded alive node, surviving loss."""
        self.phase = "map"
        block_reads = -(-self.store.n_reads // n_blocks)
        queue = deque((start, min(start + block_reads, self.store.n_reads))
                      for start in range(0, self.store.n_reads, block_reads))
        while queue:
            start, stop = queue[0]
            target = self._least_loaded()
            try:
                self._map_on(target.node_id, start, stop)
                queue.popleft()
            except _NodeLost:
                # The lost node's completed blocks are orphaned with it:
                # requeue them (ahead of the current block) for survivors.
                self.meter.bump("failovers")
                queue.extendleft(
                    reversed(self.block_ranges.pop(target.node_id, [])))
        sealed: set[int] = set()
        for node_id in [n.node_id for n in self.alive()]:
            try:
                self._run_on_node(
                    node_id, "seal-map",
                    lambda n, _a: (n.finish_map(), n.record_ledger("map")))
                sealed.add(node_id)
            except _NodeLost:
                self._remap_lost_blocks(node_id, sealed)

    def _map_on(self, node_id: int, start: int, stop: int) -> None:
        """Map one read block on a node and record it as that node's lineage."""
        self._run_on_node(
            node_id, f"map[{start}:{stop}]",
            lambda node, _a: node.map_block(self.store, start, stop),
            in_place=False)
        self.block_ranges.setdefault(node_id, []).append((start, stop))

    def _remap_lost_blocks(self, node_id: int, sealed: set[int]) -> None:
        """Re-run a seal-time casualty's blocks on a still-open survivor.

        When every survivor has already sealed, nothing is re-run: the
        blocks stay under the casualty's id as lineage, and the shuffle's
        rebuild path recomputes its map pieces from them like any other
        lost peer's.
        """
        orphans = list(self.block_ranges.pop(node_id, []))
        while orphans:
            self.meter.bump("failovers")
            open_nodes = [n for n in self.alive() if n.node_id not in sealed]
            if not open_nodes:
                self.block_ranges[node_id] = orphans
                return
            target = min(open_nodes, key=lambda n: n.ctx.clock.total_seconds)
            try:
                while orphans:
                    self._map_on(target.node_id, *orphans[0])
                    orphans.pop(0)
            except _NodeLost:
                # The stand-in died too; everything it absorbed is orphaned
                # again and moves to the next open survivor.
                orphans = self.block_ranges.pop(target.node_id, []) + orphans

    def begin_round(self, closed: PackedBitVector | None) -> None:
        """Freeze the round's filter: every node gets the same ``closed``.

        The master broadcasts its copy of the bit-vector (one transfer per
        peer on its clock). Every pull and every rebuild until the next
        round filters with it, so a partition rebuilt after a failure is
        the lost one byte for byte.
        """
        self.closed = closed
        alive = self.alive()
        for node in alive:
            node.closed = closed
        if closed is not None and len(alive) > 1:
            alive[0].ctx.clock.charge(
                "network",
                (len(alive) - 1) * self.network.transfer_seconds(closed.nbytes))

    def shuffle_phase(self, lengths: list[int]) -> int:
        """One round's all-to-all aggregation with owner failover.

        Ownership is round-robin over the alive nodes, so a round of
        ``n_nodes`` consecutive lengths gives each of them one. Returns
        bytes pulled.
        """
        self.phase = "shuffle"
        alive_ids = [n.node_id for n in self.alive()]
        for length in lengths:
            self.owner_of[length] = alive_ids[
                (length - self.config.min_overlap) % len(alive_ids)]
        # Ownership turns over before anyone pulls: a node restarted while
        # serving a peer must not take last round's lengths for its own.
        for node_id in alive_ids:
            self.nodes[node_id].owned_lengths = sorted(
                length for length in lengths
                if self.owner_of[length] == node_id)
        shuffle_bytes = 0
        orphans: list[int] = []
        for node_id in alive_ids:
            owned = self.nodes[node_id].owned_lengths
            if not owned:
                continue
            try:
                shuffle_bytes += self._pull_on(node_id, owned)
            except _NodeLost:
                orphans.extend(owned)
        if orphans:
            # The adopter's rebuild recomputes the lost nodes' pieces from
            # lineage, together with what it already owned.
            shuffle_bytes += self._fail_over(
                orphans, lambda owner_id, batch: self._pull_on(
                    owner_id, sorted(set(self.nodes[owner_id].owned_lengths)
                                     | set(batch)), rebuild=True))
        return shuffle_bytes

    def _fail_over(self, orphans: list[int], adopt):
        """Hand orphaned partitions to the least-loaded survivor until one
        keeps them.

        ``adopt(owner_id, batch)`` does the phase's work for the sorted
        ``batch`` on the new owner; when that node is lost in the attempt
        the same batch goes to the next survivor. Returns what ``adopt``
        returned.
        """
        batch = sorted(set(orphans))
        while True:
            owner_id = self._least_loaded().node_id
            for length in batch:
                self.owner_of[length] = owner_id
            self.meter.bump("failovers")
            try:
                return adopt(owner_id, batch)
            except _NodeLost:
                continue

    def _pull_on(self, node_id: int, owned: list[int], *,
                 rebuild: bool = False) -> int:
        """One node's shuffle pull (or lineage rebuild), guarded."""
        def pull(node: WorkerNode, _attempt: int) -> int:
            node.owned_lengths = owned
            if rebuild or self.lost:
                # Some peer is gone (or this is a failover): the rebuild
                # path pulls live pieces and recomputes lost ones from
                # lineage instead of messaging dead nodes.
                return self._rebuild_on(node, owned)
            return node.pull_owned_partitions(self.nodes, owned)

        pulled = self._run_on_node(node_id, "pull", pull)
        self._run_on_node(node_id, "ledger-shuffle",
                          lambda n, _a: n.record_ledger("shuffle"))
        return pulled

    def sort_phase(self) -> None:
        """One round's per-node local sorts with owner failover."""
        self.phase = "sort"
        orphans: list[int] = []
        for node_id in [n.node_id for n in self.alive()
                        if n.owned_lengths]:
            try:
                self._run_on_node(node_id, "sort",
                                  lambda node, _a: self._sort_owned(node))
                self._run_on_node(node_id, "ledger-sort",
                                  lambda n, _a: n.record_ledger("sort"))
            except _NodeLost:
                orphans.extend(self.nodes[node_id].owned_lengths)
        if orphans:
            self._fail_over(orphans, self._adopt_sorted)

    def _adopt_sorted(self, owner_id: int, batch: list[int]) -> None:
        """Rebuild, sort and ledger orphaned partitions on their new owner."""
        self._run_on_node(
            owner_id, "sort-failover",
            lambda node, _a: (self._rebuild_on(node, batch),
                              node.sort_lengths(batch)))
        # Fetch by id only now: a restart mid-op replaced the object.
        survivor = self.nodes[owner_id]
        survivor.owned_lengths = sorted(set(survivor.owned_lengths)
                                        | set(batch))
        self._run_on_node(owner_id, "ledger-sort",
                          lambda n, _a: n.record_ledger("sort"))

    # -- reduce ---------------------------------------------------------------

    def partition_has_data(self, length: int) -> bool:
        """Whether any node holds (or ever ledgered) data for ``length``.

        Genuinely empty partitions are skipped by the token loop exactly as
        in the fail-stop driver; partitions whose files are merely damaged
        or orphaned still have ledger records and go through recovery.
        """
        node = self.nodes[self.owner_of[length]]
        if node.node_id not in self.lost \
                and node.shuffled.path("S", length, sorted_run=True).exists() \
                and node.shuffled.path("P", length, sorted_run=True).exists():
            return True
        return self._ledgered_records(length) > 0

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

        ``attempt_fn(node)`` performs the actual read + reduce on ``node``
        and returns ``(t_graph, find_done)``. Ownership moves to a survivor
        when the owner is lost; after :data:`_MAX_OWNERS_PER_PARTITION`
        owners have failed the same partition it is dropped (degraded) or,
        with ``allow_degraded=False``, the historical
        ``DistributedProtocolError`` is raised.
        """
        self.phase = "reduce"
        counter = [0]
        failures: list[dict] = []
        tried: set[int] = set()
        while True:
            owner_id = self.owner_of[length]
            if owner_id in self.lost or len(tried) >= _MAX_OWNERS_PER_PARTITION:
                replacement = self._next_owner(length, tried, failures, counter)
                if isinstance(replacement, ReduceOutcome):
                    return replacement
                owner_id = replacement
            tried.add(owner_id)
            try:
                self._ensure_partition(owner_id, length)
                t_graph, find_done = self._run_on_node(
                    owner_id, f"reduce[{length}]",
                    lambda node, _a: attempt_fn(node),
                    counter=counter, failures=failures)
                return ReduceOutcome(ok=True, node=owner_id, t_graph=t_graph,
                                     find_done=find_done, failures=failures,
                                     attempts=max(counter[0], 1))
            except _NodeLost:
                continue

    def _next_owner(self, length: int, tried: set[int], failures: list[dict],
                    counter: list[int]):
        """Fail a partition over, or give up on it (degrade / raise)."""
        candidates = [n for n in self.alive() if n.node_id not in tried]
        last_owner = self.owner_of[length]
        if len(tried) >= _MAX_OWNERS_PER_PARTITION or not candidates:
            if not self.config.allow_degraded:
                raise DistributedProtocolError(
                    f"reduce token lost: partition {length} unrecoverable "
                    f"after {max(counter[0], 1)} attempts on nodes "
                    f"{sorted(tried) or [last_owner]}")
            drop = DroppedPartition(
                length=length, owner=last_owner,
                records=self._ledgered_records(length),
                reason=f"no surviving owner after "
                       f"{max(counter[0], 1)} attempts")
            self.dropped.append(drop)
            self.meter.bump("partitions_dropped")
            if self.ctracer.enabled:
                self.ctracer.instant("partition-dropped", track="cluster",
                                     cat="resilience", det=True,
                                     sim_at=self.nodes[last_owner]
                                     .ctx.clock.total_seconds,
                                     length=length, node=last_owner)
            return ReduceOutcome(ok=False, node=last_owner, failures=failures,
                                 attempts=max(counter[0], 1), dropped=drop)
        new_owner = min(candidates, key=lambda n: n.ctx.clock.total_seconds)
        self.owner_of[length] = new_owner.node_id
        self.meter.bump("failovers")
        if self.ctracer.enabled:
            wall = time.perf_counter()
            self.ctracer.complete("failover", wall, wall, track="cluster",
                                  cat="resilience", det=True,
                                  sim0=new_owner.ctx.clock.total_seconds,
                                  sim1=new_owner.ctx.clock.total_seconds,
                                  node=new_owner.node_id, action="reassign",
                                  length=length)
        return new_owner.node_id

    def _ensure_partition(self, owner_id: int, length: int) -> None:
        """Make sure the owner holds sorted data for ``length`` (failover)."""
        node = self.nodes[owner_id]
        s_sorted = node.shuffled.path("S", length, sorted_run=True)
        p_sorted = node.shuffled.path("P", length, sorted_run=True)
        if s_sorted.exists() and p_sorted.exists():
            return
        if length in node.owned_lengths and not self._ledgered_records(length):
            return  # genuinely empty partition: nothing to rebuild
        self._run_on_node(
            owner_id, f"rebuild[{length}]",
            lambda n, _a: (self._rebuild_on(n, [length]),
                           n.sort_lengths([length])))
        if length not in node.owned_lengths:
            node.owned_lengths = sorted(set(node.owned_lengths) | {length})

    def _ledgered_records(self, length: int) -> int:
        """Candidate records of one partition, from the sort ledgers.

        Several nodes may have ledgered the same partition (the original
        owner and a failover owner record byte-identical rebuilds), so the
        count is the *max* over nodes of each node's S+P record total —
        never the sum.
        """
        per_node = []
        for node in self.nodes:
            total = 0
            for rel, digest in node.ledger.recorded_artifacts("sort").items():
                if PartitionStore.length_of(rel) == length:
                    total += int(digest.split(":")[0]) // node.dtype.itemsize
            per_node.append(total)
        return max(per_node, default=0)

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
            retries=int(counters.get("retries", 0)),
            # Processed candidates plus the dropped ones = the clean total.
            candidates_total=candidates_total
            + sum(d.records for d in self.dropped))
