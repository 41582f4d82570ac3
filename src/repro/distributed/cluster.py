"""The distributed assembler and its phase barriers (§III.E).

Execution model: every node's work really runs (in this process, against
its private storage and budgets); *time* comes from each node's simulated
clock, and a barrier at the end of each phase advances every clock to the
slowest participant's. The phase timings this produces are the series
behind Fig. 10:

* **map** — the read blocks are dealt round-robin before the first round
  (the paper's master hands them out on GASNet work requests; on identical
  nodes that is the same deal); in every round each node maps its blocks
  for the round's lengths only; scales ~1/n.
* **shuffle** — all-to-all: each node pulls its owned length partitions
  from every peer; only exists for n > 1 (the scaling overhead the paper
  calls out).
* **sort** — per-node local external sorts; scales ~1/n via aggregate
  disk bandwidth.
* **reduce** — overlap finding is parallel per partition owner, but edge
  insertion is serialized by the out-degree bit-vector token traveling
  through partitions in descending length order; the critical path follows
  the paper's ``t_o · p/n + t_g · p`` law. The whole-read length adds no
  edge and needs no token: every owner closes the duplicates of its key
  range of it side by side. An owner reads the runs its
  sort formed in one piece from host memory
  (:meth:`~repro.extmem.PartitionStore.open_run`), the rest off its disk.
* **compress** — on the master, as in the single-node pipeline (a node
  operation: the first alive node's, run again after a death); it
  gathers each read block from the node that holds its producer id
  (:meth:`WorkerNode.gather_reads`), so every holder reads its own blocks,
  side by side: out of core, its disk reads scale ~1/n.

Every node maps through one view of the shared read store, charged to
its own disk (:attr:`WorkerNode.reads`). In an in-core run its residency
plan holds the blocks it maps from their first read on, as a single
node's holds the whole store, so the cluster reads each dealt block off
the disk once, not once a round, and compress reads them once more
from the nodes' host memory: an in-core cluster reads the store off the
disk once in all. Out of core, each holder reads its blocks off its own
disk for compress.

Map, shuffle, sort and reduce run in **rounds**, longest length first.
The first round is the whole-read length ``L`` alone, and it runs on every
node: ``P_L`` is split by key range into ``n_nodes`` partitions
(:class:`~repro.extmem.partitions.KeyRange`, cut at splitters that are a
pure function of the fingerprint scheme and ``n_nodes``). Every node maps
its blocks' ``P_L`` pieces and cuts each once, when the first owner asks
for a range of it; owner ``i`` pulls and sorts range ``i``, and every
owner closes its range's duplicate reads at once
(:func:`~repro.core.reduce_phase.close_duplicates`: the lowest read of a
group of equal keys is kept, and a group never spans two ranges). The
closed read ids are gathered on the master before any edge is added
(:meth:`DistributedAssembler._close_ranges`). Then come rounds of
``n_nodes`` consecutive overlap lengths: one length per owner per round
(:meth:`DistributedAssembler._rounds`). A round starts by freezing a copy
of the graph's out-degree bit-vector and broadcasting it; then every node
maps the blocks of the producers it holds for the round's lengths under
that copy (:meth:`ClusterSupervisor.map_phase`), so the records it has
closed are never written, shuffled, sorted or matched. Bits are only ever
set: a frozen copy drops nothing the token's own, newer bit-vector would
keep, and the graph is the eager schedule's. Every overlap round's
snapshot drops the duplicates. Each node's residency plan places its
pieces, pulled partitions and sorted runs as a single node's does
(:class:`~repro.core.residency.Residency`): an in-core cluster writes
nothing, and a piece is let go when its owner has pulled it. Every
stretch, compress's too, is booked by one rule (:meth:`_Timeline.stretch`;
the broadcast is booked as shuffle): its critical path is the slowest
node's seconds (the reduce's is the slowest range owner's plus the
gather, then the token's), and it ends at a barrier.
A phase's reported seconds are the sum of its rounds' critical paths. With
one node a round is one length (``L``'s one range is ``L``), its pieces
are its partitions, and the schedule is the single-node pipeline's with
one length a band: its first length is ``Assembler``'s first band.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..config import AssemblyConfig
from ..core.compress_phase import run_compress
from ..core.map_phase import band_report, partition_lengths
from ..core.reduce_phase import ReduceReport, reduce_length, reduce_partition
from ..errors import ConfigError
from ..extmem.partitions import KeyRange, length_of
from ..graph import GreedyStringGraph
from ..graph.contigs import ContigSet
from ..seq.packing import PackedReadStore
from ..seq.stats import assembly_stats
from ..trace.tracer import NULL_TRACER, SpanTracer
from .message import ActiveMessageLayer
from .node import WorkerNode
from .resilience import (BLOCKS_PER_NODE, ClusterSupervisor,
                         DegradedRunReport, ReduceOutcome, trace_entry)

#: Bytes of one read id in the gather of the closed reads (``uint32``).
READ_ID_BYTES = 4


@dataclass
class DistributedResult:
    """Everything a distributed run reports."""

    n_nodes: int
    n_reads: int
    read_length: int
    contigs: ContigSet
    phase_seconds: dict[str, float]
    per_node_seconds: dict[str, list[float]]
    shuffle_bytes: int
    reduce_report: ReduceReport
    notes: dict[str, float] = field(default_factory=dict)
    #: Bit-vector token hand-offs: one entry per reduce attempt, recording
    #: which node held the token for which partition and whether it survived.
    #: Failed attempts carry ``wasted_s`` (simulated seconds the aborted
    #: attempt burned) and ``sim1`` (the failed node's clock when it died);
    #: successful hops carry ``sim0``/``sim1`` (the token hold window on the
    #: simulated timeline).
    token_trace: tuple[dict, ...] = ()
    #: The whole-read length's key ranges, closed side by side off the
    #: token: one entry per attempt, as ``token_trace``'s, with the range's
    #: index as ``range``; a surviving one's ``sim0``/``sim1`` run from its
    #: round's barrier to its owner's end.
    range_trace: tuple[dict, ...] = ()
    #: ``None`` for clean/fully recovered runs; a report naming the dropped
    #: partitions when the run completed in degraded mode.
    degraded: DegradedRunReport | None = None
    #: The nodes lost for good (past their restart budget), ascending.
    lost_nodes: tuple[int, ...] = ()

    @property
    def edges(self) -> int:
        """Edges in the final graph."""
        return self.reduce_report.edges_added

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end time (sum of phase critical paths)."""
        return sum(self.phase_seconds.values())

    def stats(self) -> dict[str, int | float]:
        """Assembly summary statistics."""
        return assembly_stats(self.contigs.lengths())


@dataclass
class _Stretch:
    """What a stretch's body sees: the common start (the slowest clock at
    the last barrier), the span's arguments (it may add some) and the
    critical path, which it sets when it knows it (the reduce's token)."""

    start: float
    args: dict
    seconds: float | None = None


class _Timeline:
    """Each phase's modeled seconds: the sum of its stretches' critical
    paths, booked by one rule (:meth:`stretch`)."""

    def __init__(self, nodes: list[WorkerNode], tracer):
        self.nodes = nodes  # the supervisor's list, replaced in place on restarts
        self.tracer = tracer
        self.phase_seconds: dict[str, float] = {}
        self.per_node_seconds: dict[str, list[float]] = {}

    @contextmanager
    def stretch(self, phase: str, **args):
        """Book the body as one barrier-separated stretch of ``phase``.

        Reads every node's clock before the body. After it, adds the
        critical path to ``phase``'s seconds and each node's own seconds
        to its entry, records one span on the ``cluster`` track from the
        common start to start + the critical path (so the track tiles like
        Fig. 10's stacked bars), and advances every clock to the slowest
        node's.
        """
        before = [node.ctx.clock.total_seconds for node in self.nodes]
        stretch = _Stretch(start=max(before), args=args)
        wall0 = time.perf_counter()
        yield stretch
        per_node = [node.ctx.clock.total_seconds - b
                    for node, b in zip(self.nodes, before)]
        seconds = max(per_node) if stretch.seconds is None else stretch.seconds
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.per_node_seconds[phase] = [a + b for a, b in zip(
            self.per_node_seconds.get(phase, [0.0] * len(per_node)), per_node)]
        if self.tracer.enabled:
            self.tracer.complete(phase, wall0, time.perf_counter(),
                                 track="cluster", cat="cluster", det=True,
                                 sim0=stretch.start,
                                 sim1=stretch.start + seconds, **stretch.args)
        slowest = max(self.nodes, key=lambda n: n.ctx.clock.total_seconds)
        for node in self.nodes:
            node.ctx.clock.advance_to(slowest.ctx.clock)


class DistributedAssembler:
    """Run the pipeline over ``n_nodes`` simulated workers."""

    def __init__(self, config: AssemblyConfig, n_nodes: int):
        if n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        self.config = config
        self.n_nodes = n_nodes

    def _rounds(self, lengths: list[int]) -> list[list[int]]:
        """The partition lengths in rounds, longest first: the whole-read
        length alone, then ``n_nodes`` overlap lengths a round.

        One length per owner: all of a round's overlap finding runs side by
        side (the paper's ``t_o · p/n``), and the filter it was pulled
        under is at most one round old. Fewer lengths a round leave owners
        idle; more of them sort records a fresher bit-vector would have
        dropped (EXPERIMENTS.md Fig. 10 has the sweep). ``L`` goes alone
        so that no overlap length is pulled or sorted before the
        duplicates are closed: in ``L``'s round an overlap length would
        carry every duplicate's records (DESIGN.md, *duplicate reads close
        in a whole-read band first*). ``L``'s round runs on every node all
        the same: its partition is cut into ``n_nodes`` key ranges, one an
        owner (:meth:`_partitions`).
        """
        whole, *ordered = sorted(lengths, reverse=True)
        return [[whole]] + [ordered[i:i + self.n_nodes]
                            for i in range(0, len(ordered), self.n_nodes)]

    def _partitions(self, lengths: list[int], read_length: int) -> list:
        """A round's partitions: its lengths, the whole-read one cut into
        ``n_nodes`` key ranges (:class:`~repro.extmem.partitions.KeyRange`).
        With one node the one range is the whole length."""
        if self.n_nodes == 1:
            return list(lengths)
        return [key for length in lengths for key in (
            [KeyRange(length, i, self.n_nodes) for i in range(self.n_nodes)]
            if length == read_length else [length])]

    # -- the run -------------------------------------------------------------

    def assemble(self, source: str | Path | PackedReadStore, *,
                 workdir: str | Path | None = None) -> DistributedResult:
        """Assemble ``source`` across the simulated cluster."""
        owns_workdir = workdir is None
        root = Path(tempfile.mkdtemp(prefix="lasagna-dist-")) if owns_workdir \
            else Path(workdir)
        try:
            return self._assemble(source, root)
        finally:
            if owns_workdir:
                shutil.rmtree(root, ignore_errors=True)

    def _assemble(self, source, root: Path) -> DistributedResult:
        tracer = None
        if self.config.trace:
            tracer = SpanTracer(meta={"mode": "distributed",
                                      "n_nodes": self.n_nodes,
                                      "seed": self.config.seed})
        # A store opened here is closed here, also when a phase raises.
        with (nullcontext(source) if isinstance(source, PackedReadStore)
              else PackedReadStore.open(source)) as store:
            messages = ActiveMessageLayer(self.config.network)
            supervisor = ClusterSupervisor(self.config, self.n_nodes, root,
                                           messages, store, tracer=tracer)
            try:
                return self._run(store, supervisor, messages, tracer)
            except BaseException:
                # A run that dies (a full disk ends it) lets go of every
                # node's streams, as its processes' exits would.
                for node in supervisor.nodes:
                    node.abandon()
                raise
            finally:
                supervisor.close()
                # Dump even when a phase raised — a trace of a failed run
                # is exactly what a fault sweep wants to look at.
                if tracer is not None:
                    tracer.write(Path(self.config.trace))

    def _run(self, store: PackedReadStore, supervisor: ClusterSupervisor,
             messages: ActiveMessageLayer,
             tracer: SpanTracer | None) -> DistributedResult:
        ctracer = tracer if tracer is not None else NULL_TRACER
        nodes = supervisor.nodes  # replaced in place on node restarts
        timeline = _Timeline(nodes, ctracer)
        stretch = timeline.stretch
        lengths = list(partition_lengths(nodes[0].ctx, store.read_length))
        rounds = self._rounds(lengths)
        n_blocks = self.n_nodes * BLOCKS_PER_NODE
        graph = None
        reduce_report = ReduceReport()
        token_trace: list[dict] = []
        range_trace: list[dict] = []
        shuffle_bytes = 0
        for index, round_lengths in enumerate(rounds):
            keys = self._partitions(round_lengths, store.read_length)
            if graph is None:
                # Nothing is closed before the first round's edges: no filter.
                supervisor.begin_round(None, keys)
            else:
                # The round's snapshot, broadcast before anything is mapped.
                with stretch("shuffle", round=index, snapshot=True):
                    supervisor.begin_round(graph.out_bits.copy(), keys)
            # Map what the round's lengths still have open.
            with stretch("map", round=index, blocks=n_blocks):
                supervisor.map_phase()
            # All-to-all aggregation of the round's pieces.
            with stretch("shuffle", round=index) as shuffle:
                shuffle.args["bytes"] = supervisor.shuffle_phase(keys)
            shuffle_bytes += shuffle.args["bytes"]
            # Local per-node external sorts.
            with stretch("sort", round=index):
                supervisor.sort_phase()
            if graph is None:
                # As on a single node, the longest lengths are sorted before
                # the graph takes its share of the master's host memory.
                graph = GreedyStringGraph(store.n_reads, store.read_length,
                                          nodes[0].ctx.host_pool)
            # Parallel overlap finding, token-serialized edges.
            done = reduce_report.partitions_processed
            with stretch("reduce", round=index) as reduce:
                reduce.seconds = self._reduce(
                    supervisor, graph, reduce_report, keys, token_trace,
                    range_trace, reduce.start, tracer=ctracer)
                reduce.args["partitions"] = \
                    reduce_report.partitions_processed - done
            nodes[0].plan.check_block(store, graph)
            # What the round's pulls did not take (a lost owner's lengths).
            for node in supervisor.alive():
                node.drop_pieces()
        reduce_report.edges_added = graph.n_edges

        def spell(node: WorkerNode) -> ContigSet:
            # Through this module's name: the harness times it here.
            return run_compress(node.ctx, graph, node.reads, batches=partial(
                node.gather_reads, supervisor.block_ranges,
                supervisor.holder))[0]

        with stretch("compress"):  # on the master
            contigs = supervisor.compress(spell)

        graph.release()
        degraded = supervisor.degraded_report(reduce_report.candidates)
        # ``records_eager``: what the eager map writes (every side of every
        # length). ``records_shuffled``: what the reduced partitions held,
        # which is what their pulls wrote (the cluster's sorts drop nothing);
        # a dropped partition's records are the degraded report's
        # ``candidates_dropped``.
        notes = {"am_messages": float(messages.messages_sent),
                 "rounds": float(len(rounds)),
                 "records_eager": float(band_report(
                     nodes[0].ctx, store, lengths).tuples_written),
                 "records_shuffled": float(
                     sum(supervisor.pulled.values())
                     - (degraded.candidates_dropped if degraded else 0))}
        notes.update(supervisor.meter.counters())
        return DistributedResult(
            n_nodes=self.n_nodes,
            n_reads=store.n_reads,
            read_length=store.read_length,
            contigs=contigs,
            phase_seconds=timeline.phase_seconds,
            per_node_seconds=timeline.per_node_seconds,
            shuffle_bytes=shuffle_bytes,
            reduce_report=reduce_report,
            notes=notes,
            token_trace=tuple(token_trace),
            range_trace=tuple(range_trace),
            degraded=degraded,
            lost_nodes=tuple(sorted(supervisor.lost)),
        )

    def _reduce(self, supervisor: ClusterSupervisor, graph: GreedyStringGraph,
                report: ReduceReport, keys: list, token_trace: list[dict],
                range_trace: list[dict], start: float, *,
                tracer=NULL_TRACER) -> float:
        """One round's reduce under the failure ladder: the whole-read
        length's key ranges side by side (:meth:`_close_ranges`), then the
        token through the overlap lengths.

        Continues ``graph``, ``report`` and the traces over ``keys``;
        returns the round's critical path: from ``start``, the round's
        barrier, until the token has folded in its last partition.

        Overlap finding for partition ``l`` happens on its owner and is
        charged to that node's clock; the greedy edge insertion must hold
        the bit-vector token, whose timeline is tracked explicitly:
        ``token_time = max(token_time + transfer, find_done) + t_graph``.
        ``transfer`` is the bit-vector crossing the network to a node that
        lacks its current bits. The round's first owner has them (the
        round's broadcast, :meth:`ClusterSupervisor.begin_round`, sent
        exactly these bits; before the first round they are all zero;
        after key ranges, only the master has them), and so does the node
        that just folded in the previous partition; every other hop pays
        it. A lone node's reduce is therefore the single-node pipeline's.

        A node failing mid-partition does not lose the token: the master
        still holds it while the supervisor runs restart → failover
        on the owner, and the surviving attempt replays the partition whole
        from its sorted runs (rebuilt first if they went with the node) —
        duplicate candidate re-submissions are
        rejected by the bit-vector, so the edge set is unchanged and
        recovered runs are byte-identical; ``report`` counts the surviving
        attempt only. Because ``find_done`` is taken
        from the surviving attempt's clock (which absorbed every wasted
        attempt and recovery charge) and ``token_hold ≥
        token_time``, the token timeline accrues transfer + recompute costs
        and never goes backward. A partition that no owner survives is
        dropped into the degraded report by the supervisor; the token waits
        for that verdict, up to the clock of the last owner tried.
        """
        nodes = supervisor.nodes
        ranges = [key for key in keys if isinstance(key, KeyRange)]
        token_time = start
        bits_on = None  # the one node with the current bits; None: all
        if ranges:
            token_time = self._close_ranges(supervisor, graph, report, ranges,
                                            range_trace, start, tracer)
            bits_on = supervisor.master().node_id
        bitvec_transfer = self.config.network.transfer_seconds(
            graph.out_bits.nbytes)
        for length in sorted(set(keys) - set(ranges), reverse=True):
            if not supervisor.partition_has_data(length):
                continue
            attempt_wall = time.perf_counter()
            outcome = self._attempt(supervisor, graph, report, length,
                                    token_trace, "token-retry", tracer)
            if not outcome.ok:
                # Dropped: no edges to fold in, but the token waited on the
                # ladder's verdict, as a surviving hop waits on its
                # find_done: the clock of the last node tried.
                token_time = max(token_time,
                                 nodes[outcome.node].ctx.clock.total_seconds)
                continue
            _, held, t_graph, find_done = outcome.value
            # The node holds the token from the instant it both received
            # the bit-vector and finished overlap finding, until its
            # edge insertions are folded in (t_g).
            transfer = bitvec_transfer \
                if bits_on not in (None, outcome.node) else 0.0
            bits_on = outcome.node
            token_hold = max(token_time + transfer, find_done)
            token_time = token_hold + t_graph
            token_trace.append(trace_entry(
                length, node=outcome.node, attempt=outcome.attempts - 1,
                ok=True, sim0=token_hold, sim1=token_time))
            if tracer.enabled:
                tracer.complete("token", attempt_wall, time.perf_counter(),
                                track="cluster", cat="reduce", det=True,
                                sim0=token_hold, sim1=token_time,
                                length=length, node=outcome.node,
                                attempt=outcome.attempts - 1, held=held)
        # The round ends when the token has folded in every partition's
        # edges: ``token_time`` already waited on every find_done (and every
        # recovery charge) the graph consumed; every node re-enters at the
        # next barrier.
        return token_time - start

    def _close_ranges(self, supervisor: ClusterSupervisor,
                      graph: GreedyStringGraph, report: ReduceReport,
                      ranges: list[KeyRange], trace: list[dict], start: float,
                      tracer) -> float:
        """Close the duplicate reads of the whole-read length's key ranges,
        each on its owner, side by side; returns when the master has them.

        The rule keeps the lowest read of each group of equal keys
        (:func:`~repro.core.reduce_phase.close_duplicates`), and a group
        never spans two ranges, so the order of the ranges does not
        matter: a class of equal reads whose two strands fall in two
        ranges is closed the same way in both. Each owner then sends the
        master the ids of the reads it closed (``uint32`` each; the master's
        own need no message), and the master sets their bits: the gather,
        one transfer of all their bytes into the master (the owners send
        side by side). The ranges are done when the slowest owner is and
        the gather has arrived, not a token hop later.
        """
        closed_on: dict[int, int] = {}
        for key in ranges:
            if not supervisor.partition_has_data(key):
                continue
            wall = time.perf_counter()
            closed_before = graph.reads_closed
            outcome = self._attempt(supervisor, graph, report, key, trace,
                                    "close-retry", tracer)
            if not outcome.ok:
                continue
            _, held, t_graph, find_done = outcome.value
            closed_on[outcome.node] = closed_on.get(outcome.node, 0) \
                + graph.reads_closed - closed_before
            trace.append(trace_entry(
                key, node=outcome.node, attempt=outcome.attempts - 1, ok=True,
                sim0=start, sim1=find_done + t_graph))
            if tracer.enabled:
                tracer.complete("close", wall, time.perf_counter(),
                                track="cluster", cat="reduce", det=True,
                                sim0=start, sim1=find_done + t_graph,
                                length=key.length, range=key.index,
                                node=outcome.node,
                                attempt=outcome.attempts - 1, held=held)
        done = max(node.ctx.clock.total_seconds for node in supervisor.nodes)
        master = supervisor.master()
        sent = sum(closed for node_id, closed in closed_on.items()
                   if node_id != master.node_id)
        gather = self.config.network.transfer_seconds(READ_ID_BYTES * sent) \
            if sent else 0.0
        master.ctx.clock.charge("network", gather)
        return done + gather

    @staticmethod
    def _attempt(supervisor: ClusterSupervisor, graph: GreedyStringGraph,
                 report: ReduceReport, key, trace: list[dict], retry: str,
                 tracer) -> ReduceOutcome:
        """Partition ``key``'s reduce on its owner, through the ladder.

        Its failed attempts join ``trace``, each a ``retry`` instant at the
        failed node's clock when it died; the surviving one is counted in
        ``report``.
        """
        edges_before, closed_before = graph.n_edges, graph.reads_closed

        def attempt(node: WorkerNode):
            host_before = node.ctx.clock.seconds("host")
            step = ReduceReport()
            # Through this module's name: the harness times it here.
            held = reduce_length(node.ctx, graph, node.shuffled, key, step,
                                 reduce=reduce_partition)
            t_graph = node.ctx.clock.seconds("host") - host_before
            find_done = node.ctx.clock.total_seconds - t_graph
            return step, held, t_graph, find_done

        outcome = supervisor.reduce_partition(key, attempt)
        trace.extend(outcome.failed)
        if tracer.enabled:
            for failed in outcome.failed:
                tracer.instant(retry, track="cluster", cat="reduce", det=True,
                               sim_at=failed["sim1"], **{
                                   name: failed[name] for name in
                                   ("length", "range", "node", "attempt")
                                   if name in failed})
        if outcome.ok:
            # A failed attempt's work was replayed: count the survivor's only.
            report.count_length(length_of(key), outcome.value[0], graph,
                                edges_before, closed_before)
        return outcome
