"""The distributed assembler and its phase barriers (§III.E).

Execution model: every node's work really runs (in this process, against
its private storage and budgets); *time* comes from each node's simulated
clock, and a barrier at the end of each phase advances every clock to the
slowest participant's. The phase timings this produces are the series
behind Fig. 10:

* **map** — in the first round the master hands read blocks to whichever
  node is least loaded (modeling GASNet work-request messages); in every
  later round each node maps its recorded blocks again, for the round's
  lengths only; scales ~1/n.
* **shuffle** — all-to-all: each node pulls its owned length partitions
  from every peer; only exists for n > 1 (the scaling overhead the paper
  calls out).
* **sort** — per-node local external sorts; scales ~1/n via aggregate
  disk bandwidth.
* **reduce** — overlap finding is parallel per partition owner, but edge
  insertion is serialized by the out-degree bit-vector token traveling
  through partitions in descending length order; the critical path follows
  the paper's ``t_o · p/n + t_g · p`` law. An owner reads the runs its
  sort formed in one piece from host memory
  (:meth:`~repro.extmem.PartitionStore.open_run`), the rest off its disk.
* **compress** — on the master, as in the single-node pipeline.

Every node reads the shared read store through its own disk meter
(:meth:`WorkerNode.metered`), as a single node's map and compress do.

Map, shuffle, sort and reduce run in **rounds**, longest length first.
The first round is the whole-read length ``L`` alone: the hand-out maps
each block's ``P_L`` piece, and ``L``'s owner pulls and sorts them and
closes the duplicate reads under the token before any edge is added
(:func:`~repro.core.reduce_phase.close_duplicates`). Then come rounds of
``n_nodes`` consecutive overlap lengths: one length per owner per round
(:meth:`DistributedAssembler._rounds`). A round starts by freezing a copy
of the graph's out-degree bit-vector and broadcasting it; then every node
maps the blocks of the producers it holds for the round's lengths under
that copy (:meth:`ClusterSupervisor.map_round`), so the records it has
closed are never written, shuffled, sorted or matched. Bits are only ever
set: a frozen copy drops nothing the token's own, newer bit-vector would
keep, and the graph is the eager schedule's. Every overlap round's
snapshot drops the duplicates. Each node's residency plan places its
pieces, pulled partitions and sorted runs as a single node's does
(:class:`~repro.core.residency.Residency`): an in-core cluster writes
nothing. Each stretch ends at a
barrier (the broadcast is booked as shuffle), and a phase's reported
seconds are the sum of its rounds' critical paths. With one node a round
is one length, its pieces are its partitions, and the schedule is the
single-node pipeline's with one length a band: its first length is
``Assembler``'s first band.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..config import AssemblyConfig
from ..core.compress_phase import run_compress
from ..core.map_phase import band_report, partition_lengths
from ..core.reduce_phase import ReduceReport, reduce_length, reduce_partition
from ..device.specs import DiskSpec, HostSpec
from ..errors import ConfigError
from ..extmem.partitions import SIDES
from ..graph import GreedyStringGraph
from ..graph.contigs import ContigSet
from ..seq.packing import PackedReadStore
from ..seq.stats import assembly_stats
from ..trace.tracer import NULL_TRACER, SpanTracer
from .message import ActiveMessageLayer
from .network import NetworkSpec
from .node import WorkerNode
from .resilience import ClusterSupervisor, DegradedRunReport

#: Map blocks handed out per node on average (load-balancing granularity).
BLOCKS_PER_NODE = 4


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
    edges: int
    notes: dict[str, float] = field(default_factory=dict)
    #: Bit-vector token hand-offs: one entry per reduce attempt, recording
    #: which node held the token for which partition and whether it survived.
    #: Failed attempts carry ``wasted_s`` (simulated seconds the aborted
    #: attempt burned); successful hops carry ``sim0``/``sim1`` (the token
    #: hold window on the simulated timeline).
    token_trace: tuple[dict, ...] = ()
    #: ``None`` for clean/fully recovered runs; a report naming the dropped
    #: partitions when the run completed in degraded mode.
    degraded: DegradedRunReport | None = None

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end time (sum of phase critical paths)."""
        return sum(self.phase_seconds.values())

    def stats(self) -> dict[str, int | float]:
        """Assembly summary statistics."""
        return assembly_stats(self.contigs.lengths())


class DistributedAssembler:
    """Run the pipeline over ``n_nodes`` simulated workers."""

    def __init__(self, config: AssemblyConfig, n_nodes: int, *,
                 network: NetworkSpec | None = None,
                 disk: DiskSpec | None = None, host: HostSpec | None = None):
        if n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        self.config = config
        self.n_nodes = n_nodes
        self.network = network if network is not None else NetworkSpec()
        self.disk = disk
        self.host = host

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _clock_totals(nodes: list[WorkerNode]) -> list[float]:
        return [node.ctx.clock.total_seconds for node in nodes]

    @staticmethod
    def _barrier(nodes: list[WorkerNode]) -> None:
        slowest = max(nodes, key=lambda n: n.ctx.clock.total_seconds)
        for node in nodes:
            node.ctx.clock.advance_to(slowest.ctx.clock)

    def _phase_delta(self, nodes: list[WorkerNode], before: list[float],
                     ) -> tuple[float, list[float]]:
        per_node = [node.ctx.clock.total_seconds - b
                    for node, b in zip(nodes, before)]
        return max(per_node), per_node

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
        carry every duplicate's records, and a lone node, sorting two
        lengths at once, would hold neither's runs for reduce (DESIGN.md,
        *duplicate reads close in a whole-read band first*).
        """
        whole, *ordered = sorted(lengths, reverse=True)
        return [[whole]] + [ordered[i:i + self.n_nodes]
                            for i in range(0, len(ordered), self.n_nodes)]

    @staticmethod
    def _cluster_span(tracer, name: str, wall0: float, sim0: float,
                      seconds: float, **args) -> None:
        """One span on the ``cluster`` track covering a phase's critical path.

        The simulated extent is the *modeled* one — from the common
        post-barrier start to start + the phase's critical-path seconds —
        so the cluster track tiles exactly like Fig. 10's stacked bars.
        """
        if tracer.enabled:
            tracer.complete(name, wall0, time.perf_counter(), track="cluster",
                            cat="cluster", det=True, sim0=sim0,
                            sim1=sim0 + seconds, **args)

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
            messages = ActiveMessageLayer(self.network)
            supervisor = ClusterSupervisor(self.config, self.n_nodes, root,
                                           self.network, messages, store,
                                           tracer=tracer, disk=self.disk,
                                           host=self.host)
            try:
                return self._run(store, supervisor, messages, tracer)
            except BaseException:
                # A run that dies (a full disk ends it) lets go of every
                # node's streams, as its processes' exits would.
                for node in supervisor.nodes:
                    node.abandon()
                raise
            finally:
                # Dump even when a phase raised — a trace of a failed run
                # is exactly what a fault sweep wants to look at.
                if tracer is not None:
                    tracer.write(Path(self.config.trace))

    def _run(self, store: PackedReadStore, supervisor: ClusterSupervisor,
             messages: ActiveMessageLayer,
             tracer: SpanTracer | None) -> DistributedResult:
        ctracer = tracer if tracer is not None else NULL_TRACER
        nodes = supervisor.nodes  # mutated in place on node restarts
        phase_seconds: dict[str, float] = {}
        per_node_seconds: dict[str, list[float]] = {}

        def close(phase: str, wall0: float, start: float, seconds: float,
                  per_node: list[float], **args) -> None:
            """Book one barrier-separated stretch of ``phase``."""
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
            per_node_seconds[phase] = [
                a + b for a, b in zip(
                    per_node_seconds.get(phase, [0.0] * self.n_nodes), per_node)]
            self._cluster_span(ctracer, phase, wall0, start, seconds, **args)
            self._barrier(nodes)

        lengths = list(partition_lengths(nodes[0].ctx, store.read_length))
        rounds = self._rounds(lengths)
        n_blocks = max(1, self.n_nodes * BLOCKS_PER_NODE)
        graph = None
        reduce_report = ReduceReport()
        token_trace: list[dict] = []
        shuffle_bytes = 0
        for index, round_lengths in enumerate(rounds):
            # -- the round's snapshot: broadcast before anything is mapped ----
            before = self._clock_totals(nodes)
            wall0 = time.perf_counter()
            # Nothing is closed before the first round's edges: no filter.
            supervisor.begin_round(
                graph.out_bits.copy() if graph is not None else None,
                round_lengths)
            if graph is not None:
                close("shuffle", wall0, max(before),
                      *self._phase_delta(nodes, before), round=index,
                      snapshot=True)

            # -- map: what the round's lengths still have open -----------------
            before = self._clock_totals(nodes)
            wall0 = time.perf_counter()
            if index == 0:
                # The master hands read blocks to the least-loaded node.
                supervisor.map_phase(n_blocks)
            else:
                supervisor.map_round()
            close("map", wall0, max(before), *self._phase_delta(nodes, before),
                  round=index, blocks=n_blocks)

            # -- shuffle: all-to-all aggregation of the round's pieces ---------
            before = self._clock_totals(nodes)
            wall0 = time.perf_counter()
            pulled = supervisor.shuffle_phase(round_lengths)
            shuffle_bytes += pulled
            close("shuffle", wall0, max(before),
                  *self._phase_delta(nodes, before), round=index, bytes=pulled)

            # -- sort: local per-node external sorts ---------------------------
            before = self._clock_totals(nodes)
            wall0 = time.perf_counter()
            supervisor.sort_phase()
            close("sort", wall0, max(before),
                  *self._phase_delta(nodes, before), round=index)

            # -- reduce: parallel overlap finding, token-serialized edges -------
            if graph is None:
                # As on a single node, the longest lengths are sorted before
                # the graph takes its share of the master's host memory.
                graph = GreedyStringGraph(store.n_reads, store.read_length,
                                          nodes[0].ctx.host_pool)
            start = max(self._clock_totals(nodes))
            wall0 = time.perf_counter()
            done = reduce_report.partitions_processed
            seconds, per_node = self._reduce(supervisor, graph, reduce_report,
                                             round_lengths, token_trace,
                                             tracer=ctracer)
            close("reduce", wall0, start, seconds, per_node, round=index,
                  partitions=reduce_report.partitions_processed - done)
            nodes[0].plan.check_block(store, graph)
            # The pieces fed the round's pulls and any rebuild until its
            # last partition was reduced (or formally dropped).
            for node in supervisor.alive():
                node.drop_pieces()
        reduce_report.edges_added = graph.n_edges

        # -- compress: on the master --------------------------------------------
        master = (supervisor.alive() or [nodes[0]])[0]
        before = self._clock_totals(nodes)
        wall0 = time.perf_counter()
        with master.metered(store) as reads:
            contigs, _paths = run_compress(master.ctx, graph, reads)
        phase_seconds["compress"], per_node_seconds["compress"] = \
            self._phase_delta(nodes, before)
        self._cluster_span(ctracer, "compress", wall0, max(before),
                           phase_seconds["compress"])

        edges = graph.n_edges
        graph.release()
        degraded = supervisor.degraded_report(reduce_report.candidates)
        # What the rounds' maps wrote, and what the token's partitions held
        # (what their pulls wrote: the cluster's sorts drop nothing).
        notes = {"am_messages": float(messages.messages_sent),
                 "am_dropped": float(messages.messages_dropped),
                 "rounds": float(len(rounds)),
                 # Each round's pulls carry every piece its map wrote; the
                 # eager map writes every side of every length.
                 "records_mapped": float(sum(supervisor.pulled.values())),
                 "records_eager": float(band_report(
                     nodes[0].ctx, store, lengths).tuples_written),
                 "records_shuffled": float(sum(
                     supervisor.pulled.get((side, hop["length"]), 0)
                     for hop in token_trace if hop["ok"] for side in SIDES))}
        notes.update(supervisor.meter.counters())
        return DistributedResult(
            n_nodes=self.n_nodes,
            n_reads=store.n_reads,
            read_length=store.read_length,
            contigs=contigs,
            phase_seconds=phase_seconds,
            per_node_seconds=per_node_seconds,
            shuffle_bytes=shuffle_bytes,
            reduce_report=reduce_report,
            edges=edges,
            notes=notes,
            token_trace=tuple(token_trace),
            degraded=degraded,
        )

    def _reduce(self, supervisor: ClusterSupervisor, graph: GreedyStringGraph,
                report: ReduceReport, lengths: list[int],
                token_trace: list[dict], *, tracer=NULL_TRACER,
                ) -> tuple[float, list[float]]:
        """One round of the token-serialized reduce under the failure ladder.

        Continues ``graph``, ``report`` and ``token_trace`` over ``lengths``;
        returns the round's critical-path seconds and per-node seconds.

        Overlap finding for partition ``l`` happens on its owner and is
        charged to that node's clock; the greedy edge insertion must hold
        the bit-vector token, whose timeline is tracked explicitly:
        ``token_time = max(token_time + transfer, find_done) + t_graph``.
        ``transfer`` is the bit-vector crossing the network to a node that
        lacks its current bits. The round's first owner has them (the
        round's broadcast, :meth:`ClusterSupervisor.begin_round`, sent
        exactly these bits; before the first round they are all zero), and
        so does the node that just folded in the previous partition; every
        other hop pays it. A lone node's reduce is therefore the
        single-node pipeline's.

        A node failing mid-partition does not lose the token: the master
        still holds it while the supervisor runs retry → restart → failover
        on the owner, and the surviving attempt replays the partition whole
        from its sorted runs — duplicate candidate re-submissions are
        rejected by the bit-vector, so the edge set is unchanged and
        recovered runs are byte-identical; ``report`` counts the surviving
        attempt only. Because ``find_done`` is taken
        from the surviving attempt's clock (which absorbed every wasted
        attempt, backoff and recovery charge) and ``token_hold ≥
        token_time``, the token timeline accrues transfer + recompute costs
        and never goes backward. Partitions that exhaust every owner are
        dropped into the degraded report by the supervisor (or raise when
        ``allow_degraded`` is off).
        """
        nodes = supervisor.nodes
        before = self._clock_totals(nodes)
        phase_start = max(before)
        token_time = phase_start
        bitvec_transfer = self.network.transfer_seconds(graph.out_bits.nbytes)
        bits_on = None  # the one node with the current bits; None: all
        for length in sorted(lengths, reverse=True):
            if not supervisor.partition_has_data(length):
                continue
            attempt_wall = time.perf_counter()
            edges_before, closed_before = graph.n_edges, graph.reads_closed
            held = [0]  # sorted runs the surviving attempt read from memory
            counted = [ReduceReport()]  # the surviving attempt's counters

            def attempt(node: WorkerNode, length=length) -> tuple[float, float]:
                host_before = node.ctx.clock.seconds("host")
                counted[0] = ReduceReport()
                # Through this module's name: the harness times it here.
                held[0] = reduce_length(node.ctx, graph, node.shuffled, length,
                                        counted[0], reduce=reduce_partition)
                t_graph = node.ctx.clock.seconds("host") - host_before
                find_done = node.ctx.clock.total_seconds - t_graph
                return t_graph, find_done

            outcome = supervisor.reduce_partition(length, attempt)
            for failure in outcome.failures:
                token_trace.append({"length": length, "node": failure["node"],
                                    "attempt": failure["attempt"],
                                    "ok": False,
                                    "wasted_s": failure["wasted_s"]})
                if tracer.enabled:
                    failed = nodes[failure["node"]]
                    tracer.instant("token-retry", track="cluster",
                                   cat="reduce", det=True,
                                   sim_at=failed.ctx.clock.total_seconds,
                                   length=length, node=failure["node"],
                                   attempt=failure["attempt"])
            if not outcome.ok:
                continue  # dropped partition: the token never visits it
            # A failed attempt's work was replayed: count the survivor's only.
            report.partitions_processed += 1
            report.candidates += counted[0].candidates
            report.window_rounds += counted[0].window_rounds
            report.aux_rejected += counted[0].aux_rejected
            # Like the edges, from the graph: a failed attempt may have
            # closed reads its replay then finds closed.
            report.reads_closed += graph.reads_closed - closed_before
            if length < graph.read_length:
                report.per_length_edges[length] = \
                    (graph.n_edges - edges_before) // 2
            # The node holds the token from the instant it both received
            # the bit-vector and finished overlap finding, until its
            # edge insertions are folded in (t_g).
            transfer = bitvec_transfer \
                if bits_on not in (None, outcome.node) else 0.0
            bits_on = outcome.node
            token_hold = max(token_time + transfer, outcome.find_done)
            token_time = token_hold + outcome.t_graph
            token_trace.append({"length": length, "node": outcome.node,
                                "attempt": outcome.attempts - 1, "ok": True,
                                "sim0": token_hold, "sim1": token_time})
            if tracer.enabled:
                tracer.complete("token", attempt_wall, time.perf_counter(),
                                track="cluster", cat="reduce", det=True,
                                sim0=token_hold, sim1=token_time,
                                length=length, node=outcome.node,
                                attempt=outcome.attempts - 1, held=held[0])
        # The round ends when the token has folded in every partition's
        # edges: ``token_time`` already waited on every find_done (and every
        # recovery charge) the graph consumed; every node re-enters at the
        # next barrier.
        per_node = [node.ctx.clock.total_seconds - b
                    for node, b in zip(nodes, before)]
        return token_time - phase_start, per_node
