"""Pipeline orchestration: the :class:`Assembler` facade.

Runs load → map → sort → reduce → compress under per-phase telemetry, with
one :class:`~repro.core.context.RunContext` carrying the budgets and meters.
Phase names match the rows of the paper's Tables II/III ("Load", "Map",
"Sort", "Reduce", "Compress").

Sort and reduce are interleaved per overlap length, longest first: a
length's partitions are sorted just before reduce reads them, minus the
records the greedy graph has already closed (see
:meth:`Assembler._graph`). The re-entered ``sort`` / ``reduce``
phases merge into one telemetry row each. The paper's eager order is the
plain composition ``run_sort(ctx, partitions)`` → ``run_reduce(ctx,
partitions, store)``; it builds the same graph.

With ``resume=True`` (and an explicit ``workdir``) completed phases are
skipped using the :mod:`~repro.core.checkpoint` ledger — a 16-hour
paper-scale run interrupted after its sort phase restarts at reduce. With
a ``content_store`` the packed reads and the finished graph are shared
across workdirs. Either way a run is resolved from its end: an available
graph stands for map, sort and reduce together.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from ..config import AssemblyConfig
from ..device.specs import DiskSpec, HostSpec
from ..errors import ConfigError, DatasetError
from ..extmem import PartitionStore
from ..extmem.records import kv_dtype
from ..faults import plan as faults
from ..graph import GreedyStringGraph
from ..seq.packing import PackedReadStore
from .checkpoint import (GRAPH_FILE, CheckpointManager, artifact_digests,
                         config_fingerprint, content_digest, file_digest,
                         load_graph_file, save_graph_file)
from .compress_phase import run_compress
from .context import RunContext
from .load_phase import run_load
from .map_phase import MapReport, run_map
from .reduce_phase import ReduceReport, run_reduce
from .results import AssemblyResult
from .sort_phase import SortPhaseReport, run_sort
from ..extmem.sort import SortReport

#: Canonical phase order, as reported in the paper's tables.
PHASES = ("load", "map", "sort", "reduce", "compress")


def _map_report_from_json(saved: dict) -> MapReport:
    return MapReport(**{**saved, "lengths": tuple(saved["lengths"])})


def _sort_report_json(report: SortPhaseReport) -> dict:
    """JSON form of a sort report (ledger state and cache meta alike).

    All four SortReport fields must round-trip: dropping fanout would
    resurrect the default (2) on resume and silently change both the
    report and the fingerprint-relevant sort shape.
    """
    return {f"{side}:{length}": [r.n_records, r.initial_runs,
                                 r.merge_rounds, r.fanout]
            for (side, length), r in report.reports.items()}


def _sort_report_from_json(saved: dict) -> SortPhaseReport:
    reports = {}
    for key, values in saved.items():
        side, length = key.split(":")
        reports[(side, int(length))] = SortReport(*values)
    return SortPhaseReport(reports)


def _reduce_report_from_json(saved: dict) -> ReduceReport:
    """Inverse of ``asdict(report)`` after a JSON round trip (string keys)."""
    return ReduceReport(**{
        **saved,
        "per_length_edges": {int(k): v for k, v
                             in saved["per_length_edges"].items()},
    })


def _source_identity(source) -> str:
    if isinstance(source, PackedReadStore):
        return f"store:{source.path}:{source.n_reads}:{source.read_length}"
    path = Path(source)
    size = path.stat().st_size if path.exists() else -1
    return f"file:{path}:{size}"


class Assembler:
    """One-stop assembly runner.

    >>> from repro import Assembler, AssemblyConfig
    >>> result = Assembler(AssemblyConfig(min_overlap=25)).assemble("reads.fastq")
    """

    def __init__(self, config: AssemblyConfig | None = None, *,
                 disk: DiskSpec | None = None, host: HostSpec | None = None,
                 content_store=None, phase_hook=None):
        self.config = config if config is not None else AssemblyConfig()
        self.disk = disk
        self.host = host
        #: Optional :class:`repro.service.content_store.ContentStore`. When
        #: set, the packed reads and the finished graph are first looked up
        #: by content key: identical inputs across jobs, tenants and
        #: re-submissions are served from cache instead of recomputed.
        self.content_store = content_store
        #: Optional ``hook(boundary, sim_seconds)`` called before the first
        #: phase (``boundary="start"``) and after each phase completes
        #: (``boundary=<phase name>``) with the run's accrued simulated
        #: seconds. The assembly service injects cooperative cancellation
        #: and deadline checks here: the hook raises
        #: :class:`~repro.errors.JobCancelled` /
        #: :class:`~repro.errors.JobDeadlineExceeded` to stop the run at a
        #: deterministic (modeled-clock) boundary.
        self.phase_hook = phase_hook

    def assemble(self, source: str | Path | PackedReadStore, *,
                 workdir: str | Path | None = None,
                 resume: bool = False,
                 gfa_path: str | Path | None = None,
                 source_digest: str | None = None) -> AssemblyResult:
        """Assemble ``source`` (FASTQ path, ``.lsgr`` path, or open store).

        ``resume`` requires an explicit ``workdir`` and continues a prior
        interrupted run with the same configuration and input. ``gfa_path``
        additionally exports the string graph and contig paths as GFA 1.0.
        ``source_digest`` is the input's
        :func:`~repro.core.checkpoint.content_digest` when the caller has
        already taken it (the service has, for single-flight); it is only
        used with a content store.
        """
        if resume and workdir is None:
            raise ConfigError("resume=True requires an explicit workdir")
        tracer = None
        if self.config.trace:
            from ..trace.tracer import SpanTracer

            tracer = SpanTracer(meta={
                "source": _source_identity(source),
                "seed": self.config.seed,
            })
        ctx = RunContext(self.config, workdir=workdir, disk=self.disk,
                         host=self.host, tracer=tracer)
        manager = CheckpointManager(
            ctx.workdir, config_fingerprint(self.config, _source_identity(source))
        ) if resume else None
        try:
            return self._run(ctx, source, manager, source_digest, gfa_path)
        finally:
            ctx.cleanup()
            if tracer is not None:
                # Dump even when the run failed: a trace of a crashed run
                # (open spans, error-tagged phases) is exactly what the
                # chaos harness wants to look at.
                tracer.write(Path(self.config.trace))

    # -- the run ---------------------------------------------------------------

    def _run(self, ctx: RunContext, source, manager: CheckpointManager | None,
             source_digest: str | None, gfa_path=None) -> AssemblyResult:
        self._boundary(ctx, "start")
        faults.note_phase("load")
        with ctx.telemetry.phase("load"):
            store = self._load(ctx, source, manager, source_digest)
        try:
            self._phase_end(ctx, "load")
            graph, map_report, sort_report, reduce_report = self._graph(
                ctx, store, manager)
            faults.note_phase("compress")
            with ctx.telemetry.phase("compress"):
                contigs, paths = run_compress(ctx, graph, store,
                                              release_graph=gfa_path is None)
            self._phase_end(ctx, "compress")
            if gfa_path is not None:
                from ..graph.gfa import write_gfa

                write_gfa(gfa_path, graph, paths=paths)
            graph.release()
        finally:
            store.close()
        return AssemblyResult(
            config=self.config,
            n_reads=store.n_reads,
            read_length=store.read_length,
            contigs=contigs,
            telemetry=ctx.telemetry,
            map_report=map_report,
            sort_report=sort_report,
            reduce_report=reduce_report,
            n_paths=paths.n_paths,
            paths=paths,
        )

    def _phase_end(self, ctx: RunContext, name: str) -> None:
        """The injectable crash point after a phase, then the phase hook.

        Both run *outside* the telemetry phase contexts (a raised
        ``JobCancelled``/``JobDeadlineExceeded`` must not mark a phase
        failed), the barrier first, so injected crashes and cooperative
        stops at the same boundary keep their relative order. A phase
        that was looked up instead of computed ends here all the same:
        every run passes the five boundaries once each, in order.
        """
        faults.barrier(faults.PHASE, name)
        self._boundary(ctx, name)

    def _boundary(self, ctx: RunContext, name: str) -> None:
        if self.phase_hook is not None:
            self.phase_hook(name, ctx.clock.total_seconds)

    # -- load ------------------------------------------------------------------

    def _cache_key(self, phase: str, reads_digest: str) -> str:
        from ..service.content_store import phase_key

        return phase_key(phase, [f"reads:{reads_digest}"], self.config)

    @staticmethod
    def _open_store(ctx: RunContext) -> PackedReadStore | None:
        """Open the workdir's ``reads.lsgr``, rejecting empty/corrupt stores.

        A store that opens but holds zero reads lost its header patch (the
        load commit point): ``run_load`` never returns an empty store.
        """
        try:
            store = PackedReadStore.open(ctx.workdir / "reads.lsgr",
                                         ctx.accountant)
        except (DatasetError, OSError):
            return None
        if store.n_reads > 0:
            return store
        store.close()
        return None

    def _load(self, ctx: RunContext, source, manager,
              source_digest: str | None) -> PackedReadStore:
        """The packed reads: this workdir's, else the cache's, else loaded."""
        store_path = ctx.workdir / "reads.lsgr"
        if manager is not None and manager.completed("load"):
            store = None if manager.damaged("load") else self._open_store(ctx)
            if store is not None:
                return store
            manager.invalidate_from("load")
        key = store = None
        if self.content_store is not None:
            if source_digest is None:
                source_digest = content_digest(
                    source.path if isinstance(source, PackedReadStore) else source)
            if source_digest is not None:  # else unreadable: run_load says so
                key = self._cache_key("load", source_digest)
                if self.content_store.fetch(key, ctx.workdir, phase="load",
                                            tracer=ctx.tracer) is not None:
                    store = self._open_store(ctx)
        if store is None:
            store = run_load(ctx, source)
            if key is not None:
                self.content_store.put(key, "load", ctx.workdir, [store_path],
                                       tracer=ctx.tracer)
        if manager is not None:
            manager.mark("load", [store_path])
        return store

    # -- map, sort, reduce -----------------------------------------------------

    def _graph(self, ctx: RunContext, store: PackedReadStore, manager,
               ) -> tuple[GreedyStringGraph, MapReport, SortPhaseReport,
                          ReduceReport]:
        """Map, sort and reduce: the graph and the three reports behind it.

        Resolved from the end. The graph is all compress reads, so when it
        is available (:meth:`_lookup_graph`) map and sort are marked from
        the records that came with it and nothing of theirs is fetched,
        digested or recomputed. Otherwise the run goes forward from the
        files on disk: map (unless the ledger has it), then sort and
        reduce one overlap length at a time, longest first.

        Reduce takes the longest overlaps first and a vertex takes one
        out-edge, so when a length's turn comes most of its records belong
        to vertices that are already closed. Each length is therefore
        sorted just before reduce reads it, with the out-degree bits so far
        as the filter (:func:`~repro.core.sort_phase.run_sort`). The longest
        length is sorted before the graph exists: nothing can be dropped
        yet, and it gets the whole host budget. The graph is the eager
        composition's (bits are only ever set, so a dropped record is one
        every later candidate of its vertex would have been refused for).

        Sort and reduce are recorded after the loop, so fault barriers and
        phase hooks see ``sort`` then ``reduce`` exactly once each; a
        workdir with some lengths sorted (an interrupted loop) uses those
        files as they are.
        """
        telemetry = ctx.telemetry
        key = self._cache_key("reduce", content_digest(store.path)) \
            if self.content_store is not None else None
        faults.note_phase("map")
        with telemetry.phase("map"):
            graph, records = self._lookup_graph(ctx, manager, key)
            if graph is None:
                partitions, map_report, records["map"] = self._map(
                    ctx, store, manager)
            else:
                self._mark(manager, "map", records)
        self._phase_end(ctx, "map")
        if graph is not None:
            for phase in ("sort", "reduce"):
                faults.note_phase(phase)
                with telemetry.phase(phase):
                    self._mark(manager, phase, records)
                self._phase_end(ctx, phase)
            return (graph, _map_report_from_json(records["map"]["report"]),
                    _sort_report_from_json(records["sort"]["report"]),
                    _reduce_report_from_json(records["reduce"]["report"]))

        sorted_before = manager.record("sort") if manager is not None else None
        sort_report = SortPhaseReport({}) if sorted_before is None \
            else _sort_report_from_json(sorted_before["report"])
        reduce_report = None
        for length in sorted(partitions.lengths(), reverse=True):
            if sorted_before is None:
                faults.note_phase("sort")
                with telemetry.phase("sort"):
                    beside = {} if graph is None else {
                        "closed": graph.out_bits, "resident_bytes": graph.nbytes}
                    sort_report.reports.update(run_sort(
                        ctx, partitions, lengths=(length,), **beside).reports)
            faults.note_phase("reduce")
            with telemetry.phase("reduce"):
                graph, reduce_report = run_reduce(
                    ctx, partitions, store, lengths=(length,), graph=graph,
                    report=reduce_report)
        faults.note_phase("sort")
        with telemetry.phase("sort"):
            records["sort"] = sorted_before or self._record(
                ctx, manager, "sort", _sort_report_json(sort_report),
                [partitions.path(side, length, sorted_run=True)
                 for (side, length) in sort_report.reports])
        self._phase_end(ctx, "sort")
        faults.note_phase("reduce")
        with telemetry.phase("reduce"):
            graph_path = ctx.workdir / GRAPH_FILE
            if manager is not None:
                manager.save_graph(graph)
            elif key is not None:
                # No ledger writing the archive for us: materialize it so
                # the cache entry has bytes to hold.
                save_graph_file(graph_path, graph)
            records["reduce"] = self._record(ctx, manager, "reduce",
                                             asdict(reduce_report), [graph_path])
            if key is not None:
                self.content_store.put(key, "reduce", ctx.workdir, [graph_path],
                                       meta=records, tracer=ctx.tracer)
        self._phase_end(ctx, "reduce")
        return graph, map_report, sort_report, reduce_report

    def _lookup_graph(self, ctx: RunContext, manager, key: str | None,
                      ) -> tuple[GreedyStringGraph | None, dict]:
        """The finished graph and the records of the phases behind it.

        From this workdir's ledger when its ``graph.npz`` is intact, else
        from the cache's ``reduce`` entry. ``(None, {})`` sends the run
        forward; only then are the partition files on disk looked at.
        """
        graph_path = ctx.workdir / GRAPH_FILE
        if manager is not None and manager.completed("reduce"):
            graph = None if manager.damaged("reduce") \
                else load_graph_file(graph_path, ctx.host_pool)
            records = {phase: manager.record(phase)
                       for phase in ("map", "sort", "reduce")}
            if graph is not None and all(records.values()):
                return graph, records
            graph_path.unlink(missing_ok=True)
            manager.invalidate_from("reduce")
        if key is not None:
            records = self.content_store.fetch(key, ctx.workdir, phase="reduce",
                                               tracer=ctx.tracer)
            if records is not None:
                graph = load_graph_file(graph_path, ctx.host_pool)
                if graph is not None:
                    return graph, records
        if manager is not None:
            self._validate_partitions(ctx, manager)
        return None, {}

    def _validate_partitions(self, ctx: RunContext,
                             manager: CheckpointManager) -> None:
        """Cross-check the ledger's map and sort against the files on disk.

        The sort phase consumes the map phase's partition files, so a
        missing *sorted* run cannot be regenerated from a "map complete"
        checkpoint unless its unsorted input still exists — in that case
        the invalidation must cascade back to map. (A ledger marked from a
        cache hit has no partition file at all: it cascades to map.)
        """
        dtype = kv_dtype(ctx.config.fingerprint_lanes)
        partitions = PartitionStore(ctx.workdir / "partitions", dtype, None)
        saved_map = manager.record("map")
        lengths = saved_map["report"]["lengths"] if saved_map else []
        if manager.completed("sort"):
            # Digest-damaged sorted runs must also be *removed* — the sort
            # rerun trusts any sorted file it finds on disk.
            damaged = manager.damaged("sort")
            for rel in damaged:
                (ctx.workdir / rel).unlink(missing_ok=True)
            sorted_complete = all(
                partitions.path(side, length, sorted_run=True).exists()
                for length in lengths for side in ("S", "P"))
            if not sorted_complete or damaged:
                manager.invalidate_from("sort")
        if manager.completed("map") and not manager.completed("sort"):
            # A partition is usable if its sorted run already exists, or if
            # the unsorted input survives *undamaged* — a torn unsorted run
            # would silently sort to a wrong (smaller) partition.
            recorded = manager.recorded_artifacts("map")
            for length in lengths:
                for side in ("S", "P"):
                    if partitions.path(side, length, sorted_run=True).exists():
                        continue
                    unsorted = partitions.path(side, length)
                    rel = str(unsorted.relative_to(ctx.workdir))
                    if not unsorted.exists() or (
                            rel in recorded
                            and file_digest(unsorted) != recorded[rel]):
                        manager.invalidate_from("map")
                        return

    def _map(self, ctx: RunContext, store: PackedReadStore, manager,
             ) -> tuple[PartitionStore, MapReport, dict | None]:
        """Partitions, report and record: the ledger's, else computed."""
        record = manager.record("map") if manager is not None else None
        if record is not None:
            partitions = PartitionStore(
                ctx.workdir / "partitions",
                kv_dtype(ctx.config.fingerprint_lanes), ctx.accountant)
            return partitions, _map_report_from_json(record["report"]), record
        partitions, report = run_map(ctx, store)
        record = self._record(
            ctx, manager, "map", {**asdict(report), "lengths": list(report.lengths)},
            [partitions.path(side, length) for length in report.lengths
             for side in ("S", "P")])
        return partitions, report, record

    def _record(self, ctx: RunContext, manager, phase: str, report: dict,
                artifacts) -> dict | None:
        """Record a computed phase: its report's JSON form and the digests.

        Goes into the ledger now and, as part of the ``reduce`` entry's
        meta, into the cache when the graph is done. ``None`` (and no file
        is digested) when the run keeps neither.
        """
        if manager is None and self.content_store is None:
            return None
        record = {"report": report,
                  "artifacts": artifact_digests(ctx.workdir, artifacts)}
        if manager is not None:
            manager.mark(phase, **record)
        return record

    @staticmethod
    def _mark(manager, phase: str, records: dict) -> None:
        """Mark a looked-up ``phase`` from its record, unless the ledger
        has it (the graph was its own, or an interrupted run got this far)."""
        if manager is not None and not manager.completed(phase):
            manager.mark(phase, **records[phase])
