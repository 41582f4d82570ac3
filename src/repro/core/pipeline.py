"""Pipeline orchestration: the :class:`Assembler` facade.

Runs load → map → sort → reduce → compress under per-phase telemetry, with
one :class:`~repro.core.context.RunContext` carrying the budgets and meters.
Phase names match the rows of the paper's Tables II/III ("Load", "Map",
"Sort", "Reduce", "Compress").

Sort and reduce are interleaved per overlap length, longest first: a
length's partitions are sorted just before reduce reads them, minus the
records the greedy graph has already closed (see
:meth:`Assembler._sort_and_reduce`). The re-entered ``sort`` / ``reduce``
phases merge into one telemetry row each. The paper's eager order is the
plain composition ``run_sort(ctx, partitions)`` → ``run_reduce(ctx,
partitions, store)``; it builds the same graph.

With ``resume=True`` (and an explicit ``workdir``) completed phases are
skipped using the :mod:`~repro.core.checkpoint` ledger — a 16-hour
paper-scale run interrupted after its sort phase restarts at reduce.
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
from .checkpoint import (GRAPH_FILE, CheckpointManager, config_fingerprint,
                         file_digest, load_graph_file, save_graph_file)
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
        #: set, every phase boundary first looks its output up by content
        #: key — identical phase inputs across jobs, tenants and
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
                 gfa_path: str | Path | None = None) -> AssemblyResult:
        """Assemble ``source`` (FASTQ path, ``.lsgr`` path, or open store).

        ``resume`` requires an explicit ``workdir`` and continues a prior
        interrupted run with the same configuration and input. ``gfa_path``
        additionally exports the string graph and contig paths as GFA 1.0.
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
            return self._run(ctx, source, manager, gfa_path)
        finally:
            ctx.cleanup()
            if tracer is not None:
                # Dump even when the run failed: a trace of a crashed run
                # (open spans, error-tagged phases) is exactly what the
                # chaos harness wants to look at.
                tracer.write(Path(self.config.trace))

    # -- phase drivers -------------------------------------------------------

    def _run(self, ctx: RunContext, source, manager: CheckpointManager | None,
             gfa_path=None) -> AssemblyResult:
        if manager is not None:
            self._validate_checkpoints(ctx, manager)
        self._boundary(ctx, "start")
        faults.note_phase("load")
        with ctx.telemetry.phase("load"):
            store = self._load(ctx, source, manager)
        try:
            faults.barrier(faults.PHASE, "load")
            self._boundary(ctx, "load")
            faults.note_phase("map")
            with ctx.telemetry.phase("map"):
                partitions, map_report = self._map(ctx, store, manager)
            faults.barrier(faults.PHASE, "map")
            self._boundary(ctx, "map")
            graph, sort_report, reduce_report = self._sort_and_reduce(
                ctx, partitions, store, manager)
            faults.note_phase("compress")
            with ctx.telemetry.phase("compress"):
                contigs, paths = run_compress(ctx, graph, store,
                                              release_graph=gfa_path is None)
            faults.barrier(faults.PHASE, "compress")
            self._boundary(ctx, "compress")
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

    def _boundary(self, ctx: RunContext, name: str) -> None:
        """Give the phase hook a deterministic stop point.

        Runs *outside* the telemetry phase contexts (a raised
        ``JobCancelled``/``JobDeadlineExceeded`` must not mark a phase
        failed) and after the fault barrier, so injected crashes and
        cooperative stops at the same boundary keep their relative order.
        """
        if self.phase_hook is not None:
            self.phase_hook(name, ctx.clock.total_seconds)

    def _validate_checkpoints(self, ctx: RunContext,
                              manager: CheckpointManager) -> None:
        """Cross-check the ledger against the files actually on disk.

        The sort phase consumes the map phase's partition files, so a
        missing *sorted* run cannot be regenerated from a "map complete"
        checkpoint unless its unsorted input still exists — in that case
        the invalidation must cascade back to map.
        """
        dtype = kv_dtype(ctx.config.fingerprint_lanes)
        partitions = PartitionStore(ctx.workdir / "partitions", dtype, None)
        saved_map = manager._state.get("map_report")
        lengths = saved_map["lengths"] if saved_map else []
        if manager.completed("load") and not manager.artifacts_intact("load"):
            manager.invalidate_from("load")
        if manager.completed("sort"):
            # Digest-damaged sorted runs must also be *removed* — the sort
            # rerun trusts any sorted file it finds on disk.
            damaged = [rel for rel, digest
                       in manager.recorded_artifacts("sort").items()
                       if file_digest(ctx.workdir / rel) != digest]
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
            inputs_available = True
            for length in lengths:
                for side in ("S", "P"):
                    if partitions.path(side, length, sorted_run=True).exists():
                        continue
                    unsorted = partitions.path(side, length)
                    if not unsorted.exists():
                        inputs_available = False
                        break
                    rel = str(unsorted.relative_to(ctx.workdir))
                    if rel in recorded and file_digest(unsorted) != recorded[rel]:
                        inputs_available = False
                        break
                if not inputs_available:
                    break
            if not inputs_available:
                manager.invalidate_from("map")
        if manager.completed("reduce") and not manager.artifacts_intact("reduce"):
            (ctx.workdir / GRAPH_FILE).unlink(missing_ok=True)
            manager.invalidate_from("reduce")

    # -- content-addressed phase cache ---------------------------------------

    def _cache_key(self, phase: str, inputs: list[str]) -> str:
        from ..service.content_store import phase_key

        return phase_key(phase, inputs, self.config)

    @staticmethod
    def _source_content_digest(source) -> str | None:
        """Content digest of the input reads (``None`` = uncacheable)."""
        path = Path(source.path) if isinstance(source, PackedReadStore) \
            else Path(source)
        return file_digest(path)

    @staticmethod
    def _open_cached_store(ctx: RunContext) -> PackedReadStore | None:
        """Open a fetched ``reads.lsgr``, rejecting empty/corrupt stores."""
        try:
            store = PackedReadStore.open(ctx.workdir / "reads.lsgr",
                                         ctx.accountant)
        except DatasetError:
            return None
        if store.n_reads > 0:
            return store
        store.close()
        return None

    # -- phase drivers (with ledger resume and cache lookup) ------------------

    def _load(self, ctx: RunContext, source, manager) -> PackedReadStore:
        store_path = ctx.workdir / "reads.lsgr"
        if manager is not None and manager.completed("load") and store_path.exists():
            # A store that opens but holds zero reads lost its header patch
            # (the load commit point) — run_load never returns an empty
            # store, so treat it as corrupt and reload.
            store = None
            try:
                store = PackedReadStore.open(store_path, ctx.accountant)
            except DatasetError:
                pass
            if store is not None and store.n_reads > 0:
                return store
            if store is not None:
                store.close()
            manager.invalidate_from("load")
        key = None
        if self.content_store is not None:
            source_digest = self._source_content_digest(source)
            if source_digest is not None:
                key = self._cache_key("load", [f"reads:{source_digest}"])
                fetched = self.content_store.fetch(key, ctx.workdir,
                                                   phase="load",
                                                   tracer=ctx.tracer)
                if fetched is not None:
                    store = self._open_cached_store(ctx)
                    if store is not None:
                        if manager is not None:
                            manager.mark("load", [store_path])
                        return store
        store = run_load(ctx, source)
        if manager is not None:
            manager.mark("load", [store_path])
        if key is not None:
            self.content_store.put(key, "load", ctx.workdir, [store_path],
                                   tracer=ctx.tracer)
        return store

    def _map(self, ctx: RunContext, store: PackedReadStore, manager,
             ) -> tuple[PartitionStore, MapReport]:
        dtype = kv_dtype(ctx.config.fingerprint_lanes)

        def unsorted_paths(partitions, report):
            return [partitions.path(side, length) for length in report.lengths
                    for side in ("S", "P")]

        if manager is not None and manager.completed("map"):
            saved = manager._state.get("map_report")
            partitions = PartitionStore(ctx.workdir / "partitions", dtype,
                                        ctx.accountant)
            if saved is not None:
                return partitions, _map_report_from_json(saved)
        key = None
        if self.content_store is not None:
            reads_digest = file_digest(ctx.workdir / "reads.lsgr")
            if reads_digest is not None:
                key = self._cache_key("map", [f"reads:{reads_digest}"])
                meta = self.content_store.fetch(key, ctx.workdir, phase="map",
                                                tracer=ctx.tracer)
                if meta is not None:
                    partitions = PartitionStore(ctx.workdir / "partitions",
                                                dtype, ctx.accountant)
                    report = _map_report_from_json(meta)
                    self._mark(manager, "map", meta,
                               unsorted_paths(partitions, report))
                    return partitions, report
        partitions, report = run_map(ctx, store)
        saved = {**asdict(report), "lengths": list(report.lengths)}
        self._mark(manager, "map", saved, unsorted_paths(partitions, report))
        if key is not None:
            self.content_store.put(key, "map", ctx.workdir,
                                   unsorted_paths(partitions, report),
                                   meta=saved, tracer=ctx.tracer)
        return partitions, report

    def _sort_and_reduce(self, ctx: RunContext, partitions: PartitionStore,
                         store: PackedReadStore, manager,
                         ) -> tuple[GreedyStringGraph, SortPhaseReport, ReduceReport]:
        """Sort and reduce, one overlap length at a time, longest first.

        Reduce takes the longest overlaps first and a vertex takes one
        out-edge, so when a length's turn comes most of its records belong
        to vertices that are already closed. Each length is therefore
        sorted just before reduce reads it, with the graph so far as the
        filter (:func:`~repro.core.sort_phase.run_sort`). The longest
        length is sorted before the graph exists: nothing can be dropped
        yet, and it gets the whole host budget. The graph is the eager
        composition's (bits are only ever set, so a dropped record is one
        every later candidate of its vertex would have been refused for).

        Look-ups come first and records last, so fault barriers and phase
        hooks see ``sort`` then ``reduce`` exactly once each. A half that
        was looked up is not recorded again; a workdir with some lengths
        sorted (an interrupted loop) uses those files as they are.
        """
        telemetry = ctx.telemetry
        graph = reduce_report = None
        faults.note_phase("sort")
        with telemetry.phase("sort"):
            sort_report, sort_key = self._lookup_sort(ctx, partitions, manager)
        sort_found = sort_report is not None
        if sort_found:
            faults.note_phase("reduce")
            with telemetry.phase("reduce"):
                graph, reduce_report = self._lookup_reduce(ctx, partitions,
                                                           manager)
        reduce_found = graph is not None
        if not reduce_found:
            if not sort_found:
                sort_report = SortPhaseReport({})
            for length in sorted(partitions.lengths(), reverse=True):
                if not sort_found:
                    faults.note_phase("sort")
                    with telemetry.phase("sort"):
                        sort_report.reports.update(run_sort(
                            ctx, partitions, lengths=(length,), graph=graph).reports)
                faults.note_phase("reduce")
                with telemetry.phase("reduce"):
                    graph, reduce_report = run_reduce(
                        ctx, partitions, store, lengths=(length,), graph=graph,
                        report=reduce_report)
        faults.note_phase("sort")
        if not sort_found:
            with telemetry.phase("sort"):
                self._record_sort(ctx, partitions, manager, sort_report, sort_key)
        faults.barrier(faults.PHASE, "sort")
        self._boundary(ctx, "sort")
        faults.note_phase("reduce")
        if not reduce_found:
            with telemetry.phase("reduce"):
                self._record_reduce(ctx, partitions, manager, graph,
                                    reduce_report)
        faults.barrier(faults.PHASE, "reduce")
        self._boundary(ctx, "reduce")
        return graph, sort_report, reduce_report

    @staticmethod
    def _mark(manager, phase: str, saved: dict, artifacts) -> None:
        """Ledger half of a record: the report's JSON form and the digests."""
        if manager is not None:
            manager._state[f"{phase}_report"] = saved
            manager.mark(phase, artifacts)

    @staticmethod
    def _sorted_paths(partitions: PartitionStore, report: SortPhaseReport):
        return [partitions.path(side, length, sorted_run=True)
                for (side, length) in report.reports]

    def _lookup_sort(self, ctx: RunContext, partitions: PartitionStore, manager,
                     ) -> tuple[SortPhaseReport | None, str | None]:
        """Sorted partitions from the ledger or the cache: ``(report, key)``.

        ``report`` is ``None`` when sorting is still to do; ``key`` is then
        the cache key to record the result under (``None`` = uncacheable).
        It hashes the unsorted files, which the sort consumes, so it has to
        be taken here.
        """
        if manager is not None and manager.completed("sort"):
            report = _sort_report_from_json(manager._state.get("sort_report", {}))
            if report.reports and all(
                    path.exists() for path in self._sorted_paths(partitions, report)):
                return report, None
            manager.invalidate_from("sort")
        if self.content_store is None:
            return None, None
        inputs = self._partition_inputs(partitions, sorted_run=False)
        if inputs is None:
            return None, None
        key = self._cache_key("sort", inputs)
        meta = self.content_store.fetch(key, ctx.workdir, phase="sort",
                                        tracer=ctx.tracer)
        if meta is None:
            return None, key
        report = _sort_report_from_json(meta)
        # Mirror the sort phase's file discipline: the unsorted partitions
        # are consumed once their sorted runs exist.
        for (side, length) in report.reports:
            partitions.delete(side, length)
        self._mark(manager, "sort", meta, self._sorted_paths(partitions, report))
        return report, None

    def _record_sort(self, ctx: RunContext, partitions: PartitionStore, manager,
                     report: SortPhaseReport, key: str | None) -> None:
        saved = _sort_report_json(report)
        paths = self._sorted_paths(partitions, report)
        self._mark(manager, "sort", saved, paths)
        if key is not None:
            self.content_store.put(key, "sort", ctx.workdir, paths, meta=saved,
                                   tracer=ctx.tracer)

    def _reduce_key(self, ctx: RunContext, partitions: PartitionStore,
                    ) -> str | None:
        """Cache key of the graph (reads + sorted partitions), if cacheable."""
        if self.content_store is None:
            return None
        inputs = self._partition_inputs(partitions, sorted_run=True)
        reads_digest = file_digest(ctx.workdir / "reads.lsgr")
        if inputs is None or reads_digest is None:
            return None
        return self._cache_key("reduce", [f"reads:{reads_digest}"] + inputs)

    def _lookup_reduce(self, ctx: RunContext, partitions: PartitionStore, manager,
                       ) -> tuple[GreedyStringGraph | None, ReduceReport | None]:
        """The graph from the ledger or the cache (every partition sorted)."""
        if manager is not None and manager.completed("reduce"):
            graph = manager.load_graph(ctx.host_pool)
            saved = manager._state.get("reduce_report")
            if graph is not None and saved is not None:
                return graph, _reduce_report_from_json(saved)
            manager.invalidate_from("reduce")
        key = self._reduce_key(ctx, partitions)
        if key is not None:
            meta = self.content_store.fetch(key, ctx.workdir, phase="reduce",
                                            tracer=ctx.tracer)
            if meta is not None:
                graph = load_graph_file(ctx.workdir / GRAPH_FILE, ctx.host_pool)
                if graph is not None:
                    self._mark(manager, "reduce", meta,
                               [ctx.workdir / GRAPH_FILE])
                    return graph, _reduce_report_from_json(meta)
        return None, None

    def _record_reduce(self, ctx: RunContext, partitions: PartitionStore, manager,
                       graph: GreedyStringGraph, report: ReduceReport) -> None:
        saved = asdict(report)
        key = self._reduce_key(ctx, partitions)
        if manager is not None:
            manager.save_graph(graph)
        elif key is not None:
            # No ledger writing the archive for us: materialize it so the
            # cache entry has bytes to hold.
            save_graph_file(ctx.workdir / GRAPH_FILE, graph)
        self._mark(manager, "reduce", saved, [ctx.workdir / GRAPH_FILE])
        if key is not None:
            self.content_store.put(key, "reduce", ctx.workdir,
                                   [ctx.workdir / GRAPH_FILE], meta=saved,
                                   tracer=ctx.tracer)

    @staticmethod
    def _partition_inputs(partitions: PartitionStore, *,
                          sorted_run: bool) -> list[str] | None:
        """Labeled content digests of every partition file, or ``None``.

        ``None`` (some expected file missing — e.g. a partially consumed
        resume state) makes the caller skip the cache for this phase; the
        ledger machinery handles mixed on-disk state instead.
        """
        inputs = []
        for length in partitions.lengths():
            for side in ("S", "P"):
                path = partitions.path(side, length, sorted_run=sorted_run)
                digest = file_digest(path)
                if digest is None:
                    return None
                inputs.append(f"{side}:{length}:{digest}")
        return inputs if inputs else None
