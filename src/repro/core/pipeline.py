"""Pipeline orchestration: the :class:`Assembler` facade.

Runs load → map → sort → reduce → compress under per-phase telemetry, with
one :class:`~repro.core.context.RunContext` carrying the budgets and meters.
Phase names match the rows of the paper's Tables II/III ("Load", "Map",
"Sort", "Reduce", "Compress").

Map, sort and reduce are interleaved, longest overlap first: the first
band is the whole-read length ``L``, whose reduce drops the duplicate
reads, then the overlap lengths are mapped in bands of 1, 4, 16, ...
lengths, each band just before its lengths are sorted and reduced, and
each length is sorted just before reduce reads it. Map and sort both leave
out the records the greedy graph has already closed (see
:meth:`Assembler._graph`). The run's
:class:`~repro.core.residency.Residency` plan places what can stay in host
memory: a run the sort leaves in one piece is handed to reduce from there,
never written, and an in-core run keeps the partitions of every band and
the packed reads there too, so it uses the disk for load alone (and a
ledger's ``state.json`` and ``graph.npz``). The re-entered ``map`` / ``sort`` /
``reduce`` phases merge into one telemetry row each. The paper's eager
order is the plain composition ``run_map(ctx, store)`` →
``run_sort(ctx, partitions)`` → ``run_reduce(ctx, partitions, store)``;
it builds the same graph.

With ``resume=True`` (and an explicit ``workdir``) completed phases are
skipped using the :mod:`~repro.core.checkpoint` ledger — a 16-hour
paper-scale run interrupted after its sort phase restarts at reduce. With
a ``content_store`` the packed reads and the finished graph are shared
across workdirs. Either way a run is resolved from its end: an available
graph stands for map, sort and reduce together.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from pathlib import Path

from ..config import AssemblyConfig
from ..device.specs import DiskSpec, HostSpec
from ..errors import ConfigError, DatasetError
from ..extmem import PartitionStore
from ..extmem.partitions import partition_sides
from ..extmem.records import kv_dtype
from ..faults import plan as faults
from ..graph import GreedyStringGraph
from ..seq.packing import PackedReadStore
from .checkpoint import (GRAPH_FILE, PHASES, CheckpointManager,
                         artifact_digests, config_fingerprint, content_digest,
                         load_graph_file, save_graph_file)
from .compress_phase import run_compress
from .context import RunContext
from .load_phase import run_load
from .map_phase import (MapReport, band_report, open_vertices,
                        overlap_lengths, run_map)
from .reduce_phase import ReduceReport, run_reduce
from .residency import Residency
from .results import AssemblyResult
from .sort_phase import SortPhaseReport, run_sort


#: The map's overlap bands grow by this factor, longest lengths first: 1,
#: 4, 16, ... lengths. Each band walks the store once more, but maps only
#: the claims the graph has left open at its start (DESIGN.md, *the map
#: writes only what can still win*).
BAND_GROWTH = 4


def _bands(lengths, read_length: int) -> list[list[int]]:
    """The whole-read length alone, then the overlap ``lengths`` longest
    first, cut into bands of 1, 4, 16, ... lengths."""
    order = sorted(lengths, reverse=True)
    bands, size = [[read_length]], 1
    while order:
        bands.append(order[:size])
        order, size = order[size:], size * BAND_GROWTH
    return bands


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
        already taken it (the service has, for single-flight); it keys the
        checkpoint ledger and the content store's ``load`` entry.
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
        if source_digest is None and (resume or self.content_store is not None):
            source_digest = content_digest(
                source.path if isinstance(source, PackedReadStore) else source)
        ctx = RunContext(self.config, workdir=workdir, disk=self.disk,
                         host=self.host, tracer=tracer)
        # The ledger's input identity is its content: an input replaced in
        # place by another of the same size must not resume the old one.
        # Unreadable input keeps the path identity; run_load says why.
        manager = CheckpointManager(ctx.workdir, config_fingerprint(
            self.config, source_digest or _source_identity(source))
        ) if resume else None
        if manager is None or not manager.resumed:
            # Partition files are reused only under this run's ledger
            # (:meth:`_graph`): another run's are gone before it writes one.
            shutil.rmtree(ctx.workdir / "partitions", ignore_errors=True)
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
        store = None
        try:
            with self._phase(ctx, "load"):
                store = self._load(ctx, source, manager, source_digest)
            graph, map_report, sort_report, reduce_report = self._graph(
                ctx, store, manager)
            with self._phase(ctx, "compress"):
                contigs, paths = run_compress(ctx, graph, store,
                                              release_graph=gfa_path is None)
            if gfa_path is not None:
                from ..graph.gfa import write_gfa

                write_gfa(gfa_path, graph, paths=paths)
            graph.release()
        finally:
            if store is not None:
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

    @contextmanager
    def _phase(self, ctx: RunContext, name: str, boundary: bool = True):
        """One step of phase ``name``: its fault label and telemetry row,
        then, on a clean exit, its boundary.

        The boundary is the injectable crash point, then the phase hook.
        Both run *outside* the telemetry row (a raised
        ``JobCancelled``/``JobDeadlineExceeded`` must not mark a phase
        failed), the barrier first, so injected crashes and cooperative
        stops at the same boundary keep their relative order. A phase that
        was looked up instead of computed ends here all the same: every run
        passes the five boundaries once each, in order. The per-length
        sort and reduce steps re-enter their rows with ``boundary=False``.
        """
        faults.note_phase(name)
        with ctx.telemetry.phase(name):
            yield
        if boundary:
            faults.barrier(faults.PHASE, name)
            self._boundary(ctx, name)

    def _boundary(self, ctx: RunContext, name: str) -> None:
        if self.phase_hook is not None:
            self.phase_hook(name, ctx.clock.total_seconds)

    def _restore(self, ctx: RunContext, manager, phase: str, path: Path,
                 open_fn, key: str | None, records=()) -> tuple[object, dict]:
        """What ``phase`` left in ``path``, opened, and the records behind it.

        From this workdir's ledger when it has ``phase`` and the
        ``records`` and the artifact is undamaged and opens; else (the
        artifact removed and the ledger invalidated from ``phase``) from
        the cache entry ``key``. ``(None, {})`` sends the run forward.
        """
        if manager is not None and manager.completed(phase):
            saved = {name: manager.record(name) for name in records}
            if all(saved.values()) and not manager.damaged(phase):
                found = open_fn()
                if found is not None:
                    return found, saved
            path.unlink(missing_ok=True)
            manager.invalidate_from(phase)
        if key is not None:
            meta = self.content_store.fetch(key, ctx.workdir, phase=phase,
                                            tracer=ctx.tracer)
            if meta is not None:
                found = open_fn()
                if found is not None:
                    return found, meta
                # Intact bytes that do not open (another program's
                # layout): the entry goes, so the recompute's put replaces
                # it instead of finding the key taken.
                self.content_store.discard(key)
        return None, {}

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
        # No digest: the input is unreadable and run_load says so.
        key = self._cache_key("load", source_digest) \
            if self.content_store is not None and source_digest else None
        store, _ = self._restore(ctx, manager, "load", store_path,
                                 lambda: self._open_store(ctx), key)
        try:
            if store is None:
                store = run_load(ctx, source)
                if key is not None:
                    self.content_store.put(key, "load", ctx.workdir,
                                           [store_path], tracer=ctx.tracer)
            if manager is not None and not manager.completed("load"):
                manager.mark("load", [store_path])
        except BaseException:
            # The caller never gets the store: close it here.
            if store is not None:
                store.close()
            raise
        return store

    # -- map, sort, reduce -----------------------------------------------------

    def _graph(self, ctx: RunContext, store: PackedReadStore, manager,
               ) -> tuple[GreedyStringGraph, MapReport, SortPhaseReport,
                          ReduceReport]:
        """Map, sort and reduce: the graph and the three reports behind it.

        Resolved from the end. The graph is all compress reads, so when it
        is available (:meth:`_restore` of ``graph.npz``) map and sort are
        marked from the records that came with it and nothing of theirs is
        fetched, digested or recomputed. Otherwise the run goes forward one
        band of lengths at a time, longest first (:func:`_bands`): map the
        band, then sort and reduce each of its lengths. The first band is
        the whole-read length ``L``: one partition ``P_L``, sorted, whose
        reduce creates the graph and drops every duplicate read
        (:func:`~repro.core.reduce_phase.close_duplicates`), so no band of
        overlap lengths maps, sorts or reduces a duplicate.

        Reduce takes the longest overlaps first and a vertex takes one
        out-edge, so when a length's turn comes most of its records belong
        to vertices that are already closed. From the second band on, the
        map writes only the records whose claim the out-degree bits leave
        open at the band's start
        (:func:`~repro.core.map_phase.run_map`'s ``closed``), and each
        length is sorted just before reduce reads it with the bits so far
        as a second, newer filter
        (:func:`~repro.core.sort_phase.run_sort`). The ``L`` band is mapped
        and sorted before the graph exists: nothing can be dropped yet, and
        it gets the whole host budget. The graph is the eager
        composition's (bits are only ever set, so a dropped record is one
        every later candidate of its vertex would have been refused for).
        One :class:`~repro.core.residency.Residency` plan, built here,
        places the packed store, every band's partitions and every sorted
        run in host memory or on disk. A held run is never written: the
        ledger's sort record vouches for the runs that spilled, and a
        resume maps and sorts again every length that has no sorted file.

        Map, sort and reduce are recorded after the loop, in that order, so
        fault barriers and phase hooks see each exactly once. The map's
        record is the summed report alone: the sort consumes every file the
        map writes. One rule resumes the loop: a length whose sorted runs
        exist is neither mapped nor sorted again (``L``'s reduce closes the
        duplicates again from its sorted run; sorted runs the ledger's
        sort record no longer vouches for are deleted first), and every
        other length of its band is mapped again from scratch
        (:meth:`_map_band`). The map report of a band is computed from the
        bits it starts from
        (:func:`~repro.core.map_phase.band_report`) and ``run_sort``
        rebuilds the reports of the runs it finds, so a resumed run reports
        what an uninterrupted one does.
        """
        key = self._cache_key("reduce", content_digest(store.path)) \
            if self.content_store is not None else None
        graph_path = ctx.workdir / GRAPH_FILE
        with self._phase(ctx, "map", boundary=False):
            graph, records = self._restore(
                ctx, manager, "reduce", graph_path,
                lambda: load_graph_file(graph_path, ctx.host_pool), key,
                records=PHASES[1:4])
        if graph is not None:
            for phase in ("map", "sort", "reduce"):
                with self._phase(ctx, phase):
                    self._mark(manager, phase, records)
            return (graph, MapReport.from_json(records["map"]["report"]),
                    SortPhaseReport.from_json(records["sort"]["report"]),
                    ReduceReport.from_json(records["reduce"]["report"]))

        if manager is not None:
            damaged = manager.damaged("sort")
            for rel in damaged:
                (ctx.workdir / rel).unlink(missing_ok=True)
            if damaged:
                manager.invalidate_from("sort")
        lengths = overlap_lengths(ctx, store.read_length)
        plan = Residency(ctx, store)
        plan.hold_store(store)
        band_reports = []
        sort_report = SortPhaseReport({})
        reduce_report = None
        for band in _bands(lengths, store.read_length):
            partitions = PartitionStore(ctx.workdir / "partitions",
                                        kv_dtype(ctx.config.fingerprint_lanes),
                                        ctx.accountant)
            try:
                with self._phase(ctx, "map", boundary=False):
                    band_reports.append(self._map_band(
                        ctx, store, partitions, band, graph, plan))
                for length in band:
                    with self._phase(ctx, "sort", boundary=False):
                        sort_report.reports.update(run_sort(
                            ctx, partitions, lengths=(length,),
                            closed=None if graph is None else graph.out_bits,
                            plan=plan).reports)
                    with self._phase(ctx, "reduce", boundary=False):
                        graph, reduce_report = run_reduce(
                            ctx, partitions, store, lengths=(length,),
                            graph=graph, report=reduce_report)
                plan.check_block(store, graph)
            finally:
                # Writers of a map that raised close, and a run held for a
                # reduce that never came gives its host memory back.
                partitions.abandon()
        map_report = MapReport(
            store.n_reads, sum(report.n_batches for report in band_reports),
            sum(report.tuples_written for report in band_reports), lengths)
        with self._phase(ctx, "map"):
            records["map"] = self._record(ctx, manager, "map",
                                          map_report.to_json(), [])
        with self._phase(ctx, "sort"):
            records["sort"] = self._record(
                ctx, manager, "sort", sort_report.to_json(),
                [partitions.path(side, length, sorted_run=True)
                 for (side, length) in sort_report.reports])
        with self._phase(ctx, "reduce"):
            if manager is not None:
                manager.save_graph(graph)
            elif key is not None:
                # No ledger writing the archive for us: materialize it so
                # the cache entry has bytes to hold.
                save_graph_file(graph_path, graph)
            records["reduce"] = self._record(
                ctx, manager, "reduce", reduce_report.to_json(), [graph_path])
            if key is not None:
                self.content_store.put(key, "reduce", ctx.workdir, [graph_path],
                                       meta=records, tracer=ctx.tracer)
        return graph, map_report, sort_report, reduce_report

    @staticmethod
    def _map_band(ctx: RunContext, store: PackedReadStore,
                  partitions: PartitionStore, band: list[int],
                  graph: GreedyStringGraph | None, plan: Residency) -> MapReport:
        """Map what ``band`` still needs; the band's report either way.

        A length whose sorted runs exist is not mapped (a resumed run's;
        ``P_L`` is the whole-read length's one run); of a length with one
        side sorted, the other side's new file is the one kept. With the
        graph, only the claims it leaves open are mapped, in the host
        memory it leaves. Each side of each length receives one record per
        vertex the graph leaves open (every vertex before it exists), so
        the ``plan`` knows the band's bytes before it is mapped and may
        keep its partitions in host memory, the first band's too.
        """
        closed = None if graph is None else graph.out_bits
        todo = {length for length in band if not all(
            partitions.path(side, length, sorted_run=True).exists()
            for side in partition_sides(length, store.read_length))}
        if todo:
            plan.keep(partitions, todo, open_vertices(store, closed))
            run_map(ctx, store, partitions, only_lengths=todo, closed=closed,
                    resident_bytes=plan.resident_bytes)
        partitions.finalize()
        for length in todo:
            for side in partition_sides(length, store.read_length):
                if partitions.path(side, length, sorted_run=True).exists():
                    partitions.delete(side, length)
        return band_report(ctx, store, band, closed)

    def _record(self, ctx: RunContext, manager, phase: str, report: dict,
                artifacts) -> dict | None:
        """Record a computed phase: its report's JSON form and the digests.

        Goes into the ledger now and, as part of the ``reduce`` entry's
        meta, into the cache when the graph is done. The ledger's record
        when it has ``phase`` already (a resumed run's sort); ``None`` (and
        no file is digested) when the run keeps neither.
        """
        if manager is not None and manager.completed(phase):
            return manager.record(phase)
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
