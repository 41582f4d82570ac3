"""The span tracer: begin/end events on named tracks, dual-clock stamped.

The paper's whole evaluation is about *where time goes* (per-phase wall
times in Tables II/III, the I/O-bound claim behind Fig. 8–10), and
per-phase aggregates do not show it. This module records the actual
timeline:

* :class:`SpanTracer` — a thread-safe event log. Every begin/end event is
  stamped against **both** clocks: the wall clock (``time.perf_counter``
  relative to the tracer's epoch) and the run's simulated hardware clock
  (:class:`~repro.device.clock.SimClock` total seconds). Events land on
  named *tracks* — pipeline, sort, merge, cache, one per distributed node —
  which become the rows of the exported timeline.
* :meth:`SpanTracer.bind` — a second tracer over the same event log with
  its own simulated-clock source and track prefix; a distributed worker
  node binds the cluster's tracer with its own clock and a ``nodeNN/``
  prefix.
* :data:`NULL_TRACER` — the disabled singleton. Every instrument site in
  the pipeline calls through a tracer unconditionally; with tracing off
  the calls hit no-op methods and a cached no-op span, so nothing is
  allocated and no event is recorded (the ``enabled`` flag additionally
  guards the few call sites that would compute arguments).

Events carry a ``det`` flag selecting the spans of the simulated-clock
Perfetto export (:func:`repro.trace.perfetto.build_perfetto` with
``clock="sim"``): the modeled units (phases, sorts, merge rounds and
groups, cluster steps), not the per-block, per-run and per-window spans
that would make up most of its bytes. That export is byte-identical from
run to run for the same input.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

#: Trace schema version, recorded in every manifest.
TRACE_FORMAT_VERSION = 1

#: File names written by :meth:`SpanTracer.write`.
EVENTS_FILE = "events.jsonl"
MANIFEST_FILE = "manifest.json"
PERFETTO_FILE = "trace.json"
PERFETTO_SIM_FILE = "trace.sim.json"

SimTime = Callable[[], float]


class _Span:
    """Context manager over one begin/end pair (see :meth:`SpanTracer.span`)."""

    __slots__ = ("_tracer", "_name", "_track", "_cat", "_det", "_clock",
                 "_args", "_handle", "_notes")

    def __init__(self, tracer: "SpanTracer", name: str, track: str, cat: str,
                 det: bool, clock: SimTime | None, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._cat = cat
        self._det = det
        self._clock = clock
        self._args = args
        self._handle = -1
        self._notes: dict | None = None

    def note(self, **args: Any) -> None:
        """Attach arguments to the span's end event (post-hoc results)."""
        if self._notes is None:
            self._notes = {}
        self._notes.update(args)

    def __enter__(self) -> "_Span":
        self._handle = self._tracer.begin(
            self._name, track=self._track, cat=self._cat, det=self._det,
            clock=self._clock, args=self._args)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        self._tracer.end(self._handle, clock=self._clock, error=error,
                         args=self._notes)


class _NullSpan:
    """The reusable no-op span handed out by the disabled tracer."""

    __slots__ = ()

    def note(self, **args: Any) -> None:
        """Ignore post-hoc arguments."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _EventLog:
    """What a :class:`SpanTracer` shares with every tracer bound from it."""

    __slots__ = ("lock", "epoch", "events", "open", "next_id", "phase")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.epoch = time.perf_counter()
        self.events: list[dict] = []
        self.open: dict[int, tuple[str, str, str, bool]] = {}
        self.next_id = 0
        self.phase = ""


class SpanTracer:
    """Thread-safe span recorder for one run.

    Events accumulate in memory (appends under a lock; the service's batch
    threads record concurrently) and are dumped by
    :meth:`write` as a JSONL event log, a run manifest, and two Perfetto
    trace JSON files (wall-clock and deterministic simulated-clock).
    """

    enabled = True

    def __init__(self, *, sim_time: SimTime | None = None,
                 meta: Mapping[str, Any] | None = None):
        self._log = _EventLog()
        self._prefix = ""
        #: Default simulated-clock source of the events this tracer records.
        self.sim_time = sim_time
        self.meta = dict(meta or {})

    # -- clocks ---------------------------------------------------------------

    def _wall(self, at: float | None) -> float:
        raw = time.perf_counter() if at is None else at
        return raw - self._log.epoch

    def _sim(self, clock: SimTime | None) -> float:
        source = clock if clock is not None else self.sim_time
        return float(source()) if source is not None else 0.0

    # -- phase tagging --------------------------------------------------------

    def set_phase(self, name: str) -> None:
        """Tag subsequent events with telemetry phase ``name`` ("" for none)."""
        self._log.phase = name

    # -- recording ------------------------------------------------------------

    def _record(self, event: dict) -> None:
        with self._log.lock:
            self._log.events.append(event)

    def begin(self, name: str, *, track: str = "main", cat: str = "span",
              det: bool = False, clock: SimTime | None = None,
              at: float | None = None, args: Mapping[str, Any] | None = None,
              ) -> int:
        """Record a span-begin event; returns the handle :meth:`end` needs.

        ``at`` is a raw ``time.perf_counter()`` stamp taken by the caller
        (so a caller timing the region itself produces a span of exactly
        the duration it measured); omitted, the tracer stamps now.
        """
        log = self._log
        track = self._prefix + track
        event = {
            "ph": "B", "name": name, "track": track, "cat": cat, "det": det,
            "phase": log.phase,
            "wall": self._wall(at), "sim": self._sim(clock),
        }
        if args:
            event["args"] = dict(args)
        with log.lock:
            span_id = log.next_id
            log.next_id += 1
            event["id"] = span_id
            log.open[span_id] = (name, track, cat, det)
            log.events.append(event)
        return span_id

    def end(self, handle: int, *, clock: SimTime | None = None,
            at: float | None = None, error: str | None = None,
            args: Mapping[str, Any] | None = None) -> None:
        """Record the end event matching a :meth:`begin` handle."""
        with self._log.lock:
            opened = self._log.open.pop(handle, None)
        if opened is None:
            return
        name, track, cat, det = opened
        event = {
            "ph": "E", "id": handle, "name": name, "track": track, "cat": cat,
            "det": det, "phase": self._log.phase,
            "wall": self._wall(at), "sim": self._sim(clock),
        }
        if error is not None:
            event["error"] = error
        if args:
            event["args"] = dict(args)
        self._record(event)

    def span(self, name: str, *, track: str = "main", cat: str = "span",
             det: bool = False, clock: SimTime | None = None,
             **args: Any) -> _Span:
        """A ``with``-able span: begin on enter, end (with error) on exit."""
        return _Span(self, name, track, cat, det, clock, args or None)

    def complete(self, name: str, begin_wall: float, end_wall: float, *,
                 track: str = "main", cat: str = "span", det: bool = False,
                 clock: SimTime | None = None, sim0: float | None = None,
                 sim1: float | None = None, **args: Any) -> None:
        """Record an already-measured span from raw perf_counter stamps.

        For callers that time a region themselves: the span has exactly
        the duration they measured. ``sim0``/``sim1`` override the
        simulated stamps (the distributed reduce records token hops at
        modeled times its own arithmetic produced).
        """
        log = self._log
        sim_now = self._sim(clock) if sim0 is None or sim1 is None else 0.0
        base = {
            "name": name, "track": self._prefix + track, "cat": cat,
            "det": det, "phase": log.phase,
        }
        if args:
            base["args"] = dict(args)
        with log.lock:
            span_id = log.next_id
            log.next_id += 1
            begin = dict(base, ph="B", id=span_id, wall=self._wall(begin_wall),
                         sim=sim_now if sim0 is None else float(sim0))
            end = dict(base, ph="E", id=span_id, wall=self._wall(end_wall),
                       sim=sim_now if sim1 is None else float(sim1))
            log.events.append(begin)
            log.events.append(end)

    def instant(self, name: str, *, track: str = "main", cat: str = "span",
                det: bool = False, clock: SimTime | None = None,
                sim_at: float | None = None, **args: Any) -> None:
        """Record a zero-duration marker event."""
        event = {
            "ph": "I", "name": name, "track": self._prefix + track,
            "cat": cat, "det": det,
            "phase": self._log.phase, "wall": self._wall(None),
            "sim": self._sim(clock) if sim_at is None else float(sim_at),
        }
        if args:
            event["args"] = dict(args)
        self._record(event)

    # -- views ----------------------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """A snapshot of every recorded event, in record order."""
        with self._log.lock:
            return list(self._log.events)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (non-zero mid-run or after a crash)."""
        with self._log.lock:
            return len(self._log.open)

    def bind(self, sim_time: SimTime | None = None, *,
             prefix: str = "") -> "SpanTracer":
        """A tracer recording into this one's event log with its own clock
        (falling back to this one's) and ``prefix`` appended to the track
        prefix, so several contexts interleave into one log with
        distinguishable tracks and correct modeled timestamps."""
        bound = copy.copy(self)
        bound.sim_time = sim_time or self.sim_time
        bound._prefix = self._prefix + prefix
        return bound

    # -- output ---------------------------------------------------------------

    def write(self, path: str | Path) -> dict[str, Path]:
        """Dump the trace into directory ``path``; returns the files written.

        Writes the raw JSONL event log, a run manifest, the wall-clock
        Perfetto trace (one row per track — load it at
        ``chrome://tracing`` or ui.perfetto.dev), and the deterministic
        simulated-clock Perfetto trace (``det`` spans only; byte-identical
        from run to run).
        """
        from .perfetto import build_perfetto

        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        events = self.events
        files = {
            "events": directory / EVENTS_FILE,
            "manifest": directory / MANIFEST_FILE,
            "perfetto": directory / PERFETTO_FILE,
            "perfetto_sim": directory / PERFETTO_SIM_FILE,
        }
        with files["events"].open("w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        walls = [event["wall"] for event in events]
        manifest = {
            "format_version": TRACE_FORMAT_VERSION,
            "meta": self.meta,
            "n_events": len(events),
            "n_spans": sum(1 for e in events if e["ph"] == "B"),
            "open_spans": self.open_spans,
            "tracks": sorted({e["track"] for e in events}),
            "phases": sorted({e["phase"] for e in events if e["phase"]}),
            "wall_extent_s": (max(walls) - min(walls)) if walls else 0.0,
            "files": {key: file.name for key, file in files.items()},
        }
        files["manifest"].write_text(json.dumps(manifest, sort_keys=True,
                                                indent=2) + "\n")
        for key, clock in (("perfetto", "wall"), ("perfetto_sim", "sim")):
            trace = build_perfetto(events, clock=clock)
            files[key].write_bytes(
                json.dumps(trace, sort_keys=True,
                           separators=(",", ":")).encode() + b"\n")
        return files


class NullTracer:
    """The disabled tracer: every method is a no-op, every span is cached.

    Instrument sites call tracer methods unconditionally; with tracing off
    this class guarantees zero event allocation. Sites that would compute
    arguments (lane names, record counts) additionally guard on
    :attr:`enabled`.
    """

    enabled = False

    def set_phase(self, name: str) -> None:
        """No-op."""

    def begin(self, name: str, **kwargs: Any) -> int:
        """No-op; returns an inert handle."""
        return -1

    def end(self, handle: int, **kwargs: Any) -> None:
        """No-op."""

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        """The cached no-op span."""
        return _NULL_SPAN

    def complete(self, name: str, begin_wall: float, end_wall: float,
                 **kwargs: Any) -> None:
        """No-op."""

    def instant(self, name: str, **kwargs: Any) -> None:
        """No-op."""

    def bind(self, sim_time: SimTime | None = None, *,
             prefix: str = "") -> "NullTracer":
        """Binding a disabled tracer stays disabled."""
        return self


#: The process-wide disabled tracer (no state, safe to share everywhere).
NULL_TRACER = NullTracer()
