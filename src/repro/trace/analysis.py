"""Trace summarization: busy fractions and reconciliation with telemetry.

The tentpole invariant of the tracing layer is that it *agrees with the
telemetry it sits beside*: per-phase span durations must reconcile with
:class:`~repro.telemetry.Telemetry` wall times. :func:`reconcile` checks
that; ``tests/test_trace.py`` calls it on real runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import TraceError
from ..telemetry import Telemetry
from .perfetto import pair_spans


def load_events(path: str | Path) -> list[dict]:
    """Read a tracer's ``events.jsonl`` log back into event dicts."""
    events = []
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"{path}:{line_number}: malformed event line") from exc
    return events


def check_balanced(events: Iterable[Mapping]) -> int:
    """Assert every begin has a matching end; returns the span count.

    A completed run must dump a balanced log — an unmatched begin means a
    span leaked (or the run crashed mid-span), which the CI smoke leg
    treats as a failure.
    """
    spans, unmatched = pair_spans(events)
    if unmatched:
        raise TraceError(f"{unmatched} span(s) begun but never ended")
    return len(spans)


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping/nested intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return covered + (current_end - current_start)


@dataclass(frozen=True)
class TrackSummary:
    """Activity on one trace track (node, pipeline row)."""

    n_spans: int
    #: Wall seconds covered by at least one span (nested spans not
    #: double-counted), i.e. the track's busy time.
    busy_s: float
    #: ``busy_s`` over the whole trace extent.
    busy_fraction: float


@dataclass(frozen=True)
class TraceSummary:
    """Everything :func:`summarize` derives from one event log."""

    #: Wall seconds from first to last event.
    extent_s: float
    tracks: dict[str, TrackSummary] = field(default_factory=dict)
    #: Summed wall duration of the ``phase`` spans, by phase name.
    phase_wall_s: dict[str, float] = field(default_factory=dict)


def summarize(events: str | Path | Iterable[Mapping]) -> TraceSummary:
    """Summarize an event log (a path to ``events.jsonl`` or raw events)."""
    if isinstance(events, (str, Path)):
        events = load_events(events)
    spans, _unmatched = pair_spans(events)
    if not spans:
        return TraceSummary(extent_s=0.0)
    extent = (max(span["wall1"] for span in spans)
              - min(span["wall0"] for span in spans))
    by_track: dict[str, list[tuple[float, float]]] = {}
    phase_wall: dict[str, float] = {}
    for span in spans:
        duration = span["wall1"] - span["wall0"]
        by_track.setdefault(span["track"], []).append(
            (span["wall0"], span["wall1"]))
        if span["cat"] == "phase":
            phase_wall[span["name"]] = phase_wall.get(span["name"], 0.0) \
                + duration
    tracks = {
        track: TrackSummary(
            n_spans=len(intervals),
            busy_s=(covered := _interval_union(intervals)),
            busy_fraction=(covered / extent) if extent > 0 else 0.0)
        for track, intervals in by_track.items()
    }
    return TraceSummary(extent_s=extent, tracks=tracks,
                        phase_wall_s=phase_wall)


def resilience_events(events: str | Path | Iterable[Mapping]) -> dict:
    """Aggregate the resilience instrumentation out of one event log.

    The supervisor (:mod:`repro.distributed.resilience`) emits ``cat ==
    "resilience"`` spans/instants plus ``token-retry`` markers from the
    reduce loop; this rolls them up into the shape the chaos CI leg and
    the resilience benchmark report on::

        {"heartbeat_misses": int, "backoffs": int, "backoff_sim_s": float,
         "restarts": int, "reassignments": int, "token_retries": int,
         "nodes_lost": int, "partitions_dropped": int}

    A clean run yields all zeros — the fast path emits none of these.
    """
    if isinstance(events, (str, Path)):
        events = load_events(events)
    counts = {
        "heartbeat_misses": 0, "backoffs": 0, "backoff_sim_s": 0.0,
        "restarts": 0, "reassignments": 0, "token_retries": 0,
        "nodes_lost": 0, "partitions_dropped": 0,
    }
    markers = {
        "heartbeat-miss": "heartbeat_misses",
        "token-retry": "token_retries",
        "node-lost": "nodes_lost",
        "partition-dropped": "partitions_dropped",
    }
    spans, _unmatched = pair_spans(events)
    for span in spans:
        name = span["name"]
        if name == "backoff":
            counts["backoffs"] += 1
            counts["backoff_sim_s"] += span["sim1"] - span["sim0"]
        elif name == "failover":
            action = span["args"].get("action")
            if action == "restart":
                counts["restarts"] += 1
            elif action == "reassign":
                counts["reassignments"] += 1
        elif name in markers:
            counts[markers[name]] += 1
    return counts


def cache_events(events: str | Path | Iterable[Mapping]) -> dict:
    """Aggregate the content-cache instrumentation out of one event log.

    The :class:`~repro.service.content_store.ContentStore` emits instants
    on the ``cache`` track for every lookup outcome; this rolls them up
    into the shape the service benchmark and CI leg report on::

        {"hits": int, "misses": int, "puts": int, "evictions": int,
         "damaged": int, "hit_bytes": int, "evicted_bytes": int}

    A run without a configured cache yields all zeros.
    """
    if isinstance(events, (str, Path)):
        events = load_events(events)
    counts = {"hits": 0, "misses": 0, "puts": 0, "evictions": 0,
              "damaged": 0, "hit_bytes": 0, "evicted_bytes": 0}
    markers = {"cache-hit": "hits", "cache-miss": "misses",
               "cache-put": "puts", "cache-evict": "evictions",
               "cache-damaged": "damaged"}
    spans, _unmatched = pair_spans(events)
    for span in spans:
        key = markers.get(span["name"])
        if key is None or span["track"] != "cache":
            continue
        counts[key] += 1
        if span["name"] == "cache-hit":
            counts["hit_bytes"] += int(span["args"].get("bytes", 0))
        elif span["name"] == "cache-evict":
            counts["evicted_bytes"] += int(span["args"].get("bytes", 0))
    return counts


def service_resilience_events(events: str | Path | Iterable[Mapping]) -> dict:
    """Aggregate the service failure-ladder instrumentation from an event log.

    The :class:`~repro.service.AssemblyService` scheduler emits instants on
    the ``service`` track for every rung of its failure ladder (retry,
    cancellation, deadline, promotion, quarantine, shedding); this rolls
    them up into the shape the service-chaos CI leg and the service
    benchmark report on::

        {"job_retries": int, "retry_backoff_sim_s": float,
         "cancelled": int, "timed_out": int, "leaders_promoted": int,
         "quarantined": int, "quarantine_hits": int,
         "admission_shed": int, "drain_shed": int}

    A clean, un-drained run yields all zeros — the fast path emits none
    of these markers (``job-start``/``job-done`` are not ladder events).
    """
    if isinstance(events, (str, Path)):
        events = load_events(events)
    counts = {
        "job_retries": 0, "retry_backoff_sim_s": 0.0,
        "cancelled": 0, "timed_out": 0, "leaders_promoted": 0,
        "quarantined": 0, "quarantine_hits": 0,
        "admission_shed": 0, "drain_shed": 0,
    }
    markers = {
        "job-cancelled": "cancelled",
        "job-timed-out": "timed_out",
        "leader-promoted": "leaders_promoted",
        "quarantined": "quarantined",
        "quarantine-hit": "quarantine_hits",
    }
    spans, _unmatched = pair_spans(events)
    for span in spans:
        if span["track"] != "service":
            continue
        name = span["name"]
        if name == "job-retry":
            counts["job_retries"] += 1
            counts["retry_backoff_sim_s"] += \
                float(span["args"].get("backoff_s", 0.0))
        elif name == "shed":
            # The ``reason`` arg carries the shed class (the meter key).
            reason = span["args"].get("reason")
            counts["admission_shed" if reason == "admission_shed"
                   else "drain_shed"] += 1
        elif name in markers:
            counts[markers[name]] += 1
    return counts


def reconcile(summary: TraceSummary, telemetry: Telemetry, *,
              wall_tol_s: float = 1e-3) -> dict:
    """Cross-check a trace summary against the run's telemetry.

    Returns ``{"ok": bool, "phase_delta_s": {...}}``. Phase spans are
    recorded by the telemetry phase contexts from the very same clock reads
    that produce ``PhaseStats.wall_seconds``, so the per-phase deltas
    should be zero to the float; ``wall_tol_s`` (±1 ms) allows for merged
    repeated phases.
    """
    phase_delta: dict[str, float] = {}
    for stats in telemetry:
        traced = summary.phase_wall_s.get(stats.name)
        if traced is None:
            raise TraceError(f"phase {stats.name!r} missing from trace")
        phase_delta[stats.name] = traced - stats.wall_seconds
    ok = all(abs(delta) <= wall_tol_s for delta in phase_delta.values())
    return {"ok": ok, "phase_delta_s": phase_delta}


def validate_perfetto(trace: Mapping) -> int:
    """Structurally validate an exported Perfetto trace; returns event count.

    Checks what a trace viewer needs: a ``traceEvents`` list, every span a
    well-formed complete event with non-negative ``ts``/``dur``, and a
    ``thread_name`` metadata row for every referenced track.
    """
    trace_events = trace.get("traceEvents")
    if not isinstance(trace_events, list):
        raise TraceError("trace has no traceEvents list")
    named_tids = set()
    used_tids = set()
    for event in trace_events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_tids.add(event["tid"])
            continue
        if ph not in ("X", "i"):
            raise TraceError(f"unexpected event phase {ph!r}")
        if not event.get("name"):
            raise TraceError("span without a name")
        if event.get("ts", -1) < 0:
            raise TraceError(f"span {event['name']!r} has negative ts")
        if ph == "X" and event.get("dur", -1) < 0:
            raise TraceError(f"span {event['name']!r} has negative dur")
        used_tids.add(event["tid"])
    missing = used_tids - named_tids
    if missing:
        raise TraceError(f"tracks without thread_name metadata: {missing}")
    return len(trace_events)
