"""Reading a finished trace: load, balance check, busy fractions, export
validation. Counts are not derived here: every counted event is owned by
the :class:`~repro.telemetry.EventMeter` its result object exposes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import TraceError
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
    for span in spans:
        by_track.setdefault(span["track"], []).append(
            (span["wall0"], span["wall1"]))
    tracks = {
        track: TrackSummary(
            n_spans=len(intervals),
            busy_s=(covered := _interval_union(intervals)),
            busy_fraction=(covered / extent) if extent > 0 else 0.0)
        for track, intervals in by_track.items()
    }
    return TraceSummary(extent_s=extent, tracks=tracks)


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
