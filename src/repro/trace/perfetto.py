"""Chrome/Perfetto trace-JSON export of a span event log.

Produces the classic ``traceEvents`` JSON that both ``chrome://tracing``
and ui.perfetto.dev load: one process ("lasagna"), one thread row per
tracer *track* (pipeline, sort, merge, cache, distributed nodes), spans as
complete ("X") events, markers as instant ("i") events.

Two clocks are exportable:

* ``clock="wall"`` — the real timeline, every span.
* ``clock="sim"`` — the modeled-hardware timeline, restricted to the events
  flagged ``det``. The result is canonically ordered and rounded to 0.1 µs,
  making it byte-identical from run to run for the same input — the
  golden-file property ``tests/test_trace.py`` locks in.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from ..errors import TraceError

#: ``pid`` of the single exported process row.
PROCESS_ID = 1
#: Process name shown in the trace viewer.
PROCESS_NAME = "lasagna"


def pair_spans(events: Iterable[Mapping]) -> tuple[list[dict], int]:
    """Fold B/E event pairs into span dicts; returns (spans, unmatched).

    Instant events become zero-duration spans flagged ``instant``. A begin
    without an end (a crashed run dumped mid-span) is dropped and counted.
    """
    open_begins: dict[int, Mapping] = {}
    spans: list[dict] = []
    for event in events:
        ph = event["ph"]
        if ph == "B":
            open_begins[event["id"]] = event
        elif ph == "E":
            begin = open_begins.pop(event["id"], None)
            if begin is None:
                raise TraceError(f"end event without begin: id={event['id']}")
            args = dict(begin.get("args") or {})
            args.update(event.get("args") or {})
            spans.append({
                "name": begin["name"], "track": begin["track"],
                "cat": begin["cat"], "det": begin["det"],
                "phase": begin["phase"],
                "wall0": begin["wall"], "wall1": event["wall"],
                "sim0": begin["sim"], "sim1": event["sim"],
                "args": args, "error": event.get("error"),
                "instant": False,
            })
        elif ph == "I":
            spans.append({
                "name": event["name"], "track": event["track"],
                "cat": event["cat"], "det": event["det"],
                "phase": event["phase"],
                "wall0": event["wall"], "wall1": event["wall"],
                "sim0": event["sim"], "sim1": event["sim"],
                "args": dict(event.get("args") or {}), "error": None,
                "instant": True,
            })
        else:
            raise TraceError(f"unknown event phase {ph!r}")
    return spans, len(open_begins)


def _microseconds(seconds: float, digits: int = 3) -> float:
    # Wall stamps round to nanoseconds (digits=3). Simulated stamps round
    # to 0.1 µs (digits=1): the export then does not move with the last
    # bits of the clock's float sum, while modeled phases of even tiny test
    # runs stay distinguishable.
    return round(seconds * 1e6, digits)


def build_perfetto(events: Iterable[Mapping], *, clock: str = "wall") -> dict:
    """Build the Perfetto/Chrome trace object from raw tracer events.

    ``clock="wall"`` exports every span on the real timeline; ``"sim"``
    exports only deterministic (``det``) spans on the modeled timeline, in
    a canonical order with no run-dependent fields — the byte-identical
    export. Timestamps are microseconds as the format requires.
    """
    if clock not in ("wall", "sim"):
        raise TraceError(f"clock must be 'wall' or 'sim', got {clock!r}")
    spans, _unmatched = pair_spans(events)
    sim = clock == "sim"
    if sim:
        spans = [span for span in spans if span["det"]]
    t_key0, t_key1 = ("sim0", "sim1") if sim else ("wall0", "wall1")
    digits = 1 if sim else 3
    origin = min((span[t_key0] for span in spans), default=0.0)
    tracks = sorted({span["track"] for span in spans})
    tids = {track: index + 1 for index, track in enumerate(tracks)}

    body: list[dict] = []
    for span in spans:
        ts = _microseconds(span[t_key0] - origin, digits)
        dur = max(0.0, _microseconds(span[t_key1] - origin, digits) - ts)
        args = {key: value for key, value in span["args"].items()
                if value is not None}
        if span["phase"]:
            args["phase"] = span["phase"]
        if span["error"]:
            args["error"] = span["error"]
        event = {
            "name": span["name"], "cat": span["cat"], "pid": PROCESS_ID,
            "tid": tids[span["track"]], "ts": ts,
        }
        if span["instant"]:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = dur
        if args:
            event["args"] = args
        body.append(event)
    # Canonical order: by timestamp, thread, name, duration, and finally the
    # full serialized event, so ties are broken identically however threads
    # interleaved at record time (only exact duplicates remain ambiguous,
    # and swapping those is invisible in the output).
    body.sort(key=lambda e: (e["ts"], e["tid"], e["name"], e.get("dur", -1.0),
                             json.dumps(e, sort_keys=True)))

    trace_events: list[dict] = [{
        "ph": "M", "pid": PROCESS_ID, "tid": 0, "name": "process_name",
        "args": {"name": PROCESS_NAME},
    }]
    for track in tracks:
        trace_events.append({
            "ph": "M", "pid": PROCESS_ID, "tid": tids[track],
            "name": "thread_name", "args": {"name": track},
        })
    trace_events.extend(body)
    return {
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "tracks": tracks},
        "traceEvents": trace_events,
    }
