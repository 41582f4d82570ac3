"""Structured span tracing: dual-clock event log + Perfetto export.

See :mod:`repro.trace.tracer` for the recording side,
:mod:`repro.trace.perfetto` for the Chrome/Perfetto trace-JSON export, and
:mod:`repro.trace.analysis` for reading a finished trace back.
"""

from .analysis import (TraceSummary, TrackSummary, check_balanced,
                       load_events, summarize, validate_perfetto)
from .perfetto import build_perfetto, pair_spans
from .tracer import (EVENTS_FILE, MANIFEST_FILE, NULL_TRACER, PERFETTO_FILE,
                     PERFETTO_SIM_FILE, TRACE_FORMAT_VERSION, NullTracer,
                     SpanTracer)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "EVENTS_FILE",
    "MANIFEST_FILE",
    "PERFETTO_FILE",
    "PERFETTO_SIM_FILE",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "build_perfetto",
    "pair_spans",
    "load_events",
    "check_balanced",
    "summarize",
    "validate_perfetto",
    "TraceSummary",
    "TrackSummary",
]
