"""Per-phase telemetry for pipeline runs.

The evaluation section of the paper reports, per assembly phase, the wall
time (Tables II/III) and the peak host/device memory (Tables IV/V). This
module provides the plumbing that gathers those numbers during a run:

* a :class:`Meter` protocol — anything exposing monotonically increasing
  counters and resettable high-water gauges,
* :class:`Telemetry` — registers meters and, via :meth:`Telemetry.phase`,
  snapshots counter deltas and gauge peaks per named phase,
* :class:`PhaseStats` — the per-phase record the benchmarks render.

Meters are implemented by the device/host memory pools, the simulated clock
and the I/O accountant; the pipeline only talks to this module.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol

from .errors import ReproError
from .trace.tracer import NULL_TRACER
from .units import format_duration, format_size


def format_metric(key: str, value: float) -> str:
    """Format a counter/gauge by the unit its name suffix declares.

    ``*_bytes`` gauges are sizes, ``*_s``/``*_seconds`` are durations,
    anything else (queue depths, lane counts, event tallies) renders raw —
    so a non-byte gauge is never mislabeled as "B/KB".
    """
    # Imported lazily: analysis.reporting sits behind the analysis package
    # init, which pulls in metrics/graph and must not load at import time
    # of this low-level module.
    from .analysis.reporting import format_cell

    if key.endswith("_bytes"):
        return format_cell(value, "size")
    if key.endswith(("_s", "_seconds")):
        return format_cell(value, "duration")
    return format_cell(value, "raw")


class Meter(Protocol):
    """A telemetry source.

    ``counters()`` returns monotonically increasing totals (e.g. bytes read);
    ``peaks()`` returns high-water gauges since the last ``reset_peaks()``
    (e.g. peak device bytes).
    """

    def counters(self) -> Mapping[str, float]:
        """Monotonically increasing totals."""
        ...

    def peaks(self) -> Mapping[str, float]:
        """High-water gauges since the last reset."""
        ...

    def reset_peaks(self) -> None:
        """Reset gauges to their current values."""
        ...


@dataclass
class PhaseStats:
    """Everything recorded about one pipeline phase.

    ``counters`` holds deltas of every registered meter counter over the
    phase; ``peaks`` holds each gauge's high-water mark within the phase.
    """

    name: str
    wall_seconds: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)
    #: ``"ExcType: message"`` when the phase body raised; such stats are
    #: kept aside (``Telemetry.failed``) and never merged into the totals.
    error: str | None = None

    @property
    def sim_seconds(self) -> float:
        """Modeled (simulated-hardware) seconds accrued during the phase."""
        return self.counters.get("sim_seconds", 0.0)

    def merged_with(self, other: "PhaseStats") -> "PhaseStats":
        """Combine two phases of the same name (times add, peaks max)."""
        merged = PhaseStats(self.name, self.wall_seconds + other.wall_seconds)
        # Dict unions keep first-seen key order, so a merged row prints its
        # columns in the order a phase entered once does.
        for key in self.counters | other.counters:
            merged.counters[key] = self.counters.get(key, 0.0) + other.counters.get(key, 0.0)
        for key in self.peaks | other.peaks:
            merged.peaks[key] = max(self.peaks.get(key, 0.0), other.peaks.get(key, 0.0))
        return merged

    def summary(self) -> str:
        """One-line human-readable summary used by verbose pipeline logs."""
        parts = [f"{self.name}: wall={format_duration(self.wall_seconds)}"]
        if "sim_seconds" in self.counters:
            parts.append(f"sim={format_duration(self.sim_seconds)}")
        for key in ("disk_read_bytes", "disk_write_bytes"):
            if self.counters.get(key):
                parts.append(f"{key.split('_')[1]}={format_size(self.counters[key])}")
        for key, value in self.peaks.items():
            parts.append(f"peak_{key}={format_metric(key, value)}")
        if self.error is not None:
            parts.append(f"FAILED({self.error})")
        return " ".join(parts)


class EventMeter:
    """A dict-backed :class:`Meter` for sparse event counters.

    Sources that are not memory pools or clocks — e.g. the fault-injection
    plan counting injected faults and instrumented I/O operations — bump
    named counters here and register the meter like any other, so per-phase
    deltas (faults injected during *sort* vs *reduce*) come for free. Bumps
    are lock-protected: the service's batch threads share the content
    store's meter and an armed fault plan's.
    """

    def __init__(self) -> None:
        self._counts: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._lock = threading.Lock()

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Increase counter ``key`` by ``amount``."""
        with self._lock:
            self._counts[key] = self._counts.get(key, 0.0) + amount

    def gauge(self, key: str, value: float) -> None:
        """Record an instantaneous observation; ``peaks()`` keeps the max.

        Unlike counters, gauges are high-water marks per phase (e.g. the
        content store's bytes after each put) and reset at
        phase boundaries like every other meter gauge.
        """
        with self._lock:
            self._gauges[key] = max(self._gauges.get(key, value), value)

    def counters(self) -> Mapping[str, float]:
        """Monotonically increasing event totals."""
        with self._lock:
            return dict(self._counts)

    def peaks(self) -> Mapping[str, float]:
        """High-water gauge observations since the last reset."""
        with self._lock:
            return dict(self._gauges)

    def reset_peaks(self) -> None:
        """Start a fresh high-water window for every gauge."""
        with self._lock:
            self._gauges.clear()


class _PhaseContext:
    """Context manager produced by :meth:`Telemetry.phase`.

    Phases are sequential: every meter's gauges are reset on entry and read
    on exit, so a phase entered while another is open would erase the outer
    one's peaks. Entering one raises :class:`~repro.errors.ReproError`.
    """

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name
        self._start_wall = 0.0
        self._start_counters: dict[str, float] = {}
        self._span_handle = -1

    def _snapshot_into(self, stats: PhaseStats) -> None:
        end_counters = self._telemetry._counter_totals()
        for key, value in end_counters.items():
            stats.counters[key] = value - self._start_counters.get(key, 0.0)
        for meter in self._telemetry._meters:
            for key, value in meter.peaks().items():
                stats.peaks[key] = max(stats.peaks.get(key, 0.0), value)

    def __enter__(self) -> "_PhaseContext":
        telemetry = self._telemetry
        if telemetry._open is not None:
            raise ReproError(
                f"telemetry phase {self._name!r} entered inside open phase "
                f"{telemetry._open!r}: phases do not nest")
        self._start_counters = telemetry._counter_totals()
        for meter in telemetry._meters:
            meter.reset_peaks()
        telemetry._open = self._name
        tracer = telemetry.tracer
        tracer.set_phase(self._name)
        # The span begin shares this exact stamp with wall_seconds, so the
        # traced phase duration equals the telemetry row to the float.
        self._start_wall = time.perf_counter()
        self._span_handle = tracer.begin(
            self._name, track="pipeline", cat="phase", det=True,
            at=self._start_wall)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_wall = time.perf_counter()
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        stats = PhaseStats(self._name,
                           wall_seconds=end_wall - self._start_wall,
                           error=error)
        try:
            if error is None:
                # A meter raising here propagates to the caller — but via
                # the finally below it can no longer leave the phase open.
                self._snapshot_into(stats)
                self._telemetry._record(stats)
            else:
                # The phase body already failed: snapshot best-effort (a
                # broken meter must not mask the original exception) and
                # keep the tainted stats out of the merged totals.
                try:
                    self._snapshot_into(stats)
                except Exception:
                    pass
                self._telemetry._failed.append(stats)
        finally:
            self._telemetry._open = None
            tracer = self._telemetry.tracer
            tracer.end(self._span_handle, at=end_wall, error=error)
            tracer.set_phase("")


class Telemetry:
    """Collects :class:`PhaseStats` for a pipeline run.

    Phases with the same name occurring more than once (e.g. per-partition
    sort rounds) are merged: wall times and counters accumulate, peaks take
    the maximum — matching how the paper reports one row per phase.
    """

    def __init__(self, *, tracer=NULL_TRACER) -> None:
        self.tracer = tracer
        self._meters: list[Meter] = []
        self._phases: dict[str, PhaseStats] = {}
        self._order: list[str] = []
        #: Name of the phase currently open, if any (phases do not nest).
        self._open: str | None = None
        self._failed: list[PhaseStats] = []

    def register(self, meter: Meter) -> None:
        """Attach a telemetry source; subsequent phases include its data."""
        self._meters.append(meter)

    def phase(self, name: str) -> _PhaseContext:
        """Measure one phase: ``with telemetry.phase("sort"): ...``."""
        return _PhaseContext(self, name)

    def _counter_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for meter in self._meters:
            for key, value in meter.counters().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def _record(self, stats: PhaseStats) -> None:
        if stats.name in self._phases:
            self._phases[stats.name] = self._phases[stats.name].merged_with(stats)
        else:
            self._phases[stats.name] = stats
            self._order.append(stats.name)

    def __iter__(self) -> Iterator[PhaseStats]:
        return (self._phases[name] for name in self._order)

    def __getitem__(self, name: str) -> PhaseStats:
        return self._phases[name]

    def __contains__(self, name: str) -> bool:
        return name in self._phases

    @property
    def phases(self) -> list[PhaseStats]:
        """Recorded phases in first-seen order."""
        return [self._phases[name] for name in self._order]

    @property
    def failed(self) -> list[PhaseStats]:
        """Phases whose body raised, tagged with their error, unmerged."""
        return list(self._failed)

    def total_wall_seconds(self) -> float:
        """Sum of wall time over all recorded phases."""
        return sum(stats.wall_seconds for stats in self)

    def total_sim_seconds(self) -> float:
        """Sum of modeled hardware time over all recorded phases."""
        return sum(stats.sim_seconds for stats in self)

    def report(self) -> str:
        """Multi-line report, one row per phase plus a total row.

        Failed phases (if any) are listed after the total, clearly tagged,
        and excluded from the totals themselves.
        """
        lines = [stats.summary() for stats in self]
        lines.append(
            f"total: wall={format_duration(self.total_wall_seconds())} "
            f"sim={format_duration(self.total_sim_seconds())}"
        )
        lines.extend(stats.summary() for stats in self._failed)
        return "\n".join(lines)
