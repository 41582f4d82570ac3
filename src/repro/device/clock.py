"""Simulated-time accumulator.

Every metered component (virtual GPU, I/O accountant, network model)
charges seconds into a shared :class:`SimClock` under a named category.
The clock doubles as a telemetry :class:`~repro.telemetry.Meter`, exposing
``sim_seconds`` (total) plus one counter per category, so each pipeline
phase records how much modeled disk/PCIe/kernel/host time it accrued.
"""

from __future__ import annotations

import threading
from typing import Mapping

import numpy as np

from ..errors import ConfigError

#: Recognized charge categories. Keeping this closed catches typos early.
CATEGORIES = (
    "kernel",
    "h2d",
    "d2h",
    "disk_read",
    "disk_write",
    "host",
    "network",
    # Resilience overhead: heartbeat-timeout detection gaps charged by the
    # distributed supervisor. Zero on every clean run, so Fig. 10 series
    # are unchanged unless faults fire.
    "retry",
)


class SimClock:
    """Accumulates modeled seconds per category."""

    def __init__(self) -> None:
        self._by_category: dict[str, float] = {cat: 0.0 for cat in CATEGORIES}
        # += on a dict slot is not atomic under threads.
        self._lock = threading.Lock()

    def charge(self, category: str, seconds: float) -> None:
        """Add ``seconds`` of modeled time to ``category``."""
        if category not in self._by_category:
            raise ConfigError(f"unknown sim-clock category {category!r}")
        if seconds < 0:
            raise ConfigError("cannot charge negative time")
        with self._lock:
            self._by_category[category] += seconds

    def charge_many(self, category: str, charges) -> None:
        """Add a run of charges to ``category`` under one lock acquisition.

        Bit-identical to calling :meth:`charge` once per element: the
        accumulator gains each value in sequence (float addition is not
        associative, so the elements are never pre-summed). One numpy pass:
        ``np.add.accumulate`` adds left to right, one element at a time.
        """
        if category not in self._by_category:
            raise ConfigError(f"unknown sim-clock category {category!r}")
        values = np.array([0.0, *charges], dtype=np.float64)
        if (values < 0).any():
            raise ConfigError("cannot charge negative time")
        with self._lock:
            values[0] = self._by_category[category]
            self._by_category[category] = float(np.add.accumulate(values)[-1])

    @property
    def total_seconds(self) -> float:
        """Total modeled seconds across all categories."""
        return sum(self._by_category.values())

    def seconds(self, category: str) -> float:
        """Modeled seconds accrued in one category."""
        if category not in self._by_category:
            raise ConfigError(f"unknown sim-clock category {category!r}")
        return self._by_category[category]

    def advance_to(self, other: "SimClock") -> None:
        """Raise every category to at least ``other``'s value (barrier sync).

        Used by the distributed simulation: after a barrier, each node's
        clock advances to the slowest participant's.
        """
        for category, value in other._by_category.items():
            if value > self._by_category[category]:
                self._by_category[category] = value

    # -- telemetry Meter protocol -----------------------------------------

    def counters(self) -> Mapping[str, float]:
        """Per-category modeled seconds plus the ``sim_seconds`` total."""
        counters = {f"sim_{cat}_seconds": sec for cat, sec in self._by_category.items()}
        counters["sim_seconds"] = self.total_seconds
        return counters

    def peaks(self) -> Mapping[str, float]:
        """No gauges: a clock only accumulates."""
        return {}

    def reset_peaks(self) -> None:
        """No-op (no gauges)."""
        return None
