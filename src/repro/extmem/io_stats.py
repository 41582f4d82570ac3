"""Disk I/O accounting and modeled disk time.

The paper's headline observation is that the pipeline is I/O-bound ("the
most prominent bottleneck in the pipeline is the I/O throughput"), so every
byte that crosses the disk boundary is counted here. The accountant is a
telemetry meter (bytes and operation counts per phase) and, when bound to a
:class:`~repro.device.clock.SimClock`, charges modeled disk seconds from the
shared cost model.
"""

from __future__ import annotations

import threading
from typing import Mapping

from ..device import costs
from ..device.clock import SimClock
from ..device.specs import DiskSpec


class IOAccountant:
    """Counts disk bytes/ops; optionally charges a simulated clock."""

    def __init__(self, disk: DiskSpec | None = None, clock: SimClock | None = None):
        self.disk = disk if disk is not None else DiskSpec()
        self.clock = clock
        self._read_bytes = 0
        self._write_bytes = 0
        self._read_ops = 0
        self._write_ops = 0
        self._seeks = 0
        # Cached for the seekless fast path below.
        self._read_bw = self.disk.read_bandwidth
        self._write_bw = self.disk.write_bandwidth
        # += on the counters is not atomic under threads.
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    #
    # These run once per logical stream op — hundreds of thousands of times
    # per phase — so the seekless common case inlines the cost formula
    # (``nbytes / bandwidth`` is bit-identical to what
    # :func:`repro.device.costs.disk_read_seconds` computes when
    # ``seeks == 0``: adding ``0 * seek_seconds = +0.0`` never changes a
    # non-negative float). A write never seeks.

    def add_read(self, nbytes: int, *, seeks: int = 0) -> None:
        """Record a sequential read of ``nbytes`` (plus optional seeks)."""
        with self._lock:
            self._read_bytes += int(nbytes)
            self._read_ops += 1
            self._seeks += seeks
        if self.clock is not None:
            if seeks:
                self.clock.charge("disk_read", costs.disk_read_seconds(
                    self.disk, nbytes, seeks=seeks))
            elif nbytes > 0:
                self.clock.charge("disk_read", nbytes / self._read_bw)

    def add_write(self, nbytes: int) -> None:
        """Record a sequential write of ``nbytes``.

        Writes charge bandwidth only: they go through the OS write-behind
        cache, which amortizes head movement (the paper's map phase
        streams 74 partition files concurrently).
        """
        with self._lock:
            self._write_bytes += int(nbytes)
            self._write_ops += 1
        if self.clock is not None and nbytes > 0:
            self.clock.charge("disk_write", nbytes / self._write_bw)

    def add_read_run(self, sizes) -> None:
        """Record consecutive seekless reads with grouped locking.

        The read-side twin of :meth:`add_write_run`: bit-identical to one
        :meth:`add_read` per element. The map phase reads a host block of
        the packed store at once and meters it per device batch.
        """
        with self._lock:
            self._read_bytes += sum(sizes)
            self._read_ops += len(sizes)
        if self.clock is not None:
            bw = self._read_bw
            self.clock.charge_many(
                "disk_read", [n / bw for n in sizes if n > 0])

    def add_write_run(self, sizes) -> None:
        """Record consecutive seekless writes with grouped locking.

        ``sizes`` is a sequence of byte counts, one per logical write.
        Totals and simulated charges are bit-identical to calling
        :meth:`add_write` once per element (same values, same accumulation
        order, zero-byte charges skipped alike); only the per-call lock
        traffic is amortized. The map phase's partition fan-out uses this —
        each batch lands ~150 tiny appends.
        """
        with self._lock:
            self._write_bytes += sum(sizes)
            self._write_ops += len(sizes)
        if self.clock is not None:
            bw = self._write_bw
            self.clock.charge_many(
                "disk_write", [n / bw for n in sizes if n > 0])

    # -- inspection ------------------------------------------------------------

    @property
    def read_bytes(self) -> int:
        """Total bytes read from disk."""
        return self._read_bytes

    @property
    def write_bytes(self) -> int:
        """Total bytes written to disk."""
        return self._write_bytes

    @property
    def total_bytes(self) -> int:
        """Total disk traffic in both directions."""
        return self._read_bytes + self._write_bytes

    # -- telemetry Meter protocol -----------------------------------------------

    def counters(self) -> Mapping[str, float]:
        """Bytes, operations and seeks in both directions."""
        return {
            "disk_read_bytes": float(self._read_bytes),
            "disk_write_bytes": float(self._write_bytes),
            "disk_read_ops": float(self._read_ops),
            "disk_write_ops": float(self._write_ops),
            "disk_seeks": float(self._seeks),
        }

    def peaks(self) -> Mapping[str, float]:
        """No gauges: disk traffic only accumulates."""
        return {}

    def reset_peaks(self) -> None:
        """No-op (no gauges)."""
        return None
