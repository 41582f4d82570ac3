"""Capacity-enforcing memory pools.

The central constraint the paper engineers around is that device memory is
tiny (6–12 GB) relative to the data (hundreds of GB). :class:`MemoryPool`
makes that constraint *real* in this reproduction: the virtual GPU and the
host arena allocate every working buffer from a pool, and exceeding the
capacity raises the same way a CUDA ``cudaMalloc`` failure would. Pools are
also telemetry meters — their high-water marks become the paper's
Tables IV/V ("peak host/device memory per phase").
"""

from __future__ import annotations

import threading
from typing import Mapping

from ..errors import ConfigError, ReproError


class Allocation:
    """A live reservation in a :class:`MemoryPool`; free explicitly or via ``with``."""

    __slots__ = ("_pool", "nbytes", "_live")

    def __init__(self, pool: "MemoryPool", nbytes: int):
        self._pool = pool
        self.nbytes = nbytes
        self._live = True

    @property
    def live(self) -> bool:
        """Whether the reservation still holds pool capacity."""
        return self._live

    def grow(self, nbytes: int, *, label: str = "") -> None:
        """Extend the live reservation by ``nbytes``; raises the pool's
        error type if over capacity."""
        nbytes = int(nbytes)
        if not self._pool._take(nbytes, 0):
            self._pool._exhausted(nbytes, label)
        self.nbytes += nbytes

    def free(self) -> None:
        """Release the reservation (idempotent)."""
        if self._live:
            self._live = False
            self._pool._release(self.nbytes)

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


class MemoryPool:
    """Tracks allocations against a hard byte capacity.

    ``exhausted_error`` is the exception type raised on over-allocation
    (:class:`~repro.errors.DeviceMemoryError` for the GPU pool,
    :class:`~repro.errors.HostMemoryError` for the host arena).
    """

    def __init__(self, name: str, capacity_bytes: int,
                 exhausted_error: type[ReproError] = ReproError):
        if capacity_bytes <= 0:
            raise ConfigError("pool capacity must be positive")
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self._exhausted_error = exhausted_error
        self._used = 0
        self._peak = 0
        self._lifetime_peak = 0
        self._alloc_count = 0
        # The capacity check and the add are one step under threads.
        self._lock = threading.Lock()

    # -- allocation --------------------------------------------------------

    def alloc(self, nbytes: int, *, label: str = "") -> Allocation:
        """Reserve ``nbytes``; raises the pool's error type if over capacity."""
        allocation = self.try_alloc(nbytes)
        if allocation is None:
            self._exhausted(nbytes, label)
        return allocation

    def try_alloc(self, nbytes: int, *, label: str = "") -> Allocation | None:
        """Reserve ``nbytes`` if capacity allows; ``None`` instead of raising.

        The admission-control entry point: the assembly service probes a
        job's memory demand against the shared budget and, on ``None``,
        parks the job until a running one releases its grant — so the pool
        itself is what makes oversubscription impossible.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigError("cannot allocate negative bytes")
        return Allocation(self, nbytes) if self._take(nbytes, 1) else None

    def _take(self, nbytes: int, allocs: int) -> bool:
        """Add ``nbytes`` to the used bytes if capacity allows: a new
        allocation's (``allocs=1``) or a live one's growth (``0``)."""
        with self._lock:
            if self._used + nbytes > self.capacity_bytes:
                return False
            self._used += nbytes
            self._alloc_count += allocs
            if self._used > self._peak:
                self._peak = self._used
            if self._used > self._lifetime_peak:
                self._lifetime_peak = self._used
        return True

    def _exhausted(self, nbytes: int, label: str):
        raise self._exhausted_error(
            f"{self.name} pool exhausted: requested {nbytes} "
            f"({label or 'unlabelled'}), in use {self._used}, "
            f"capacity {self.capacity_bytes}"
        )

    def _release(self, nbytes: int) -> None:
        with self._lock:
            self._used -= nbytes
            assert self._used >= 0, f"{self.name} pool over-freed"

    # -- inspection ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved."""
        return self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark since the last :meth:`reset_peaks`."""
        return self._peak

    @property
    def lifetime_peak_bytes(self) -> int:
        """High-water mark over the pool's whole life."""
        return self._lifetime_peak

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    # -- telemetry Meter protocol -------------------------------------------

    def counters(self) -> Mapping[str, float]:
        """Total allocations served."""
        return {f"{self.name}_allocs": float(self._alloc_count)}

    def peaks(self) -> Mapping[str, float]:
        """Peak reserved bytes since the last reset."""
        return {f"{self.name}_bytes": float(self._peak)}

    def reset_peaks(self) -> None:
        """Restart peak tracking from the current usage."""
        with self._lock:
            self._peak = self._used

