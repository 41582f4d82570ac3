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

import numpy as np

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
            raise self._exhausted_error(
                f"{self.name} pool exhausted: requested {nbytes} "
                f"({label or 'unlabelled'}), in use {self._used}, "
                f"capacity {self.capacity_bytes}"
            )
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
        with self._lock:
            if self._used + nbytes > self.capacity_bytes:
                return None
            self._used += nbytes
            self._alloc_count += 1
            if self._used > self._peak:
                self._peak = self._used
            if self._used > self._lifetime_peak:
                self._lifetime_peak = self._used
        return Allocation(self, nbytes)

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


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two byte class holding ``nbytes`` (min 256)."""
    size_class = 256
    while size_class < nbytes:
        size_class <<= 1
    return size_class


class BufferPool:
    """Free-list of real numpy buffers, keyed by power-of-two size class.

    :class:`MemoryPool` is the *model*: it reserves simulated capacity and
    meters peaks. :class:`BufferPool` is the *substrate*: it recycles the
    actual host arrays backing :class:`~repro.device.gpu.DeviceArray`
    handles so the hot path (per-batch transfer copies, kernel outputs,
    merge-window scratch) stops paying an allocator round trip — and the
    page faults of a fresh mapping — for every buffer. Strictly invisible
    to the model: metering, capacity enforcement and every artifact byte
    are identical with the pool on or off; only wall-clock time and real
    allocator traffic change.

    Buffers live in the free list as flat ``uint8`` arrays; :meth:`take`
    carves a view of the requested shape/dtype off the front. Retention is
    capped at ``max_bytes`` (excess buffers are dropped to the garbage
    collector). Thread-safe.
    """

    def __init__(self, max_bytes: int = 64 << 20, *, enabled: bool = True):
        if max_bytes < 0:
            raise ConfigError("pool_max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self.enabled = enabled
        self._free: dict[int, list[np.ndarray]] = {}
        self._held = 0
        self._hits = 0
        self._misses = 0
        self._recycled = 0
        self._dropped = 0
        self._lock = threading.Lock()

    def take(self, shape, dtype) -> tuple[np.ndarray, np.ndarray | None]:
        """A writable array of ``shape``/``dtype`` plus its recyclable raw.

        Returns ``(view, raw)``: ``view`` is the caller's array; ``raw`` is
        the flat buffer to hand back via :meth:`give` when the array's
        lifetime ends (``None`` when pooling is disabled — the array is
        then an ordinary fresh allocation the garbage collector owns).
        """
        dtype = np.dtype(dtype)
        if not self.enabled:
            return np.empty(shape, dtype=dtype), None
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = dtype.itemsize
        for extent in shape:
            nbytes *= extent
        size_class = _size_class(nbytes)
        with self._lock:
            stack = self._free.get(size_class)
            raw = stack.pop() if stack else None
            if raw is not None:
                self._held -= raw.nbytes
                self._hits += 1
            else:
                self._misses += 1
        if raw is None:
            raw = np.empty(size_class, dtype=np.uint8)
        if nbytes == 0:
            return np.empty(shape, dtype=dtype), raw
        return raw[:nbytes].view(dtype).reshape(shape), raw

    def give(self, raw: np.ndarray | None) -> None:
        """Return a raw buffer from :meth:`take` (or :meth:`adoptable`).

        Read-only raws are silently dropped: whoever froze the array still
        reads it, and re-issuing its memory from :meth:`take` would hand a
        "fresh" buffer that cannot be written.
        """
        if raw is None or not self.enabled:
            return
        if not raw.flags.writeable:
            return
        # Uniform classification: exact powers of two land in their own
        # class; everything else rounds DOWN to the class whose takes are
        # guaranteed to fit inside the raw.
        size_class = _size_class(raw.nbytes)
        if size_class > raw.nbytes:
            size_class >>= 1
        if size_class < 256:
            return
        with self._lock:
            if self._held + raw.nbytes > self.max_bytes:
                self._dropped += 1
                return
            self._free.setdefault(size_class, []).append(raw)
            self._held += raw.nbytes
            self._recycled += 1

    def adoptable(self, array: np.ndarray) -> np.ndarray | None:
        """The recyclable raw behind a foreign (kernel-produced) array.

        Only arrays that own their data and are C-contiguous may enter the
        free list — recycling a view would hand out memory some other
        array still aliases. Returns ``None`` when the array is not safe
        to adopt (the garbage collector keeps it instead). Read-only arrays
        are refused too: their memory must never be re-issued as writable.
        """
        if not self.enabled or not array.flags.owndata \
                or not array.flags.c_contiguous \
                or not array.flags.writeable or array.nbytes < 256:
            return None
        return array.reshape(-1).view(np.uint8)

    @property
    def held_bytes(self) -> int:
        """Bytes currently retained in the free lists."""
        return self._held

    def clear(self) -> None:
        """Drop every retained buffer."""
        with self._lock:
            self._free.clear()
            self._held = 0

    # -- telemetry Meter protocol -------------------------------------------

    def counters(self) -> Mapping[str, float]:
        """Free-list traffic: reuse hits, fresh allocations, recycles."""
        return {
            "bufpool_hits": float(self._hits),
            "bufpool_misses": float(self._misses),
            "bufpool_recycled": float(self._recycled),
            "bufpool_dropped": float(self._dropped),
        }

    def peaks(self) -> Mapping[str, float]:
        """No gauges: retention is capped, not peak-tracked."""
        return {}

    def reset_peaks(self) -> None:
        """No-op (no gauges)."""
        return None
