"""Sequential run files: the read-only and write-only memories of Fig. 3.

A *run* is a flat binary file of packed KV records. :class:`RunWriter`
appends strictly sequentially; :class:`RunReader` consumes strictly
sequentially. The same path must never be open for reading and writing at
once — the paper's "a file cannot be read and written at the same time"
rule — and violations raise
:class:`~repro.errors.StreamProtocolError`.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import StreamProtocolError
from ..faults import plan as faults
from .io_stats import IOAccountant

#: Paths currently open, mapped to their mode ("r"/"w"); enforces exclusivity.
_OPEN_PATHS: dict[Path, str] = {}

#: Appends smaller than this coalesce in a writer-side tail buffer before
#: reaching the OS (the map phase's staged appends are 1–15 kB, and every
#: open partition writer holds one tail: 74 of them in the paper's setup).
#: Invisible to accounting: bytes, ops and simulated charges are recorded
#: per logical append either way.
_COALESCE_BYTES = 1 << 16


def _register(path: Path, mode: str) -> None:
    if path in _OPEN_PATHS:
        raise StreamProtocolError(
            f"{path} is already open ({_OPEN_PATHS[path]!r}); "
            "read-only and write-only memories are exclusive"
        )
    _OPEN_PATHS[path] = mode


def _unregister(path: Path) -> None:
    _OPEN_PATHS.pop(path, None)


class RunWriter:
    """Appends records of one dtype to a run file, sequentially."""

    def __init__(self, path: str | Path, dtype: np.dtype,
                 accountant: IOAccountant | None = None):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self._accountant = accountant
        # The exclusivity check must precede open() — "wb" truncates, and a
        # conflicting open must not destroy a run another stream is reading —
        # but the registration only sticks once the handle exists: a failed
        # open must not leave a stale entry poisoning every later open.
        _register(self.path, "w")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "wb")
        except BaseException:
            _unregister(self.path)
            raise
        self._tail = bytearray()

    def append(self, records: np.ndarray, *, meter: bool = True) -> int:
        """Append a record array (must match the run dtype); returns nbytes.

        ``meter=False`` skips the per-call accounting so a caller landing a
        run of appends across several writers can meter them as a group
        (:meth:`repro.extmem.io_stats.IOAccountant.add_write_run`) — the
        OS-visible writes and the metered totals stay identical either way.
        """
        if self._handle.closed:
            raise StreamProtocolError(f"{self.path}: append after close")
        if records.dtype != self.dtype:
            raise StreamProtocolError(
                f"{self.path}: dtype mismatch ({records.dtype} != {self.dtype})")
        data = np.ascontiguousarray(records)
        if data.nbytes >= _COALESCE_BYTES:
            self._drain_tail()
            faults.deliver_write(self.path, data, self._handle)
        else:
            self._tail += data.tobytes()
            if len(self._tail) >= _COALESCE_BYTES:
                self._drain_tail()
        if meter and self._accountant is not None:
            self._accountant.add_write(data.nbytes)
        return data.nbytes

    def _drain_tail(self) -> None:
        if self._tail:
            # Clear the tail *before* delivery: if a plan crashes or tears
            # the write, the unwind path (close() also drains) must not
            # re-deliver the same prefix. The buffered tail is one ordinary
            # injectable write.
            data = bytes(self._tail)
            self._tail.clear()
            faults.deliver_write(self.path, data, self._handle)

    def close(self) -> None:
        """Finish the run; the path becomes available for reading.

        The handle and the path are released even when the final write
        raises (a full disk, an injected fault): a retry in the same
        process must be able to open the path again.
        """
        if not self._handle.closed:
            try:
                self._drain_tail()
            finally:
                self._handle.close()
                _unregister(self.path)

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RunReader:
    """Streams records of one dtype from a run file, sequentially."""

    def __init__(self, path: str | Path, dtype: np.dtype,
                 accountant: IOAccountant | None = None):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self._accountant = accountant
        # Registration only sticks once the handle is open (see RunWriter):
        # a missing file or permission error must not leave a stale entry.
        _register(self.path, "r")
        try:
            self._handle = open(self.path, "rb")
        except BaseException:
            _unregister(self.path)
            raise
        size = self.path.stat().st_size
        if size % self.dtype.itemsize:
            _unregister(self.path)
            self._handle.close()
            raise StreamProtocolError(
                f"{self.path}: size {size} is not a multiple of record width "
                f"{self.dtype.itemsize}")
        self._total = size // self.dtype.itemsize
        self._consumed = 0
        self._pending_seek = 1

    @property
    def total_records(self) -> int:
        """Records in the whole run."""
        return self._total

    @property
    def remaining(self) -> int:
        """Records not yet consumed."""
        return self._total - self._consumed

    @property
    def exhausted(self) -> bool:
        """Whether the stream has been fully consumed."""
        return self.remaining == 0

    def read(self, n: int) -> np.ndarray:
        """Consume up to ``n`` records (empty array at end of stream)."""
        if self._handle.closed:
            raise StreamProtocolError(f"{self.path}: read after close")
        n = min(n, self.remaining)
        if n <= 0:
            return np.empty(0, dtype=self.dtype)
        records = faults.filter_read(
            self.path, np.fromfile(self._handle, dtype=self.dtype, count=n))
        if self._accountant is not None:
            self._accountant.add_read(records.nbytes, seeks=self._pending_seek)
        self._pending_seek = 0
        self._consumed += records.shape[0]
        return records

    def read_all(self) -> np.ndarray:
        """Consume the entire remainder in one call (small runs only)."""
        return self.read(self.remaining)

    # Wrapped by benchmarks/perf/perf_spans.py, its only reader.
    def skip(self, n: int) -> int:
        """Advance past ``n`` records without reading their bytes.

        Charged as one seek, zero bytes. Returns the number of records
        actually skipped.
        """
        if self._handle.closed:
            raise StreamProtocolError(f"{self.path}: skip after close")
        n = min(n, self.remaining)
        if n <= 0:
            return 0
        self._handle.seek(n * self.dtype.itemsize, os.SEEK_CUR)
        self._consumed += n
        self._pending_seek += 1
        return n

    def close(self) -> None:
        """Release the path."""
        if not self._handle.closed:
            self._handle.close()
            _unregister(self.path)

    def __enter__(self) -> "RunReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class HeldRun:
    """A run in host memory, read through :class:`RunReader`'s surface.

    Reads return views of ``records`` and charge no disk: the records never
    left host memory. Each read still passes the fault layer's ``READ``
    hook under ``path`` (the run's file), as a :class:`RunReader` of that
    file would. ``allocations`` (the
    :class:`~repro.device.memory.Allocation` objects reserving their
    bytes) are freed on :meth:`close`, and the array is let go with it.

    A run filled in place (an unsorted partition kept in host memory)
    starts empty with its room reserved (:meth:`room`): :meth:`append`
    fills it and :meth:`reader` reads what it holds so far.
    """

    def __init__(self, path: str | Path, records: np.ndarray, allocations=()):
        self.path = Path(path)
        self._records = records
        self._allocations = list(allocations)
        self._total = records.shape[0]
        self._consumed = 0

    @classmethod
    def room(cls, path: str | Path, n_records: int, dtype,
             allocation) -> "HeldRun":
        """An empty run with room for ``n_records`` records, reserved by
        ``allocation``."""
        run = cls(path, np.empty(n_records, dtype=dtype), (allocation,))
        run._total = 0
        return run

    def append(self, records: np.ndarray) -> None:
        """Fill the room :meth:`room` made (beyond it raises
        :class:`~repro.errors.StreamProtocolError`)."""
        end = self._total + records.shape[0]
        if end > self._records.shape[0]:
            raise StreamProtocolError(
                f"{self.path}: more records than reserved "
                f"({self._records.shape[0]})")
        self._records[self._total:end] = records
        self._total = end

    def reader(self) -> "HeldRun":
        """A read-only reader of the records held so far; it reserves
        nothing, so closing it frees nothing."""
        records = self._records[:self._total]
        records.flags.writeable = False
        return HeldRun(self.path, records)

    @property
    def total_records(self) -> int:
        """Records in the whole run."""
        return self._total

    @property
    def remaining(self) -> int:
        """Records not yet consumed."""
        return self._total - self._consumed

    @property
    def exhausted(self) -> bool:
        """Whether the run has been fully consumed."""
        return self.remaining == 0

    def _check_open(self, op: str) -> None:
        if self._records is None:
            raise StreamProtocolError(f"held run: {op} after close")

    def read(self, n: int) -> np.ndarray:
        """Consume up to ``n`` records (empty at the end of the run)."""
        self._check_open("read")
        n = min(n, self.remaining)
        if n <= 0:
            return self._records[:0]
        records = faults.filter_read(
            self.path, self._records[self._consumed:self._consumed + n])
        self._consumed += n
        return records

    def read_all(self) -> np.ndarray:
        """Consume the entire remainder in one call."""
        return self.read(self.remaining)

    def close(self) -> None:
        """Release the records and their reservations."""
        self._records = None
        for allocation in self._allocations:
            allocation.free()

    def __enter__(self) -> "HeldRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
