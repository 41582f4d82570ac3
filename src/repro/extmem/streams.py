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
        self._records_written = 0
        # Writes charge bandwidth only: the write-only memory is appended
        # through the OS write-behind cache, which amortizes head movement
        # (the paper's map phase streams 74 partition files concurrently).
        self._pending_seek = 0
        self._tail = bytearray()

    @property
    def records_written(self) -> int:
        """Records appended so far."""
        return self._records_written

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
        if faults.active():
            # Fault sites must observe one OS-visible write per append, in
            # order, so coalescing pauses while a plan is armed.
            self._drain_tail()
            faults.deliver_write(self.path, data.tobytes(), self._handle)
        elif data.nbytes >= _COALESCE_BYTES:
            self._drain_tail()
            self._handle.write(data)  # buffer-protocol export, no bytes copy
        else:
            self._tail += data.tobytes()
            if len(self._tail) >= _COALESCE_BYTES:
                self._drain_tail()
        if meter and self._accountant is not None:
            self._accountant.add_write(data.nbytes, seeks=self._pending_seek)
        self._pending_seek = 0
        self._records_written += records.shape[0]
        return data.nbytes

    def _drain_tail(self) -> None:
        if self._tail:
            # Clear the tail *before* delivery: if an armed plan crashes or
            # tears the write, the unwind path (close() also drains) must
            # not re-deliver the same prefix. A plan arming mid-stream thus
            # sees the buffered tail as one ordinary injectable write — a
            # coalesced tail can never mask a scheduled torn write.
            data = bytes(self._tail)
            self._tail.clear()
            if faults.active():
                faults.deliver_write(self.path, data, self._handle)
            else:
                self._handle.write(data)

    def close(self) -> None:
        """Finish the run; the path becomes available for reading."""
        if not self._handle.closed:
            self._drain_tail()
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
        if faults.active():
            raw = faults.filter_read(
                self.path, self._handle.read(n * self.dtype.itemsize))
            records = np.frombuffer(raw, dtype=self.dtype).copy()
        else:
            # No plan armed: read straight into the fresh array, skipping
            # the intermediate bytes object filter_read would inspect.
            records = np.fromfile(self._handle, dtype=self.dtype, count=n)
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
    """A run already in host memory, read through :class:`RunReader`'s surface.

    Reads return views of ``records`` and charge no disk: the records never
    left host memory. ``allocation`` (a
    :class:`~repro.device.memory.Allocation` reserving their bytes, if
    any) is freed on :meth:`close`, and the array is let go with it.
    """

    def __init__(self, records: np.ndarray, allocation=None):
        self._records = records
        self._allocation = allocation
        self._total = records.shape[0]
        self._consumed = 0

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
        n = max(0, min(n, self.remaining))
        records = self._records[self._consumed:self._consumed + n]
        self._consumed += n
        return records

    def read_all(self) -> np.ndarray:
        """Consume the entire remainder in one call."""
        return self.read(self.remaining)

    def close(self) -> None:
        """Release the records and their reservation."""
        self._records = None
        if self._allocation is not None:
            self._allocation.free()

    def __enter__(self) -> "HeldRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
