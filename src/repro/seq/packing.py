"""The packed on-disk read store (output of the Load phase).

Reads are stored 2-bit-packed, four bases per byte, in a flat binary file
with a small fixed header. The store supports exactly the access patterns
the pipeline needs:

* sequential append while loading (write-only memory),
* sequential batch streaming for the map and compress phases (read-only
  memory),
* random slice access for tests and examples.

A 398 GB FASTQ human-genome dataset packs to ~29 GB in this form — the same
~13× reduction the paper exploits to re-stream reads cheaply during contig
generation. An in-core run need not re-stream them at all: a store may
:meth:`~PackedReadStore.hold` ranges of its reads in host memory (a cluster
node the blocks it maps, a store opened from a file the whole payload), and
every walk of them after the first reads them from there. A store the load
phase has just written holds the packed bytes load wrote
(:meth:`~PackedReadStore.adopt`), so not even the first walk reads the disk.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator, Protocol

import numpy as np

from ..errors import DatasetError, StreamProtocolError
from ..faults import plan as faults
from .records import ReadBatch

_MAGIC = b"LSGR"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, read_length, n_reads

_PACK_WEIGHTS = np.array([1, 4, 16, 64], dtype=np.uint8)
_UNPACK_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


class IOMeter(Protocol):
    """Minimal disk-accounting protocol (implemented by extmem's accountant)."""

    def add_read(self, nbytes: int) -> None:
        """Record a sequential read of ``nbytes``."""
        ...

    def add_write(self, nbytes: int) -> None:
        """Record a sequential write of ``nbytes``."""
        ...

    def add_read_run(self, sizes) -> None:
        """Record consecutive sequential reads of ``sizes`` bytes each."""
        ...


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack a ``(n, L)`` code matrix into ``(n, ceil(L/4))`` bytes."""
    codes = np.asarray(codes, dtype=np.uint8)
    n, length = codes.shape
    padded_len = -(-length // 4) * 4
    if padded_len != length:
        padded = np.zeros((n, padded_len), dtype=np.uint8)
        padded[:, :length] = codes
        codes = padded
    groups = codes.reshape(n, padded_len // 4, 4)
    return (groups * _PACK_WEIGHTS).sum(axis=2, dtype=np.uint8)


def unpack_codes(packed: np.ndarray, read_length: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns a ``(n, read_length)`` matrix."""
    packed = np.asarray(packed, dtype=np.uint8)
    n = packed.shape[0]
    expanded = packed[:, :, None] >> _UNPACK_SHIFTS
    expanded &= np.uint8(3)
    codes = expanded.reshape(n, -1)
    # One array, copied only to drop a partial last byte's padding.
    return codes if codes.shape[1] == read_length \
        else codes[:, :read_length].copy()


class _HeldRange:
    """The host copy of the reads ``[start, stop)`` of a held store, filled
    up to read ``filled``."""

    __slots__ = ("start", "stop", "reads", "filled")

    def __init__(self, start: int, stop: int, reads: np.ndarray):
        self.start, self.stop, self.reads, self.filled = start, stop, reads, start


class PackedReadStore:
    """Create or open a packed read file.

    Use :meth:`create` + :meth:`append_batch` + :meth:`close` to write, and
    :meth:`open` + :meth:`iter_batches`/:meth:`read_slice` to read. Writing
    and reading modes are exclusive, enforcing the paper's read-only /
    write-only file discipline.
    """

    def __init__(self, path: Path, mode: str, read_length: int, n_reads: int,
                 meter: IOMeter | None):
        self._path = path
        self._mode = mode
        self._read_length = read_length
        self._n_reads = n_reads
        self._meter = meter
        self._bytes_per_read = -(-read_length // 4)
        #: The read ranges held in host memory (:meth:`hold`), and the
        #: reservations of their bytes.
        self._held: list[_HeldRange] = []
        self._allocations = []
        self._handle = open(path, "wb" if mode == "w" else "rb")
        if mode == "w":
            self._handle.write(_HEADER.pack(_MAGIC, _VERSION, read_length, 0))
        else:
            self._handle.seek(_HEADER.size)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, read_length: int,
               meter: IOMeter | None = None) -> "PackedReadStore":
        """Open a new store for sequential writing."""
        if read_length < 1:
            raise DatasetError("read_length must be >= 1")
        return cls(Path(path), "w", read_length, 0, meter)

    @classmethod
    def open(cls, path: str | Path, meter: IOMeter | None = None) -> "PackedReadStore":
        """Open an existing store for reading."""
        path = Path(path)
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DatasetError(f"{path}: truncated packed-read header")
        magic, version, read_length, n_reads = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DatasetError(f"{path}: not a packed read store")
        if version != _VERSION:
            raise DatasetError(f"{path}: unsupported store version {version}")
        return cls(path, "r", read_length, n_reads, meter)

    # -- metadata ----------------------------------------------------------

    @property
    def path(self) -> Path:
        """Location of the store file."""
        return self._path

    @property
    def read_length(self) -> int:
        """Fixed length of every stored read."""
        return self._read_length

    @property
    def n_reads(self) -> int:
        """Number of reads currently in the store."""
        return self._n_reads

    @property
    def nbytes(self) -> int:
        """Packed payload size in bytes (excluding the header)."""
        return self._n_reads * self._bytes_per_read

    # -- writing -----------------------------------------------------------

    def append_batch(self, batch: ReadBatch) -> np.ndarray:
        """Append a batch of reads (write mode only); returns the packed
        bytes handed to the write, before the fault layer's write hook."""
        if self._mode != "w":
            raise StreamProtocolError("store is open read-only")
        if batch.read_length != self._read_length and batch.n_reads:
            raise DatasetError(
                f"batch read length {batch.read_length} != store length {self._read_length}"
            )
        packed = pack_codes(batch.codes)
        faults.deliver_write(self._path, packed.tobytes(), self._handle)
        if self._meter is not None:
            self._meter.add_write(packed.nbytes)
        self._n_reads += batch.n_reads
        return packed

    def close(self) -> None:
        """Finalize (write mode: patch the read count into the header).

        The handle is released even when the header write raises, and a
        held payload's host memory (:meth:`hold`, :meth:`adopt`) is given
        back.
        """
        self._held = []
        for allocation in self._allocations:
            allocation.free()
        self._allocations = []
        if self._handle.closed:
            return
        try:
            if self._mode == "w":
                # The header patch is the store's commit point: a crash just
                # before it leaves n_reads=0, which a resumed load re-runs.
                self._handle.seek(0)
                faults.deliver_write(
                    self._path,
                    _HEADER.pack(_MAGIC, _VERSION, self._read_length, self._n_reads),
                    self._handle)
        finally:
            self._handle.close()

    def __enter__(self) -> "PackedReadStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:  # a write that raised stays uncommitted
            self._handle.close()
        self.close()

    # -- reading -----------------------------------------------------------

    def hold(self, host_pool, ranges):
        """Keep the reads of ``ranges`` (``(start, stop)`` pairs) in host
        memory, each range from its next walk on.

        The bytes of the ranges not held yet are reserved in ``host_pool``
        now: the returned :class:`~repro.device.memory.Allocation` (``None``
        if every range is held already), which :meth:`close` frees. A read
        off the disk that starts within the reads of a range filled so far
        (the range's start, before its first read) lands in the range's copy
        too, so the first walk of a range fills it; a read within a range's
        filled reads comes from the copy and charges no disk, but still
        passes the fault layer's ``READ`` hook under the store's path, as a
        read of the file would. The copy keeps the bytes the disk gave,
        before the hook: a corrupted read corrupts that read alone.
        """
        if self._mode != "r":
            raise StreamProtocolError("store is open write-only")
        new = [_HeldRange(start, stop, np.empty(
                   (stop - start, self._bytes_per_read), dtype=np.uint8))
               for start, stop in ranges
               if self._held_pieces(start, stop, filled=False) is None]
        if not new:
            return None
        allocation = host_pool.alloc(sum(copy.reads.nbytes for copy in new),
                                     label="held-store")
        self._keep(new, allocation)
        return allocation

    def adopt(self, steps, allocation) -> None:
        """Hold every read of the store from ``steps``: the packed bytes of
        each :meth:`append_batch` that wrote it, in order, reserved in
        ``allocation`` (which :meth:`close` frees). The copy is filled
        already, so no walk reads the file's reads off the disk; each read
        still passes the ``READ`` hook, as with :meth:`hold`. The copy keeps
        the bytes handed to the write, before its hook."""
        if self._mode != "r":
            raise StreamProtocolError("store is open write-only")
        new, start = [], 0
        for packed in steps:
            new.append(_HeldRange(start, start + len(packed), packed))
            start = new[-1].filled = new[-1].stop
        self._keep(new, allocation)

    def _keep(self, ranges: list[_HeldRange], allocation) -> None:
        self._allocations.append(allocation)
        self._held = sorted(self._held + ranges, key=lambda copy: copy.start)

    @property
    def reservations(self) -> list:
        """The host-pool reservations of the reads held (:meth:`hold`,
        :meth:`adopt`)."""
        return list(self._allocations)

    def _held_pieces(self, start: int, stop: int, *, filled: bool):
        """The pieces of the held copies that cover reads ``[start, stop)``,
        in order, or ``None`` if they do not cover them all: their filled
        reads (``filled``), or every read they are to hold."""
        pieces, at = [], start
        for copy in self._held:
            end = min(stop, copy.filled if filled else copy.stop)
            if copy.start <= at < end:
                pieces.append(copy.reads[at - copy.start:end - copy.start])
                at = end
        return pieces if at == stop else None

    def read_packed_slice(self, start: int, stop: int, *,
                          meter_reads: int | None = None) -> np.ndarray:
        """Raw packed bytes of reads ``[start, stop)`` as ``(n, ceil(L/4))``.

        The 2-bit-packed form is ~4× smaller than the decoded code matrix;
        the map phase reads a host block in this form and unpacks once.
        Same fault-injection and disk-accounting path as
        :meth:`read_slice` — the decoded variant is exactly
        ``unpack_codes`` over this. ``meter_reads`` meters the one read as
        consecutive reads of that many reads each (the last may be
        shorter), as the map phase's device batches model it. Reads the
        store holds (:meth:`hold`) come from host memory, unmetered.
        """
        if self._mode != "r":
            raise StreamProtocolError("store is open write-only")
        if not 0 <= start <= stop <= self._n_reads:
            raise DatasetError(f"slice [{start}, {stop}) out of range 0..{self._n_reads}")
        count = stop - start
        pieces = self._held_pieces(start, stop, filled=True)
        if pieces:
            held = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            held.flags.writeable = False
            return faults.filter_read(self._path, held).reshape(
                count, self._bytes_per_read)
        self._handle.seek(_HEADER.size + start * self._bytes_per_read)
        disk = self._handle.read(count * self._bytes_per_read)
        raw = faults.filter_read(self._path, disk)
        for copy in self._held:
            first, last = max(start, copy.start), min(stop, copy.stop)
            if first < last and first <= copy.filled:
                copy.reads[first - copy.start:last - copy.start] = np.frombuffer(
                    disk, dtype=np.uint8).reshape(
                        count, self._bytes_per_read)[first - start:last - start]
                copy.filled = max(copy.filled, last)
        if self._meter is not None:
            if meter_reads is None:
                self._meter.add_read(len(raw))
            else:
                self._meter.add_read_run(
                    [(min(lo + meter_reads, stop) - lo) * self._bytes_per_read
                     for lo in range(start, stop, meter_reads)])
        return np.frombuffer(raw, dtype=np.uint8).reshape(count, self._bytes_per_read)

    def read_slice(self, start: int, stop: int) -> ReadBatch:
        """Random-access decode of reads ``[start, stop)`` (read mode only)."""
        packed = self.read_packed_slice(start, stop)
        return ReadBatch(unpack_codes(packed, self._read_length), start_id=start)

    def iter_batches(self, batch_reads: int) -> Iterator[ReadBatch]:
        """Stream the whole store as batches of at most ``batch_reads``."""
        if batch_reads < 1:
            raise DatasetError("batch_reads must be >= 1")
        for start in range(0, self._n_reads, batch_reads):
            yield self.read_slice(start, min(start + batch_reads, self._n_reads))
