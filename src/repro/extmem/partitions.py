"""The per-overlap-length partition store.

The map phase converts each read batch into ``(length, fingerprint, vertex)``
tuples and splits them by length into ``l_max − l_min`` partitions per side
(S = suffixes, P = prefixes), "each into a file corresponding to the
partition" (§III.A). Partitions below ``l_min`` are never materialized.
The whole-read partition ``l_max = L`` holds no overlap: it exists to find
duplicate reads, and has its ``P`` side only, since a whole read's suffix
is its prefix (:func:`partition_sides`).

The store owns the naming scheme, the writer lifecycle and the runs kept
in host memory; sort and reduce phases address partitions as
``(side, length)`` pairs. Where a run lives is the run's
:class:`~repro.core.residency.Residency` plan's call; the store keeps one
map of the runs in host memory (:class:`~repro.extmem.streams.HeldRun`
objects, each with its host-pool reservations), asked by
:meth:`PartitionStore.kept` and let go by one release path. An unsorted
partition whose size is known before the map writes it may be reserved
(:meth:`PartitionStore.reserve`): its appends fill the array, no file is
written and every reader reads it from there. A sorted run the sort left in
one piece may be kept (:meth:`PartitionStore.keep`), its only copy: the
next :meth:`PartitionStore.open_run` of it reads it from memory, once.
Nothing resumes from a run without a file (a resumed run maps and sorts
again every length that has no sorted file), so no file is missed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ConfigError, StreamProtocolError
from .io_stats import IOAccountant
from .streams import HeldRun, RunReader, RunWriter

SIDES = ("S", "P")


def partition_sides(length: int, read_length: int) -> tuple[str, ...]:
    """The sides partition ``length`` has: both, except the whole-read
    partition (``length == read_length``), whose ``S`` would equal ``P``."""
    return ("P",) if length == read_length else SIDES


class PartitionStore:
    """Manages the S/P partition run files under one directory."""

    def __init__(self, root: str | Path, dtype: np.dtype,
                 accountant: IOAccountant | None = None):
        self.root = Path(root)
        self.dtype = np.dtype(dtype)
        self.accountant = accountant
        self.root.mkdir(parents=True, exist_ok=True)
        self._writers: dict[tuple[str, int], RunWriter] = {}
        #: The runs in host memory, by ``(side, length, sorted_run)``.
        self._memory: dict[tuple[str, int, bool], HeldRun] = {}
        self._finalized = False

    # -- paths ------------------------------------------------------------

    def path(self, side: str, length: int, *, sorted_run: bool = False) -> Path:
        """File path of one partition (or of its sorted counterpart)."""
        if side not in SIDES:
            raise ConfigError(f"side must be one of {SIDES}, got {side!r}")
        stem = f"{side}_{length:05d}"
        return self.root / (f"{stem}.sorted.run" if sorted_run else f"{stem}.run")

    # -- writing (map phase) -----------------------------------------------

    def append(self, side: str, length: int, records: np.ndarray, *,
               meter: bool = True) -> None:
        """Append records to partition ``(side, length)``.

        ``meter=False`` leaves the accounting to the caller (see
        :meth:`append_pairs`).
        """
        if self._finalized:
            # A late append would silently truncate the partition (RunWriter
            # opens "wb") and corrupt the sorted phase's input.
            raise StreamProtocolError(
                f"{self.root}: append to ({side}, {length}) after finalize()")
        kept = self._memory.get((side, length, False))
        if kept is not None:
            kept.append(records)
            return
        writer = self._writers.get((side, length))
        if writer is None:
            writer = RunWriter(self.path(side, length), self.dtype, self.accountant)
            self._writers[(side, length)] = writer
        writer.append(records, meter=meter)

    def append_pairs(self, pairs, rows) -> None:
        """Land a staged fan-out: several logical appends per writer, one write.

        ``pairs`` is a list of ``(length, prefix_records, suffix_records)``;
        ``suffix_records`` is ``None`` for the whole-read partition.
        Every record array is ``len(rows)`` consecutive logical appends laid
        back to back — ``rows[i]`` is ``(prefix, suffix)`` records each —
        which is how the map phase stages the device batches of one host
        block (per batch, the forward then the reverse-complement records).
        The result is what one ``append("P", ...)`` then ``append("S",
        ...)`` per tuple, per entry of ``rows``, would have produced: same
        writers, same bytes, and the same accounting — one seekless write
        per logical append, in that order, through one grouped
        :meth:`~repro.extmem.io_stats.IOAccountant.add_write_run`
        (partition writers never seek) — but each writer sees a single real
        append. Partitions kept in host memory are not metered: their
        records never reach the disk.
        """
        for length, prefix, suffix in pairs:
            self.append("P", length, prefix, meter=False)
            if suffix is not None:
                self.append("S", length, suffix, meter=False)
        # Per partition on disk, whether it has an S side.
        on_disk = [suffix is not None for length, _, suffix in pairs
                   if not self.kept("P", length)]
        if self.accountant is not None and on_disk:
            width = self.dtype.itemsize
            self.accountant.add_write_run(
                [n * width for counts in rows for both in on_disk
                 for n in (counts if both else counts[:1])])

    def reserve(self, lengths, n_records: int, allocate,
                read_length: int) -> None:
        """Keep the unsorted partitions of ``lengths`` in host memory.

        Each side of each length (:func:`partition_sides`: the whole-read
        length ``read_length`` has ``P`` only) is to receive ``n_records``
        records: their room is made now, its bytes reserved by
        ``allocate(nbytes)``; a partition kept already starts again. Appends
        fill them instead of writing files (an append beyond the
        reservation raises :class:`~repro.errors.StreamProtocolError`),
        :meth:`open_run` reads them, and :meth:`delete` or :meth:`abandon`
        lets them go.
        """
        for length in lengths:
            for side in partition_sides(length, read_length):
                self._release((side, length, False))
                self._memory[(side, length, False)] = HeldRun.room(
                    self.path(side, length), n_records, self.dtype,
                    allocate(n_records * self.dtype.itemsize))

    def keep(self, side: str, length: int, records: np.ndarray,
             allocation=None) -> None:
        """Keep the sorted run ``(side, length)`` in host memory, unwritten.

        ``records`` are the bytes its sorted file would hold; ``allocation``
        reserves them until the next :meth:`open_run` of the run is closed
        or the run is dropped (:meth:`delete`, :meth:`abandon`).
        """
        self._memory[(side, length, True)] = HeldRun(
            self.path(side, length, sorted_run=True), records,
            () if allocation is None else (allocation,))

    def finalize(self) -> None:
        """Close all open partition writers (end of the map phase).

        Every writer is closed even when one's final write raises; the
        first error is re-raised once all of them are.
        """
        error = self._close_writers()
        self._finalized = True
        if error is not None:
            raise error

    def reopen(self, lengths) -> None:
        """Take appends again, to write the partitions of ``lengths`` anew:
        their runs and files go. The others stay as they are."""
        for length in lengths:
            for side in SIDES:
                self.delete(side, length)
        self._finalized = False

    def _close_writers(self) -> Exception | None:
        """Close every open writer; returns the first close error, if any."""
        error = None
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception as exc:
                if error is None:
                    error = exc
        self._writers.clear()
        return error

    def abandon(self) -> None:
        """Drop every open writer and kept run without sealing the store.

        What a dead process leaves behind: the files stay as they are, the
        handles (and their claim on the stream-exclusivity registry) and
        the host memory of kept runs go. Close errors are swallowed; the
        writers were lost either way.
        """
        self._close_writers()
        for key in list(self._memory):
            self._release(key)

    def __enter__(self) -> "PartitionStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finalize()

    # -- reading (sort/reduce phases) -----------------------------------------

    def lengths(self) -> list[int]:
        """All partition lengths present on disk, ascending."""
        if self._writers:
            raise StreamProtocolError("finalize() the store before reading partitions")
        # Names are ``{side}_{length:05d}[.sorted].run`` (:meth:`path`).
        return sorted({int(path.name[2:].split(".")[0])
                       for path in self.root.glob("[SP]_*.run")}
                      | {length for _, length, _ in self._memory})

    def kept(self, side: str, length: int, *, sorted_run: bool = False) -> bool:
        """Whether the partition (or its sorted run) is in host memory: the
        next :meth:`open_run` of it reads no file."""
        return (side, length, sorted_run) in self._memory

    def open_run(self, side: str, length: int, *, sorted_run: bool = False,
                 ) -> RunReader | HeldRun:
        """Open one partition for sequential reading.

        A sorted run :meth:`keep` kept is read from host memory, by its
        first reader only (closing it frees the reservation); any other
        open reads the file. An unsorted partition kept in host memory
        (:meth:`reserve`) is read from there, by every reader, read-only.
        """
        key = (side, length, sorted_run)
        if key not in self._memory:
            return RunReader(self.path(side, length, sorted_run=sorted_run),
                             self.dtype, self.accountant)
        return self._memory.pop(key) if sorted_run else self._memory[key].reader()

    def records_in(self, side: str, length: int, *, sorted_run: bool = False) -> int:
        """Record count of one partition (0 if it has neither a file nor a
        run in host memory)."""
        kept = self._memory.get((side, length, sorted_run))
        if kept is not None:
            return kept.total_records
        path = self.path(side, length, sorted_run=sorted_run)
        if not path.exists():
            return 0
        return path.stat().st_size // self.dtype.itemsize

    def total_bytes(self) -> int:
        """Bytes across every partition file currently on disk."""
        return sum(path.stat().st_size for path in self.root.glob("*.run"))

    def delete(self, side: str, length: int, *, sorted_run: bool = False) -> None:
        """Remove a partition file (after it has been consumed), and the
        run kept in host memory for it."""
        self._release((side, length, sorted_run))
        self.path(side, length, sorted_run=sorted_run).unlink(missing_ok=True)

    def _release(self, key: tuple[str, int, bool]) -> None:
        """Let a run in host memory go, with its reservations."""
        kept = self._memory.pop(key, None)
        if kept is not None:
            kept.close()
