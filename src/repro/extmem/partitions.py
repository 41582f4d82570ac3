"""The per-overlap-length partition store.

The map phase converts each read batch into ``(length, fingerprint, vertex)``
tuples and splits them by length into ``l_max − l_min`` partitions per side
(S = suffixes, P = prefixes), "each into a file corresponding to the
partition" (§III.A). Partitions below ``l_min`` are never materialized.
The whole-read partition ``l_max = L`` holds no overlap: it exists to find
duplicate reads, and has its ``P`` side only, since a whole read's suffix
is its prefix (:func:`partition_sides`).

The store owns the naming scheme, the writer lifecycle and the sorted runs
held in host memory; sort and reduce phases address partitions as
``(side, length)`` pairs. A sort that leaves a length's run in one piece
may :meth:`PartitionStore.hold` the array, its only copy (no file is
written): the next :meth:`PartitionStore.open_run` of that sorted run
reads it from memory, once.

Unsorted partitions whose sizes are known before the map writes them may
be kept in host memory instead (:meth:`PartitionStore.reserve`): their
appends fill preallocated arrays, no file is written and the sort reads
them from there. Nothing resumes from an unsorted partition (a resumed run
maps again every length it finds unsorted), so no file is missed.
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
        self._held: dict[tuple[str, int], HeldRun] = {}
        #: Unsorted partitions kept in host memory: array, records filled,
        #: and the reservations of its bytes (one a :meth:`reserve`).
        self._in_memory: dict[tuple[str, int], list] = {}
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
        key = (side, length)
        kept = self._in_memory.get(key)
        if kept is not None:
            array, filled, _ = kept
            if filled + records.shape[0] > array.shape[0]:
                raise StreamProtocolError(
                    f"{self.path(side, length)}: more records than reserved "
                    f"({array.shape[0]})")
            array[filled:filled + records.shape[0]] = records
            kept[1] = filled + records.shape[0]
            return
        writer = self._writers.get(key)
        if writer is None:
            writer = RunWriter(self.path(side, length), self.dtype, self.accountant)
            self._writers[key] = writer
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
                   if ("P", length) not in self._in_memory]
        if self.accountant is not None and on_disk:
            width = self.dtype.itemsize
            self.accountant.add_write_run(
                [n * width for counts in rows for both in on_disk
                 for n in (counts if both else counts[:1])])

    def reserve(self, lengths, n_records: int, host_pool,
                read_length: int) -> None:
        """Keep the unsorted partitions of ``lengths`` in host memory.

        Each side of each length (:func:`partition_sides`: the whole-read
        length ``read_length`` has ``P`` only) is to receive ``n_records``
        more records: their room is allocated, and its bytes reserved in
        ``host_pool``, now. A partition kept already grows by that much (a
        node's hand-out piece, one read block at a time). Appends fill
        them instead of writing files (an append beyond the reservation
        raises :class:`~repro.errors.StreamProtocolError`), :meth:`open_run`
        reads them, and :meth:`delete` or :meth:`abandon` lets them go.
        """
        for length in lengths:
            for side in partition_sides(length, read_length):
                kept = self._in_memory.setdefault(
                    (side, length), [np.empty(0, dtype=self.dtype), 0, []])
                array, filled, allocations = kept
                allocations.append(host_pool.alloc(
                    n_records * self.dtype.itemsize, label="held-partition"))
                kept[0] = np.empty(array.shape[0] + n_records, dtype=self.dtype)
                kept[0][:filled] = array[:filled]

    def finalize(self) -> None:
        """Close all open partition writers (end of the map phase).

        Every writer is closed even when one's final write raises; the
        first error is re-raised once all of them are.
        """
        error = self._close_writers()
        self._finalized = True
        if error is not None:
            raise error

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
        """Drop every open writer and held run without sealing the store.

        What a dead process leaves behind: the files stay as they are, the
        handles (and their claim on the stream-exclusivity registry) and
        the host memory of held runs go. Close errors are swallowed; the
        writers were lost either way.
        """
        self._close_writers()
        for held in self._held.values():
            held.close()
        self._held.clear()
        for key in list(self._in_memory):
            self._let_go(key)

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
                      | {length for _, length in self._in_memory})

    def in_memory(self, side: str, length: int) -> bool:
        """Whether the unsorted partition is kept in host memory
        (:meth:`reserve`)."""
        return (side, length) in self._in_memory

    @property
    def host_bytes(self) -> int:
        """Host memory this store reserves: kept partitions and held runs."""
        return sum(kept[0].nbytes for kept in self._in_memory.values()) \
            + sum(held.total_records for held in self._held.values()) \
            * self.dtype.itemsize

    def open_run(self, side: str, length: int, *, sorted_run: bool = False,
                 ) -> RunReader | HeldRun:
        """Open one partition for sequential reading.

        A sorted run :meth:`hold` kept is read from host memory, by its
        first reader only (closing it frees the reservation); any other
        open reads the file. An unsorted partition kept in host memory
        (:meth:`reserve`) is read from there, by every reader, read-only.
        """
        held = self._held.pop((side, length), None) if sorted_run else None
        if held is not None:
            return held
        kept = None if sorted_run else self._in_memory.get((side, length))
        if kept is not None:
            records = kept[0][:kept[1]]
            records.flags.writeable = False
            return HeldRun(self.path(side, length), records)
        return RunReader(self.path(side, length, sorted_run=sorted_run),
                         self.dtype, self.accountant)

    # -- sorted runs held in host memory ------------------------------------

    def hold(self, side: str, length: int, records: np.ndarray,
             allocation=None) -> None:
        """Keep the sorted run ``(side, length)`` in host memory.

        ``records`` must be the bytes of its sorted file, written or not;
        ``allocation``
        reserves them until the next :meth:`open_run` of the run is closed
        or the run is dropped (:meth:`delete`, :meth:`abandon`).
        """
        self._held[(side, length)] = HeldRun(
            self.path(side, length, sorted_run=True), records, allocation)

    def holds(self, side: str, length: int) -> bool:
        """Whether the next :meth:`open_run` of this sorted run reads memory."""
        return (side, length) in self._held

    def _drop(self, key: tuple[str, int]) -> None:
        held = self._held.pop(key, None)
        if held is not None:
            held.close()

    def records_in(self, side: str, length: int, *, sorted_run: bool = False) -> int:
        """Record count of one partition (0 if the file is absent)."""
        kept = None if sorted_run else self._in_memory.get((side, length))
        if kept is not None:
            return kept[1]
        path = self.path(side, length, sorted_run=sorted_run)
        if not path.exists():
            return 0
        return path.stat().st_size // self.dtype.itemsize

    def total_bytes(self) -> int:
        """Bytes across every partition file currently on disk."""
        return sum(path.stat().st_size for path in self.root.glob("*.run"))

    def delete(self, side: str, length: int, *, sorted_run: bool = False) -> None:
        """Remove a partition file (after it has been consumed), and the
        run held for it."""
        if sorted_run:
            self._drop((side, length))
        else:
            self._let_go((side, length))
        self.path(side, length, sorted_run=sorted_run).unlink(missing_ok=True)

    def _let_go(self, key: tuple[str, int]) -> None:
        kept = self._in_memory.pop(key, None)
        if kept is not None:
            for allocation in kept[2]:
                allocation.free()
