"""Algorithm 1, generalized: external-memory merging of k sorted runs.

The merge never random-accesses its inputs. It slides a window of ``M/k``
records over each of the ``k`` runs and, per iteration, either

* copies one window straight through when it wholly precedes every other
  run's head (lines 5–6 of Algorithm 1), or
* *equalizes* the windows — truncates every window at the smallest tail
  key among the k windows (lines 8–15 generalized: any record at or below
  that boundary can never be preceded by an unread record) — and hands the
  equalized prefixes to the merge executor (``GPU_MERGE``, line 16).

The paper's pairwise Algorithm 1 is exactly the ``k = 2`` case;
:func:`merge_streams_k` is the fanout-k generalization that cuts level-1
merge rounds from ``⌈log₂ R⌉`` to ``⌈log_k R⌉``, as in the k-way external
merges of Bonizzoni et al. and Guidi et al.

The same routine is used at both levels of the two-level model: disk runs
merged through host memory, and host blocks merged through device memory;
only the chunk *source*, the *emit* sink, and the merge executor differ.
The executor is a k-ary ``merge_fn_k`` (``ExternalSorter.merge_windows``:
one gathered k-way device launch, or, for equalized prefixes beyond the
device budget, this same loop again over device-sized windows), so every
merge is Algorithm 1, k-way, at both levels. Output order is always
globally sorted;
ordering among equal keys is not preserved across window boundaries
(fingerprints do not need it).
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from ..device.kernels import copy_records
from ..errors import ConfigError, SortContractError
from ..trace.tracer import NULL_TRACER
from .records import KEY_FIELD

#: ``merge_fn_k(parts, out=None)``: merge k sorted parts. The merged run
#: goes into ``out`` when one is given (and is returned), else into a
#: fresh array.
MergeKFn = Callable[..., np.ndarray]
EmitFn = Callable[[np.ndarray], None]


class ChunkSource(Protocol):
    """Anything that yields successive record chunks (RunReader, HeldRun)."""

    def read(self, n: int) -> np.ndarray:
        """Consume up to ``n`` records (empty array at end of stream)."""
        ...


def _unsorted(index: int) -> SortContractError:
    return SortContractError(
        f"merge input {index} violates sortedness on {KEY_FIELD!r}")


class _Window:
    """A stream's sliding merge window over reusable ping-pong buffers.

    Refills append into a pair of persistent window-capacity buffers, so a
    merge round's working set is allocated once. Two aliasing rules keep
    it correct under a sink that holds the arrays it is handed:

    * a chunk fully replacing an empty window is *adopted* as-is
      (zero-copy) — source chunks are never written to;
    * :meth:`emit_all` hands a persistent buffer over to the sink and
      takes a fresh one, because the window refills while the sink may
      still hold the emitted records.
    """

    __slots__ = ("live", "start", "length", "_buf", "_spare", "_capacity",
                 "_source", "_index")

    def __init__(self, source: ChunkSource, index: int, capacity: int,
                 empty: np.ndarray):
        self._source = source
        self._index = index
        self._capacity = capacity
        self.live = empty
        self.start = 0
        self.length = 0
        self._buf: np.ndarray | None = None
        self._spare: np.ndarray | None = None

    def view(self) -> np.ndarray:
        """The current window records."""
        return self.live[self.start:self.start + self.length]

    def keys(self) -> np.ndarray:
        """The key column of the current window."""
        return self.view()[KEY_FIELD]

    def refill(self) -> None:
        """Top the window up to capacity from the stream.

        Checks the sortedness contract on what arrives: a corrupted run
        (e.g. a bit-flipped key) must fail loudly here, not merge into
        silently mis-sorted output downstream.
        """
        if self.length >= self._capacity:
            return
        extra = self._source.read(self._capacity - self.length)
        if not extra.shape[0]:
            return
        keys = extra[KEY_FIELD]
        if np.any(keys[1:] < keys[:-1]) or (
                self.length and self.keys()[-1] > keys[0]):
            raise _unsorted(self._index)
        self._absorb(extra)

    def _absorb(self, extra: np.ndarray) -> None:
        """Append ``extra`` after the remaining records, reusing buffers."""
        n = extra.shape[0]
        if self.length == 0:
            self.live = extra  # adopt the fresh chunk, zero-copy
            self.start = 0
            self.length = n
            return
        if self._buf is None:
            self._buf = np.empty(self._capacity, dtype=extra.dtype)
            self._spare = np.empty(self._capacity, dtype=extra.dtype)
        if not (self.live is self._buf and self.start == 0):
            if self.live is self._buf:
                self._buf, self._spare = self._spare, self._buf
            copy_records(self._buf[:self.length], self.view())
            self.live = self._buf
            self.start = 0
        copy_records(self._buf[self.length:self.length + n], extra)
        self.length += n

    def take(self, rank: int) -> np.ndarray:
        """The first ``rank`` records, dropped off the front of the window.

        A view into a buffer the next refill may overwrite.
        """
        part = self.live[self.start:self.start + rank]
        self.start += rank
        self.length -= rank
        return part

    def emit_all(self) -> np.ndarray:
        """The whole window, detached so a sink may hold it indefinitely."""
        out = self.view()
        if self.live is self._buf:
            self._buf = np.empty(self._capacity, dtype=out.dtype)
        self.live = out[:0]
        self.start = 0
        self.length = 0
        return out

    def drain(self) -> Iterable[np.ndarray]:
        """What the stream still holds beyond the window, a window at a time."""
        while True:
            chunk = self._source.read(self._capacity)
            if not chunk.shape[0]:
                return
            yield chunk


class _RunWindow:
    """An in-memory run's merge window: a cursor and a slice of the run.

    Same schedule as :class:`_Window` over a source holding the run, but
    nothing is ever copied — a refill only moves the slice's end. The
    sortedness contract is checked once, over the whole run.
    """

    __slots__ = ("start", "length", "_run", "_keys", "_capacity")

    def __init__(self, run: np.ndarray, index: int, capacity: int):
        keys = run[KEY_FIELD]
        if np.any(keys[1:] < keys[:-1]):
            raise _unsorted(index)
        self._run = run
        self._keys = keys
        self._capacity = capacity
        self.start = 0
        self.length = 0

    def keys(self) -> np.ndarray:
        """The key column of the current window."""
        return self._keys[self.start:self.start + self.length]

    def refill(self) -> None:
        """Extend the window to capacity (or to the end of the run)."""
        self.length = min(self._capacity, self._run.shape[0] - self.start)

    def take(self, rank: int) -> np.ndarray:
        """The first ``rank`` records, dropped off the front of the window."""
        part = self._run[self.start:self.start + rank]
        self.start += rank
        self.length -= rank
        return part

    def emit_all(self) -> np.ndarray:
        """The whole window (a view of the run; the sink copies it)."""
        return self.take(self.length)

    def drain(self) -> Iterable[np.ndarray]:
        """The rest of the run, in one piece: views need no windowing."""
        rest = self._run[self.start:]
        self.start = self._run.shape[0]
        return (rest,)


def _algorithm1(windows: list, emit: EmitFn | None, *,
                merge_fn_k: MergeKFn, out: np.ndarray | None = None,
                tracer=NULL_TRACER) -> int:
    """The one Algorithm 1 loop; returns the number of records emitted.

    ``windows`` are :class:`_Window` or :class:`_RunWindow` (same
    schedule, different storage). Emitted records go to ``emit``, which
    may hold every array it is handed, or — when ``out`` is given — into
    consecutive slices of ``out``: a merged window is produced in place
    (the executor's ``out=``), anything else is copied there as bytes.
    """
    emitted = 0

    def _put(records: np.ndarray, *, in_place: bool = False) -> None:
        nonlocal emitted
        n = records.shape[0]
        if out is None:
            if n:
                emit(records)
        elif not in_place:
            copy_records(out[emitted:emitted + n], records)
        emitted += n

    def _merge_parts(parts: list[np.ndarray]) -> None:
        total = sum(part.shape[0] for part in parts)
        dest = None if out is None else out[emitted:emitted + total]
        if len(parts) == 1:
            # The lone equalized prefix aliases its window: copy it out, so
            # a sink may hold it past the next refill.
            merged = np.empty_like(parts[0]) if dest is None else dest
            copy_records(merged, parts[0])
        else:
            merged = merge_fn_k(parts, out=dest)
        _put(merged, in_place=merged is dest)

    active = list(range(len(windows)))
    while True:
        # Refill every window; drop sources exhausted with an empty buffer.
        for i in list(active):
            win = windows[i]
            win.refill()
            if win.length == 0:
                active.remove(i)
        if not active:
            return emitted
        if len(active) == 1:
            # Line 19: every other run is exhausted; stream the survivor out.
            survivor = windows[active[0]]
            _put(survivor.emit_all())
            for chunk in survivor.drain():
                _put(chunk)
            return emitted
        keys = {i: windows[i].keys() for i in active}
        heads = {i: keys[i][0] for i in active}
        tails = {i: keys[i][-1] for i in active}
        # Pass-through fast path: a window wholly preceding all other heads.
        passthrough = next(
            (i for i in active
             if all(tails[i] <= heads[j] for j in active if j != i)), None)
        if passthrough is not None:
            if tracer.enabled:
                tracer.instant("merge-passthrough", track="merge",
                               records=int(windows[passthrough].length))
            _put(windows[passthrough].emit_all())
            continue
        # Equalize every window at the smallest tail key, then merge: any
        # record <= that boundary precedes every unread record of every run.
        boundary = min(tails.values())
        parts: list[np.ndarray] = []
        for i in active:
            rank = int(np.searchsorted(keys[i], boundary, side="right"))
            if rank:
                parts.append(windows[i].take(rank))
        # det=False keeps the per-window spans out of the sim export (its
        # size).
        if tracer.enabled:
            with tracer.span("merge-window", track="merge", ways=len(parts),
                             records=int(sum(p.shape[0] for p in parts))):
                _merge_parts(parts)
        else:
            _merge_parts(parts)


def merge_streams_k(sources: Sequence[ChunkSource], emit: EmitFn, *,
                    window_records: int, merge_fn_k: MergeKFn,
                    tracer=NULL_TRACER) -> int:
    """Fanout-k Algorithm 1 over streams; returns the records emitted.

    This is the *first level* of the hybrid sort when the sources are
    on-disk runs and ``emit`` a run writer's ``append``. ``window_records``
    is ``M/k`` — the per-run window size; the merge executor
    ``merge_fn_k`` therefore never sees more than ``len(sources) *
    window_records`` records, the equalized window prefixes.
    Every array handed to ``emit`` is fresh or detached, so a sink may
    hold it. ``tracer`` records a span per
    equalized-window merge (and an instant per pass-through window); only
    the level-1 disk merge passes a real one — the inner level-2 merges
    would flood the event log.
    """
    if window_records < 1:
        raise ConfigError("window_records must be >= 1")
    sources = list(sources)
    if not sources:
        return 0
    empty = sources[0].read(0)
    windows = [_Window(source, index, window_records, empty)
               for index, source in enumerate(sources)]
    return _algorithm1(windows, emit, merge_fn_k=merge_fn_k, tracer=tracer)


def merge_in_memory_k(runs: Sequence[np.ndarray], *, window_records: int,
                      merge_fn_k: MergeKFn,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Fanout-k Algorithm 1 over in-memory runs; returns the merged run.

    This is the *second level* of the hybrid sort: host-resident blocks are
    merged by streaming device-sized windows through the merge executor.
    The windows are views of the runs and the output (``out``, or a fresh
    array) is allocated once: every merged window lands in its slice of
    it, pass-through and survivor windows are copied there as bytes.
    """
    runs = list(runs)
    if not runs:
        raise ConfigError("merge_in_memory_k needs at least one run")
    if window_records < 1:
        raise ConfigError("window_records must be >= 1")
    total = sum(run.shape[0] for run in runs)
    if out is None:
        out = np.empty(total, dtype=runs[0].dtype)
    elif out.shape != (total,) or out.dtype != runs[0].dtype:
        raise ConfigError("merge out= buffer shape/dtype mismatch")
    windows = [_RunWindow(run, index, window_records)
               for index, run in enumerate(runs)]
    _algorithm1(windows, None, merge_fn_k=merge_fn_k, out=out)
    return out
