"""Reduce phase: suffix–prefix matching and greedy graph building (§III.C).

Implements Algorithm 2. For each overlap length ``l`` (processed in
**descending** order, so longer overlaps win the greedy contest), the sorted
suffix run ``S_l`` and prefix run ``P_l`` are streamed through paired
windows that always cover the same fingerprint range: the windows are cut
at the smaller of their two tail fingerprints, so a fingerprint present in
the suffix window can only match inside the current prefix window — one
pass per partition. The runs come through
:meth:`~repro.extmem.PartitionStore.open_run`: off the disk, or, for a
run the sort just formed in one piece and held, from host memory at no
disk charge (:mod:`repro.core.sort_phase`); a held run has no file.

Each window pair goes to the device, where vectorized lower/upper bounds of
every suffix fingerprint in the prefix window yield per-suffix match counts
(``C = U − L``); matches expand into candidate edges
``(suffix vertex → prefix vertex, l)`` which the host-resident
:class:`~repro.graph.GreedyStringGraph` filters through its out-degree
bit-vector. With two fingerprint lanes, the auxiliary lane must also agree
— the paper's 128-bit false-positive guard.

The whole-read length ``L`` comes first and adds no edge: its one sorted
run ``P_L`` groups the oriented reads by their whole sequence, and
:func:`close_duplicates` drops every read that equals a lower-numbered one
on either strand (:meth:`~repro.graph.GreedyStringGraph.close_reads`).
Every later length then finds those reads closed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from ..device.kernels import copy_records, raw_view
from ..extmem import PartitionStore, RunReader
from ..extmem.partitions import partition_sides
from ..extmem.records import AUX_FIELD, KEY_FIELD, VAL_FIELD
from ..graph import GreedyStringGraph
from ..seq.packing import PackedReadStore
from .context import RunContext

#: Window slots carved out of the device block: S + P windows resident plus
#: bounds arrays and expansion headroom.
REDUCE_WINDOW_DIVISOR = 6

#: Cap on candidate-edge expansion processed per device round.
MAX_EXPANSION = 1 << 18


@dataclass
class ReduceReport:
    """Statistics of the reduce phase."""

    partitions_processed: int = 0
    window_rounds: int = 0
    #: Candidates offered to the greedy rule (not "overlaps found": records
    #: the sort already dropped as closed never become candidates).
    candidates: int = 0
    aux_rejected: int = 0
    edges_added: int = 0
    #: Overlap length → edges it added (the whole-read length adds none).
    per_length_edges: dict[int, int] = field(default_factory=dict)
    #: Reads dropped as exact duplicates at the whole-read length.
    reads_closed: int = 0

    def to_json(self) -> dict:
        """The report's JSON form (ledger state and cache meta alike)."""
        return asdict(self)

    def count_length(self, length: int, step: ReduceReport,
                     graph: GreedyStringGraph, edges_before: int,
                     closed_before: int) -> None:
        """Count one reduced length: ``step``'s counters (the step that
        reduced it), and the edges and closed reads ``graph`` gained since
        ``edges_before`` / ``closed_before``. Those come from the graph:
        what a failed attempt added or closed persists, and its replay
        finds it there."""
        self.partitions_processed += 1
        self.candidates += step.candidates
        self.window_rounds += step.window_rounds
        self.aux_rejected += step.aux_rejected
        self.reads_closed += graph.reads_closed - closed_before
        if length < graph.read_length:
            self.per_length_edges[length] = (graph.n_edges - edges_before) // 2

    @classmethod
    def from_json(cls, saved: dict) -> ReduceReport:
        """Inverse of :meth:`to_json` after a JSON round trip (string keys)."""
        return cls(**{**saved, "per_length_edges": {
            int(k): v for k, v in saved["per_length_edges"].items()}})


def run_reduce(ctx: RunContext, partitions: PartitionStore, store: PackedReadStore,
               *, lengths: Iterable[int] | None = None,
               graph: GreedyStringGraph | None = None,
               report: ReduceReport | None = None,
               ) -> tuple[GreedyStringGraph, ReduceReport]:
    """Build the greedy string graph from all sorted partitions.

    ``lengths`` restricts the call to those partitions; ``graph`` and
    ``report`` continue the ones an earlier call (over longer lengths)
    returned instead of starting new ones.
    """
    if graph is None:
        graph = GreedyStringGraph(store.n_reads, store.read_length, ctx.host_pool)
    if report is None:
        report = ReduceReport()
    for length in sorted(partitions.lengths() if lengths is None else lengths,
                         reverse=True):
        sides = partition_sides(length, store.read_length)
        if not all(partitions.kept(side, length, sorted_run=True)
                   or partitions.path(side, length, sorted_run=True).exists()
                   for side in sides):
            continue
        edges_before, closed_before = graph.n_edges, graph.reads_closed
        step = ReduceReport()
        with ctx.tracer.span("reduce:partition", track="pipeline", det=True,
                             length=length) as span:
            held = reduce_length(ctx, graph, partitions, length, step)
            span.note(edges=(graph.n_edges - edges_before) // 2, held=held)
        ctx.events.bump("sorted_runs_held", held)
        ctx.events.bump("sorted_runs_from_disk", len(sides) - held)
        report.count_length(length, step, graph, edges_before, closed_before)
    report.edges_added = graph.n_edges
    return graph, report


def reduce_length(ctx: RunContext, graph: GreedyStringGraph,
                  partitions: PartitionStore, length: int, report: ReduceReport,
                  *, reduce=None) -> int:
    """One length's reduce step: its sorted runs through Algorithm 2.

    Opens ``S`` and ``P`` of ``length`` (a held run from host memory, else
    the file) and reduces them with the window the device block leaves.
    ``reduce`` replaces :func:`reduce_partition` (a caller's own binding
    of it). At the whole-read length the one run ``P_L`` goes through
    :func:`close_duplicates` instead. Returns how many runs were held.
    """
    held = sum(partitions.kept(side, length, sorted_run=True)
               for side in partition_sides(length, graph.read_length))
    # The runs are closed however the step ends, which frees a held one
    # (it has no file: a retry sorts the partition again).
    if length == graph.read_length:
        with partitions.open_run("P", length, sorted_run=True) as run:
            close_duplicates(ctx, graph, run, report)
        return held
    with partitions.open_run("S", length, sorted_run=True) as suffixes, \
            partitions.open_run("P", length, sorted_run=True) as prefixes:
        (reduce or reduce_partition)(ctx, graph, suffixes, prefixes, length,
                                     _window(ctx, partitions.dtype), report)
    return held


def _window(ctx: RunContext, dtype) -> int:
    """Records a side's reduce window holds: a share of the device block."""
    _, m_d = ctx.config.resolved_blocks(dtype.itemsize)
    return max(1, m_d // REDUCE_WINDOW_DIVISOR)


def _refill(buf: np.ndarray, reader: RunReader, target: int) -> np.ndarray:
    """``buf`` topped up from ``reader`` to ``target`` records (or its end)."""
    if buf.shape[0] >= target or reader.exhausted:
        return buf
    extra = reader.read(target - buf.shape[0])
    if buf.shape[0] == 0:
        return extra
    # Joined as bytes: numpy concatenates a packed dtype field by field.
    return np.concatenate([raw_view(buf), raw_view(extra)]).view(buf.dtype)


def close_duplicates(ctx: RunContext, graph: GreedyStringGraph,
                     run: RunReader, report: ReduceReport) -> None:
    """Drop the exact duplicate reads the sorted ``P_L`` run shows.

    ``P_L`` keys every oriented read by its whole sequence. Within each
    group of records with equal key (and aux lane, the false-positive
    guard), the lowest read id is kept and every other read is dropped,
    both orientations (:meth:`~repro.graph.GreedyStringGraph.close_reads`);
    a read that meets itself (its two orientations, a palindrome) is not
    a duplicate. A read equal to another on either strand shares a group
    with it in both orientations, so the rule keeps exactly the lowest read
    of each class of equal reads. The run streams in the reduce window,
    cut at key boundaries so a group is never split, and each window is
    metered like a reduce window. Like a partition, the step is replayed
    whole after a failure: closing a read twice changes nothing.
    """
    buf = run.read(0)
    window = target = _window(ctx, buf.dtype)
    while True:
        buf = _refill(buf, run, target)
        if buf.shape[0] == 0:
            return
        cut = buf.shape[0]
        if not run.exhausted:
            keys = buf[KEY_FIELD]
            cut = int(np.searchsorted(keys, keys[-1], side="left"))
            if cut == 0:
                # One whole-read sequence fills the window: widen it.
                target += window
                continue
        _close_window(ctx, graph, buf[:cut], report)
        buf, target = buf[cut:], window


def _close_window(ctx: RunContext, graph: GreedyStringGraph,
                  window: np.ndarray, report: ReduceReport) -> None:
    """One window of :func:`close_duplicates`: whole key groups only."""
    report.window_rounds += 1
    # The tie order of _match_windows, then one segmented pass that marks
    # every record whose read is not its group's lowest.
    ctx.gpu.charge_elementwise(2 * window.nbytes)
    with ctx.gpu.to_device(window, label="reduce-L") as window_d, \
            ctx.gpu.empty(window.shape[0], np.bool_,
                          label="reduce-L-closed") as closing_d:
        ctx.gpu.charge_elementwise(window.nbytes)
        records = window_d.array
        lanes = [records[field] for field in (KEY_FIELD, AUX_FIELD)
                 if field in records.dtype.names]
        order = np.lexsort((records[VAL_FIELD], *lanes[::-1]))
        same = np.ones(order.shape[0] - 1, dtype=bool)
        for lane in lanes:
            ordered = lane[order]
            same &= ordered[1:] == ordered[:-1]
        first = np.concatenate(([True], ~same))
        reads = records[VAL_FIELD][order] >> 1
        closing_d.array[order] = reads != reads[first][np.cumsum(first) - 1]
        closing = ctx.gpu.to_host(closing_d)
    duplicates = window[VAL_FIELD][closing] >> 1
    ctx.charge_host(duplicates.shape[0] * 16)
    report.reads_closed += graph.close_reads(duplicates)


def reduce_partition(ctx: RunContext, graph: GreedyStringGraph,
                      suffixes: RunReader, prefixes: RunReader,
                      length: int, window: int, report: ReduceReport) -> None:
    """Algorithm 2 over one length partition's sorted S/P streams.

    Streams paired windows whose fingerprint ranges are equalized at the
    smaller tail key, matches them on the device, and offers every
    candidate edge to ``graph`` in stream order. ``window`` is the per-side
    record budget; it grows transiently when one fingerprint spans a whole
    window (a deep repeat).

    The partition is the unit of recovery: nothing is committed part-way,
    and a failed attempt is re-run from the start of both streams. Its
    re-offered candidates are rejected by the graph's out-degree
    bit-vector, so the edges are the uninterrupted run's.
    """
    empty = suffixes.read(0)
    s_buf, p_buf = empty, empty
    target = window
    while True:
        s_buf = _refill(s_buf, suffixes, target)
        p_buf = _refill(p_buf, prefixes, target)
        if s_buf.shape[0] == 0 or p_buf.shape[0] == 0:
            return
        s_keys, p_keys = s_buf[KEY_FIELD], p_buf[KEY_FIELD]
        tails = []
        if not suffixes.exhausted:
            tails.append(s_keys[-1])
        if not prefixes.exhausted:
            tails.append(p_keys[-1])
        if tails:
            boundary = min(tails)
            cut_s = int(np.searchsorted(s_keys, boundary, side="left"))
            cut_p = int(np.searchsorted(p_keys, boundary, side="left"))
            if cut_s == 0 and cut_p == 0:
                # A single fingerprint spans a whole window (deep repeat):
                # widen the windows and retry — the only case where the
                # fixed window cannot make progress.
                target += window
                continue
        else:
            cut_s, cut_p = s_buf.shape[0], p_buf.shape[0]
        if cut_s and cut_p:
            _match_windows(ctx, graph, s_buf[:cut_s], p_buf[:cut_p], length, report)
        s_buf, p_buf = s_buf[cut_s:], p_buf[cut_p:]
        target = window
        if not tails:
            return


def _canonical_order(window: np.ndarray) -> np.ndarray:
    """``window[np.lexsort((val, key))]`` of a key-sorted window.

    Records sharing a fingerprint are ordered by vertex id. The window is
    already ascending by key and ``lexsort`` is stable, so only records
    inside equal-key groups can move: those are sorted on their own and
    written back to the positions they came from; a window without ties
    (the common case) is returned as it is.
    """
    keys = window[KEY_FIELD]
    same = keys[1:] == keys[:-1]
    if not same.any():
        return window
    in_group = np.zeros(window.shape[0], dtype=bool)
    in_group[1:] = same
    in_group[:-1] |= same
    tied = np.flatnonzero(in_group)
    # Records move through the byte view (``tied`` indexes the window, so
    # mode="clip" never clips; it spares numpy the bounds pass).
    tied_raw = np.take(raw_view(window), tied, mode="clip")
    records = tied_raw.view(window.dtype)
    order = np.lexsort((records[VAL_FIELD], records[KEY_FIELD]))
    out = np.empty_like(window)
    copy_records(out, window)
    raw_view(out)[tied] = np.take(tied_raw, order, mode="clip")
    return out


def _expansion_chunks(counts: np.ndarray) -> list[tuple[int, int]]:
    """Cut positive match counts into runs of at most ``MAX_EXPANSION``.

    Returns ``(start, stop)`` index pairs, greedy from the left; a count
    that exceeds the cap by itself forms a run of its own.
    """
    cumulative = np.cumsum(counts)
    chunks = []
    start, done = 0, 0
    while start < counts.shape[0]:
        stop = int(np.searchsorted(cumulative, done + MAX_EXPANSION, side="right"))
        stop = max(stop, start + 1)
        chunks.append((start, stop))
        start, done = stop, int(cumulative[stop - 1])
    return chunks


def _match_windows(ctx: RunContext, graph: GreedyStringGraph,
                   s_win: np.ndarray, p_win: np.ndarray, length: int,
                   report: ReduceReport) -> None:
    report.window_rounds += 1
    # Canonical tie order: records sharing a fingerprint are re-ordered by
    # vertex id. External sorting is not stable across different merge
    # structures, and greedy tie-breaking depends on candidate order — this
    # per-window order makes the assembly bit-identical for every
    # (m_h, m_d) choice and node count. Windows always contain whole
    # fingerprint groups (the equalization cuts at key boundaries), so the
    # canonical order is global.
    s_win = _canonical_order(s_win)
    p_win = _canonical_order(p_win)
    ctx.gpu.charge_elementwise(2 * (s_win.nbytes + p_win.nbytes))
    s_d = ctx.gpu.to_device(s_win, label="reduce-S")
    p_d = ctx.gpu.to_device(p_win, label="reduce-P")
    lower_d, upper_d = ctx.gpu.bounds_records(p_d, s_d)
    lower = ctx.gpu.to_host(lower_d)
    upper = ctx.gpu.to_host(upper_d)
    for darray in (s_d, p_d, lower_d, upper_d):
        darray.free()
    counts = upper - lower

    matched = np.nonzero(counts > 0)[0]
    if matched.size == 0:
        return
    # Expand match ranges into candidate edges in stream order, chunked so a
    # pathological repeat cannot blow host memory.
    for start, stop in _expansion_chunks(counts[matched]):
        rows = matched[start:stop]
        row_counts = counts[rows]
        sources = np.repeat(s_win[VAL_FIELD][rows].astype(np.int64), row_counts)
        range_starts = np.repeat(lower[rows], row_counts)
        base = np.repeat(np.cumsum(row_counts) - row_counts, row_counts)
        p_index = range_starts + (np.arange(sources.shape[0]) - base)
        targets = p_win[VAL_FIELD][p_index].astype(np.int64)
        if AUX_FIELD in (s_win.dtype.names or ()):
            aux_match = np.repeat(s_win[AUX_FIELD][rows], row_counts) \
                == p_win[AUX_FIELD][p_index]
            report.aux_rejected += int((~aux_match).sum())
            sources, targets = sources[aux_match], targets[aux_match]
        report.candidates += sources.shape[0]
        ctx.charge_host(sources.shape[0] * 16)
        graph.add_candidates(sources, targets, length)
