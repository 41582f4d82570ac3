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
disk charge (:mod:`repro.core.sort_phase`).

Each window pair goes to the device, where vectorized lower/upper bounds of
every suffix fingerprint in the prefix window yield per-suffix match counts
(``C = U − L``); matches expand into candidate edges
``(suffix vertex → prefix vertex, l)`` which the host-resident
:class:`~repro.graph.GreedyStringGraph` filters through its out-degree
bit-vector. With two fingerprint lanes, the auxiliary lane must also agree
— the paper's 128-bit false-positive guard.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from ..device.kernels import copy_records, raw_view
from ..extmem import PartitionStore, RunReader
from ..extmem.partitions import SIDES
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
    per_length_edges: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        """The report's JSON form (ledger state and cache meta alike)."""
        return asdict(self)

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
    _, m_d = ctx.config.resolved_blocks(partitions.dtype.itemsize)
    window = max(1, m_d // REDUCE_WINDOW_DIVISOR)
    for length in sorted(partitions.lengths() if lengths is None else lengths,
                         reverse=True):
        s_path = partitions.path("S", length, sorted_run=True)
        p_path = partitions.path("P", length, sorted_run=True)
        if not (s_path.exists() and p_path.exists()):
            continue
        edges_before = graph.n_edges
        held = sum(partitions.holds(side, length) for side in SIDES)
        ctx.events.bump("sorted_runs_held", held)
        ctx.events.bump("sorted_runs_from_disk", len(SIDES) - held)
        with ctx.tracer.span("reduce:partition", track="pipeline", det=True,
                             length=length) as span:
            with partitions.open_run("S", length, sorted_run=True) as suffixes, \
                    partitions.open_run("P", length, sorted_run=True) as prefixes:
                reduce_partition(ctx, graph, suffixes, prefixes, length, window,
                                 report)
            span.note(edges=(graph.n_edges - edges_before) // 2, held=held)
        report.partitions_processed += 1
        report.per_length_edges[length] = (graph.n_edges - edges_before) // 2
    report.edges_added = graph.n_edges
    return graph, report


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

    def refill(buf: np.ndarray, reader: RunReader, target: int) -> np.ndarray:
        if buf.shape[0] >= target or reader.exhausted:
            return buf
        extra = reader.read(target - buf.shape[0])
        if buf.shape[0] == 0:
            return extra
        # Joined as bytes: numpy concatenates a packed dtype field by field.
        return np.concatenate([raw_view(buf), raw_view(extra)]).view(buf.dtype)

    target = window
    while True:
        s_buf = refill(s_buf, suffixes, target)
        p_buf = refill(p_buf, prefixes, target)
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
