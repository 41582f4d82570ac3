"""Reduce window matching: tie-aware canonical order and expansion chunking."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reduce_phase
from repro.core.context import RunContext
from repro.core.reduce_phase import (ReduceReport, _canonical_order,
                                     _expansion_chunks, _match_windows)
from repro.extmem.records import KEY_FIELD, VAL_FIELD, make_records


def _window(keys, vals, lanes: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    vals = np.asarray(vals, dtype=np.uint32)
    # The auxiliary lane travels with its record; make it tell records apart.
    aux = (vals.astype(np.uint64) * np.uint64(7919)) if lanes == 2 else None
    return make_records(keys, vals, aux)


def _full_lexsort(window: np.ndarray) -> np.ndarray:
    return window[np.lexsort((window[VAL_FIELD], window[KEY_FIELD]))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2**32 - 1)),
                max_size=40),
       st.sampled_from([1, 2]))
def test_canonical_order_equals_full_lexsort(pairs, lanes):
    """Small key range: no ties, all ties, ties at either end all occur."""
    pairs.sort(key=lambda pair: pair[0])  # key-sorted, values in any order
    window = _window([k for k, _ in pairs], [v for _, v in pairs], lanes)
    ordered = _canonical_order(window)
    assert ordered.dtype == window.dtype
    assert ordered.tobytes() == _full_lexsort(window).tobytes()


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("keys, vals", [
    ([], []),                                        # empty
    ([5], [9]),                                      # length 1
    ([1, 2, 3, 4], [4, 3, 2, 1]),                    # no ties
    ([7, 7, 7, 7], [3, 1, 2, 0]),                    # all ties
    ([1, 1, 2, 3, 4, 4], [9, 2, 5, 5, 8, 1]),        # ties at both ends
    ([1, 2, 2, 2, 3, 3, 4], [0, 6, 4, 5, 2, 1, 0]),  # adjacent tie groups
])
def test_canonical_order_cases(keys, vals, lanes):
    window = _window(keys, vals, lanes)
    before = window.copy()
    ordered = _canonical_order(window)
    assert ordered.tobytes() == _full_lexsort(window).tobytes()
    assert window.tobytes() == before.tobytes()  # the input is never reordered


def test_canonical_order_returns_tie_free_window_untouched():
    window = _window([1, 2, 3], [3, 2, 1], 1)
    assert _canonical_order(window) is window


# -- expansion chunking --------------------------------------------------------


def _scalar_chunks(counts, cap):
    """The loop ``_expansion_chunks`` replaced, kept as the reference."""
    chunks = []
    start = 0
    while start < len(counts):
        stop, total = start, 0
        while stop < len(counts) and total + counts[stop] <= cap:
            total += counts[stop]
            stop += 1
        if stop == start:  # one suffix exceeds the cap by itself: take it alone
            stop += 1
        chunks.append((start, stop))
        start = stop
    return chunks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=30))
def test_expansion_chunks_equal_scalar_loop(counts):
    with mock.patch.object(reduce_phase, "MAX_EXPANSION", 7):
        chunks = _expansion_chunks(np.asarray(counts, dtype=np.intp))
    assert chunks == _scalar_chunks(counts, 7)


class _RecordingGraph:
    def __init__(self):
        self.calls = []

    def add_candidates(self, sources, targets, length):
        self.calls.append((sources.copy(), targets.copy(), length))


def test_match_windows_chunks_like_scalar_loop(tmp_path, laptop_config,
                                               monkeypatch):
    """A window with one suffix above the cap: same chunks, same edges."""
    # Suffix keys 10..15; prefix multiplicities 3, 2, 9 (> cap), 1, 4, 3.
    multiplicity = [3, 2, 9, 1, 4, 3]
    s_win = _window(range(10, 16), range(0, 12, 2), 1)
    p_keys = np.repeat(np.arange(10, 16), multiplicity)
    p_win = _window(p_keys, 100 + 2 * np.arange(p_keys.shape[0]), 1)

    def run(cap):
        monkeypatch.setattr(reduce_phase, "MAX_EXPANSION", cap)
        ctx = RunContext(laptop_config, workdir=tmp_path / f"cap{cap}")
        try:
            graph, report = _RecordingGraph(), ReduceReport()
            _match_windows(ctx, graph, s_win, p_win, 30, report)
            return graph.calls, report, ctx.clock.seconds("host")
        finally:
            ctx.cleanup()

    calls, report, host_seconds = run(7)
    whole, whole_report, _ = run(1 << 18)

    assert [call[0].shape[0] for call in calls] \
        == [sum(multiplicity[a:b]) for a, b in _scalar_chunks(multiplicity, 7)] \
        == [5, 9, 5, 3]
    assert len(whole) == 1
    for column in (0, 1):
        assert np.array_equal(np.concatenate([call[column] for call in calls]),
                              whole[0][column])
    assert report.candidates == whole_report.candidates == sum(multiplicity)
    # One host charge per chunk, in order: the float the scalar loop accrued.
    ctx = RunContext(laptop_config, workdir=tmp_path / "charges")
    try:
        for sources, _, _ in calls:
            ctx.charge_host(sources.shape[0] * 16)
        assert host_seconds == ctx.clock.seconds("host")
    finally:
        ctx.cleanup()
