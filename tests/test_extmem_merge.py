"""Algorithm 1: window-equalized merging (fanout-k; pairwise is ``[a, b]``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.kernels import merge_sorted_records_k
from repro.errors import ConfigError, SortContractError
from repro.extmem import (HeldRun, RunReader, RunWriter, merge_in_memory_k,
                          merge_streams_k)
from repro.extmem.records import kv_dtype, make_records


def _run(keys) -> np.ndarray:
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    return make_records(keys, np.arange(keys.shape[0], dtype=np.uint32))


def _land(merged: np.ndarray, out) -> np.ndarray:
    """The executor contract: the merged run goes into ``out`` when given."""
    if out is None:
        return merged
    out[...] = merged
    return out


def _host_merge(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    from repro.device.kernels import merge_sorted_records

    _, (merged,) = merge_sorted_records(a["key"], (a,), b["key"], (b,))
    return _land(merged, out)


def _host_merge_k(parts, out=None) -> np.ndarray:
    _, (merged,) = merge_sorted_records_k(
        [part["key"] for part in parts], [(part,) for part in parts])
    return _land(merged, out)


sorted_keys = st.lists(st.integers(0, 50), min_size=0, max_size=120)


class TestMergeInMemory:
    @given(sorted_keys, sorted_keys, st.integers(1, 40))
    @settings(max_examples=80)
    def test_multiset_and_order(self, a_keys, b_keys, window):
        a, b = _run(a_keys), _run(b_keys)
        merged = merge_in_memory_k([a, b], window_records=window,
                                   merge_fn_k=_host_merge_k)
        expected = np.sort(np.concatenate([a["key"], b["key"]]))
        assert np.array_equal(merged["key"], expected)
        # values form the same multiset (no record lost or duplicated)
        assert sorted(merged["val"].tolist()) \
            == sorted(a["val"].tolist() + b["val"].tolist())

    def test_window_one_still_correct(self):
        """Degenerate windows force the equalization path constantly."""
        a, b = _run([1, 1, 1, 2, 5]), _run([1, 3, 3, 9])
        merged = merge_in_memory_k([a, b], window_records=1,
                                   merge_fn_k=_host_merge_k)
        assert merged["key"].tolist() == [1, 1, 1, 1, 2, 3, 3, 5, 9]

    def test_pass_through_fast_path(self):
        """Totally ordered windows are copied without calling the executor."""
        calls = []

        def spy(parts, out=None):
            calls.append([part.shape[0] for part in parts])
            return _host_merge_k(parts, out)

        a, b = _run([1, 2, 3, 4]), _run([10, 11, 12, 13])
        merged = merge_in_memory_k([a, b], window_records=4, merge_fn_k=spy)
        assert merged["key"].tolist() == [1, 2, 3, 4, 10, 11, 12, 13]
        assert calls == []

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            merge_in_memory_k([_run([1]), _run([2])], window_records=0,
                              merge_fn_k=_host_merge_k)
        with pytest.raises(ConfigError):
            merge_streams_k([HeldRun("run", _run([1]))], lambda _: None,
                            window_records=0, merge_fn_k=_host_merge_k)

    def test_empty_inputs(self):
        merged = merge_in_memory_k([_run([]), _run([])], window_records=4,
                                   merge_fn_k=_host_merge_k)
        assert merged.shape[0] == 0
        one_sided = merge_in_memory_k([_run([1, 2]), _run([])],
                                      window_records=4,
                                      merge_fn_k=_host_merge_k)
        assert one_sided["key"].tolist() == [1, 2]


class TestMergeStreamsK:
    @given(st.lists(sorted_keys, min_size=1, max_size=6), st.integers(1, 40))
    @settings(max_examples=80)
    def test_multiset_and_order(self, runs_keys, window):
        runs = [_run(keys) for keys in runs_keys]
        merged = merge_in_memory_k(runs, window_records=window,
                                   merge_fn_k=_host_merge_k)
        expected = np.sort(np.concatenate([r["key"] for r in runs]))
        assert np.array_equal(merged["key"], expected)
        assert sorted(merged["val"].tolist()) \
            == sorted(v for r in runs for v in r["val"].tolist())

    @given(sorted_keys, sorted_keys, st.integers(1, 40))
    @settings(max_examples=40)
    def test_k2_matches_pairwise(self, a_keys, b_keys, window):
        """Windowed Algorithm 1 at k = 2 against one plain pairwise merge."""
        a, b = _run(a_keys), _run(b_keys)
        pairwise = _host_merge(a, b)
        kway = merge_in_memory_k([a, b], window_records=window,
                                 merge_fn_k=_host_merge_k)
        assert np.array_equal(pairwise["key"], kway["key"])

    def test_pass_through_fast_path(self):
        """Totally ordered windows are copied without calling any executor."""
        calls = []

        def spy(parts, out=None):
            calls.append([p.shape[0] for p in parts])
            return _host_merge(parts[0], parts[1], out)

        runs = [_run([1, 2]), _run([10, 11]), _run([20, 21])]
        merged = merge_in_memory_k(runs, window_records=4, merge_fn_k=spy)
        assert merged["key"].tolist() == [1, 2, 10, 11, 20, 21]
        assert calls == []

    def test_merge_fn_k_receives_equalized_windows(self):
        """Interleaved runs route through the k-ary executor, bounded by
        k windows, and every handed part stops at the smallest tail key."""
        seen = []

        def gathered(parts, out=None):
            seen.append(len(parts))
            merged = parts[0]
            for part in parts[1:]:
                merged = _host_merge(merged, part)
            return _land(merged, out)

        runs = [_run([1, 4, 7]), _run([2, 5, 8]), _run([3, 6, 9])]
        merged = merge_in_memory_k(runs, window_records=2, merge_fn_k=gathered)
        assert merged["key"].tolist() == list(range(1, 10))
        assert seen and all(n <= 3 for n in seen)

    def test_single_and_empty_sources(self):
        only = merge_in_memory_k([_run([3, 1])], window_records=4,
                                 merge_fn_k=_host_merge_k)
        assert only["key"].tolist() == [1, 3]
        padded = merge_in_memory_k([_run([]), _run([2, 4]), _run([])],
                                   window_records=4, merge_fn_k=_host_merge_k)
        assert padded["key"].tolist() == [2, 4]
        with pytest.raises(ConfigError):
            merge_in_memory_k([], window_records=4, merge_fn_k=_host_merge_k)

    def test_requires_an_executor(self):
        with pytest.raises(TypeError, match="merge_fn_k"):
            merge_streams_k([HeldRun("run", _run([1]))], lambda _: None,
                            window_records=4)

    def test_no_sources_emits_nothing(self):
        assert merge_streams_k([], lambda _: None, window_records=4,
                               merge_fn_k=_host_merge_k) == 0


def _tagged_run(keys, tag: int) -> np.ndarray:
    """A sorted run whose values name the run and the position, so the
    order of equal keys is visible in the output bytes."""
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    return make_records(
        keys, np.arange(keys.shape[0], dtype=np.uint32) + np.uint32(1000 * tag))


def _both_window_kinds(runs, window):
    """Algorithm 1 over view windows and over stream windows of the same
    runs: ``(merged bytes, part lengths the executor saw)`` for each."""
    results = []
    for in_memory in (True, False):
        seen = []

        def executor(parts, out=None):
            seen.append([part.shape[0] for part in parts])
            return _host_merge_k(parts, out)

        if in_memory:
            merged = merge_in_memory_k(runs, window_records=window,
                                       merge_fn_k=executor)
        else:
            chunks = [runs[0][:0]]
            merge_streams_k([HeldRun(f"run{i}", run)
                             for i, run in enumerate(runs)], chunks.append,
                            window_records=window, merge_fn_k=executor)
            merged = np.concatenate(chunks)
        results.append((merged.tobytes(), seen))
    return results


class TestViewWindows:
    """In-memory runs are windowed as views, streams through ping-pong
    buffers: one loop, so the same schedule and the same bytes."""

    @given(st.lists(st.lists(st.integers(0, 12), max_size=40),
                    min_size=2, max_size=4),
           st.sampled_from([1, 3, 64]))
    @settings(max_examples=120, deadline=None)
    def test_equals_stream_windows(self, runs_keys, window):
        runs = [_tagged_run(keys, tag) for tag, keys in enumerate(runs_keys)]
        views, streams = _both_window_kinds(runs, window)
        assert views[0] == streams[0], "emitted bytes differ"
        assert views[1] == streams[1], "executor saw different windows"

    def test_equal_keys_straddling_a_window_boundary(self):
        """A fingerprint repeated past the window edge in every run."""
        runs = [_tagged_run([1, 5, 5, 5, 5, 5, 9], 0),
                _tagged_run([5, 5, 5, 5, 6], 1),
                _tagged_run([0, 5, 5, 5, 5, 5, 5], 2)]
        views, streams = _both_window_kinds(runs, 3)
        assert views == streams
        assert views[1], "the executor was never reached"
        merged = np.frombuffer(views[0], dtype=runs[0].dtype)
        assert np.array_equal(
            merged["key"], np.sort(np.concatenate([r["key"] for r in runs])))

    def test_output_is_independent_of_the_runs(self):
        """Pass-through and survivor windows are copied, never aliased."""
        runs = [_tagged_run([1, 2], 0), _tagged_run([10, 11], 1)]
        merged = merge_in_memory_k(runs, window_records=4,
                                   merge_fn_k=_host_merge_k)
        assert not any(np.shares_memory(merged, run) for run in runs)

    def test_lands_in_out(self):
        runs = [_tagged_run([1, 4, 7], 0), _tagged_run([2, 4, 8], 1)]
        out = np.empty(6, dtype=runs[0].dtype)
        merged = merge_in_memory_k(runs, window_records=2,
                                   merge_fn_k=_host_merge_k, out=out)
        assert merged is out
        assert out["key"].tolist() == [1, 2, 4, 4, 7, 8]
        assert out["val"].tolist() == [0, 1000, 1, 1001, 2, 1002]
        with pytest.raises(ConfigError, match="out="):
            merge_in_memory_k(runs, window_records=2, merge_fn_k=_host_merge_k,
                              out=np.empty(5, dtype=runs[0].dtype))

    def test_unsorted_run_rejected(self):
        good = _tagged_run([1, 2, 3], 0)
        bad = make_records(np.array([5, 4, 9], dtype=np.uint64),
                           np.zeros(3, dtype=np.uint32))
        with pytest.raises(SortContractError, match="merge input 1"):
            merge_in_memory_k([good, bad], window_records=2,
                              merge_fn_k=_host_merge_k)


class TestMergeRunsK:
    def test_on_disk(self, tmp_path, rng):
        dtype = kv_dtype(1)
        runs = [_run(rng.integers(0, 1000, n)) for n in (400, 250, 150, 90)]
        for index, records in enumerate(runs):
            with RunWriter(tmp_path / f"run{index}", dtype) as writer:
                writer.append(records)
        readers = [RunReader(tmp_path / f"run{index}", dtype)
                   for index in range(len(runs))]
        try:
            with RunWriter(tmp_path / "merged", dtype) as writer:
                emitted = merge_streams_k(readers, writer.append,
                                          window_records=48,
                                          merge_fn_k=_host_merge_k)
        finally:
            for reader in readers:
                reader.close()
        assert emitted == sum(r.shape[0] for r in runs)
        with RunReader(tmp_path / "merged", dtype) as reader:
            merged = reader.read_all()
        expected = np.sort(np.concatenate([r["key"] for r in runs]))
        assert np.array_equal(merged["key"], expected)


class TestMergeRuns:
    def test_on_disk(self, tmp_path, rng):
        dtype = kv_dtype(1)
        a = _run(rng.integers(0, 1000, 500))
        b = _run(rng.integers(0, 1000, 300))
        for name, records in (("a", a), ("b", b)):
            with RunWriter(tmp_path / name, dtype) as writer:
                writer.append(records)
        with RunReader(tmp_path / "a", dtype) as reader_a, \
                RunReader(tmp_path / "b", dtype) as reader_b, \
                RunWriter(tmp_path / "c", dtype) as writer:
            emitted = merge_streams_k([reader_a, reader_b], writer.append,
                                      window_records=64,
                                      merge_fn_k=_host_merge_k)
        assert emitted == 800
        with RunReader(tmp_path / "c", dtype) as reader:
            merged = reader.read_all()
        assert np.array_equal(merged["key"],
                              np.sort(np.concatenate([a["key"], b["key"]])))
