"""VirtualGPU: capacity enforcement, transfer metering, record kernels."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import SimClock, VirtualGPU, costs, kernels
from repro.errors import (ConfigError, DeviceError, DeviceMemoryError,
                          SortContractError)
from repro.extmem.records import kv_dtype, make_records


@pytest.fixture()
def gpu() -> VirtualGPU:
    return VirtualGPU("K40", capacity_bytes=1_000_000)


class TestTransfers:
    def test_to_device_allocates_and_charges(self, gpu):
        data = np.zeros(1000, dtype=np.uint64)
        device_array = gpu.to_device(data)
        assert gpu.pool.used_bytes == data.nbytes
        assert gpu.clock.seconds("h2d") > 0
        out = gpu.to_host(device_array)
        assert np.array_equal(out, data)
        assert gpu.clock.seconds("d2h") > 0
        device_array.free()
        assert gpu.pool.used_bytes == 0

    def test_device_copy_is_independent(self, gpu):
        data = np.zeros(10, dtype=np.uint8)
        device_array = gpu.to_device(data)
        data[0] = 7
        assert device_array.array[0] == 0

    def test_oom(self, gpu):
        with pytest.raises(DeviceMemoryError):
            gpu.to_device(np.zeros(2_000_000, dtype=np.uint8))

    def test_use_after_free(self, gpu):
        device_array = gpu.to_device(np.zeros(8, dtype=np.uint8))
        device_array.free()
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            gpu.to_host(device_array)

    def test_host_array_rejected_by_kernels(self, gpu):
        with pytest.raises(ConfigError, match="DeviceArray"):
            gpu.sort_pairs(np.zeros(4, dtype=np.uint64))

    def test_context_manager_frees(self, gpu):
        with gpu.to_device(np.zeros(100, dtype=np.uint8)):
            assert gpu.pool.used_bytes == 100
        assert gpu.pool.used_bytes == 0

    def test_use_after_free_still_raises(self, gpu):
        darray = gpu.to_device(np.zeros(300, dtype=np.uint64))
        darray.free()
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            gpu.to_host(darray)
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            gpu.sort_records_device(darray)

    def test_capacity_enforced_after_free(self):
        """Freeing returns the reservation, and only the reservation."""
        gpu = VirtualGPU("K40", capacity_bytes=4096)
        darray = gpu.empty(500, np.uint64)  # 4000 bytes
        darray.free()
        gpu.empty(500, np.uint64)
        with pytest.raises(DeviceMemoryError):
            gpu.empty(500, np.uint64)

    def test_to_host_out_reuses_buffer(self, gpu):
        data = np.arange(300, dtype=np.uint64)
        darray = gpu.to_device(data)
        out = np.empty_like(data)
        result = gpu.to_host(darray, out=out)
        assert result is out
        assert np.array_equal(out, data)

    def test_to_device_copies(self, gpu):
        host = np.zeros(300, dtype=np.uint64)
        darray = gpu.to_device(host)
        host[0] = 7
        assert darray.array[0] == 0
        assert host.flags.writeable

    def test_to_host_into_read_only_array_raises_typed_error(self, gpu):
        darray = gpu.to_device(np.arange(300, dtype=np.uint64))
        frozen = np.empty(300, dtype=np.uint64)
        frozen.setflags(write=False)
        with pytest.raises(DeviceError, match="read-only"):
            gpu.to_host(darray, out=frozen)

    def test_device_memory_error_is_a_device_error(self):
        # Callers catching the base class keep catching OOM too.
        assert issubclass(DeviceMemoryError, DeviceError)

    def test_freed_device_array_retains_nothing(self, gpu, rng):
        """The model is the only memory layer: ``free()`` keeps no buffer."""
        records = make_records(rng.integers(0, 99, 2000, dtype=np.uint64),
                               np.arange(2000, dtype=np.uint32))
        on_device = gpu.to_device(records)
        sorted_d = gpu.sort_records_device(on_device)
        # The array that owns the memory, should ``.array`` ever be a view.
        backings = [weakref.ref(d.array if d.array.base is None
                                else d.array.base)
                    for d in (on_device, sorted_d)]
        run = gpu.to_host(sorted_d)
        on_device.free()
        sorted_d.free()
        del on_device, sorted_d
        assert all(ref() is None for ref in backings)
        # The merge launch's gather scratch is as large as its output.
        out = np.empty(2 * run.shape[0], dtype=run.dtype)
        tracemalloc.start()
        try:
            gpu.merge_records_device_k([run, run], out=out)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < out.nbytes
        assert gpu.pool.used_bytes == 0


class TestKernels:
    def test_sort_pairs(self, gpu, rng):
        keys = rng.integers(0, 1000, 500, dtype=np.uint64)
        values = np.arange(500, dtype=np.uint32)
        keys_d, values_d = gpu.to_device(keys), gpu.to_device(values)
        sorted_keys_d, sorted_values_d = gpu.sort_pairs(keys_d, values_d)
        assert np.array_equal(sorted_keys_d.array, np.sort(keys))
        assert np.array_equal(keys[sorted_values_d.array], sorted_keys_d.array)
        assert gpu.clock.seconds("kernel") > 0

    def test_sort_accounts_scratch(self, gpu, rng):
        """Radix sort needs ping-pong scratch: input alone fitting is not enough."""
        keys = rng.integers(0, 9, 50_000, dtype=np.uint64)  # 400 kB
        values = np.arange(50_000, dtype=np.uint32)         # 200 kB
        keys_d, values_d = gpu.to_device(keys), gpu.to_device(values)
        with pytest.raises(DeviceMemoryError):
            gpu.sort_pairs(keys_d, values_d)  # 600 kB in + 600 kB scratch > 1 MB

    def test_merge_pairs_requires_sorted(self, gpu):
        a = gpu.to_device(np.array([3, 1], dtype=np.uint64))
        b = gpu.to_device(np.array([2], dtype=np.uint64))
        from repro.errors import SortContractError
        with pytest.raises(SortContractError):
            gpu.merge_pairs(a, [], b, [])

    def test_bounds(self, gpu):
        haystack = gpu.to_device(np.array([1, 3, 3, 7], dtype=np.uint64))
        queries = gpu.to_device(np.array([3, 5], dtype=np.uint64))
        lower, upper = gpu.bounds(haystack, queries)
        assert lower.array.tolist() == [1, 3]
        assert upper.array.tolist() == [3, 3]

    def test_exclusive_scan_and_gather(self, gpu):
        values = gpu.to_device(np.array([2, 3, 4], dtype=np.int64))
        scanned = gpu.exclusive_scan(values)
        assert scanned.array.tolist() == [0, 2, 5]
        stencil = gpu.to_device(np.array([2, 0], dtype=np.int64))
        gathered = gpu.gather(scanned, stencil)
        assert gathered.array.tolist() == [5, 0]


class TestRecordKernels:
    def _records(self, rng, n=300):
        return make_records(rng.integers(0, 50, n, dtype=np.uint64),
                            np.arange(n, dtype=np.uint32))

    def test_sort_records_device(self, gpu, rng):
        records = self._records(rng)
        records_d = gpu.to_device(records)
        sorted_d = gpu.sort_records_device(records_d)
        keys = sorted_d.array["key"]
        assert np.array_equal(keys, np.sort(records["key"]))

    def test_merge_records_device(self, gpu, rng):
        a = self._records(rng, 100)
        b = self._records(rng, 60)
        a.sort(order="key")
        b.sort(order="key")
        merged = gpu.merge_records_device(a, b)
        assert np.array_equal(merged["key"],
                              np.sort(np.concatenate([a["key"], b["key"]])))
        assert gpu.pool.used_bytes == 0

    def test_bounds_records(self, gpu, rng):
        hay = self._records(rng, 200)
        hay.sort(order="key")
        queries = self._records(rng, 50)
        lower, upper = gpu.bounds_records(gpu.to_device(hay), gpu.to_device(queries))
        counts = upper.array - lower.array
        for record, count in zip(queries, counts):
            assert count == int((hay["key"] == record["key"]).sum())

    def test_missing_key_field(self, gpu):
        raw = gpu.to_device(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ConfigError, match="key field"):
            gpu.sort_records_device(raw)

    def test_merge_records_device_k(self, gpu, rng):
        runs = [self._records(rng, n) for n in (80, 50, 30, 20)]
        for run in runs:
            run.sort(order="key")
        before = gpu.clock.total_seconds
        merged = gpu.merge_records_device_k(runs)
        expected = np.sort(np.concatenate([r["key"] for r in runs]))
        assert np.array_equal(merged["key"], expected)
        assert gpu.clock.total_seconds > before
        assert gpu.pool.used_bytes == 0

    def test_merge_records_device_k_requires_sorted(self, gpu, rng):
        sorted_run = self._records(rng, 20)
        sorted_run.sort(order="key")
        unsorted = np.array(sorted_run[::-1])
        with pytest.raises(SortContractError):
            gpu.merge_records_device_k([sorted_run, unsorted])

    def test_merge_records_device_k_charges_tournament_depth(self, gpu, rng):
        """Merging 4 runs costs twice the kernel time of merging 2 runs of
        the same total size (⌈log₂ 4⌉ = 2 comparison levels)."""
        halves = [self._records(rng, 60) for _ in range(2)]
        quarters = [self._records(rng, 30) for _ in range(4)]
        for run in halves + quarters:
            run.sort(order="key")
        t0 = gpu.clock.seconds("kernel")
        gpu.merge_records_device_k(halves)
        two_way = gpu.clock.seconds("kernel") - t0
        t1 = gpu.clock.seconds("kernel")
        gpu.merge_records_device_k(quarters)
        four_way = gpu.clock.seconds("kernel") - t1
        assert four_way == pytest.approx(2 * two_way)


def _unfused_merge(gpu: VirtualGPU, parts: list[np.ndarray]) -> np.ndarray:
    """The launch spelled out call by call: upload every part, the gathered
    k-way oracle kernel, download. What the fused launch must look like to
    the model."""
    handles = [gpu.to_device(part, label="merge-way") for part in parts]
    keys = [handle.array["key"] for handle in handles]
    _, (merged,) = kernels.merge_sorted_records_k(
        keys, [(handle.array,) for handle in handles])
    itemsize = parts[0].dtype.itemsize
    gpu.clock.charge("kernel", math.ceil(math.log2(len(parts))) *
                     costs.merge_pairs_seconds(gpu.spec, merged.shape[0], 8,
                                               itemsize - 8))
    merged_d = gpu.empty(merged.shape, merged.dtype, label="merge-out")
    merged_d.array[...] = merged
    for handle in handles:
        handle.free()
    out = gpu.to_host(merged_d)
    merged_d.free()
    return out


def _model_state(gpu: VirtualGPU):
    return ({cat: gpu.clock.seconds(cat) for cat in ("kernel", "h2d", "d2h")},
            gpu.pool.peak_bytes, gpu.pool.used_bytes,
            dict(gpu.pool.counters()))


class TestFusedMergeLaunch:
    """One launch per merge window: same bytes, same model, fewer calls."""

    @given(st.lists(st.lists(st.integers(0, 6), max_size=30),
                    min_size=2, max_size=4),
           st.sampled_from([1, 2]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_unfused_sequence(self, runs_keys, lanes, with_out):
        parts = []
        for tag, keys in enumerate(runs_keys):
            keys = np.sort(np.asarray(keys, dtype=np.uint64))
            vals = np.arange(keys.shape[0], dtype=np.uint32) + np.uint32(100 * tag)
            aux = keys * np.uint64(3) + np.uint64(tag) if lanes == 2 else None
            parts.append(make_records(keys, vals, aux))
        reference_gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        expected = _unfused_merge(reference_gpu, parts)

        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        out = np.empty(expected.shape[0], dtype=kv_dtype(lanes)) \
            if with_out else None
        merged = gpu.merge_records_device_k(parts, out=out)
        assert with_out is (merged is out)
        assert merged.tobytes() == expected.tobytes()
        assert _model_state(gpu) == _model_state(reference_gpu)

        if len(parts) == 2:
            pair_gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
            pair = pair_gpu.merge_records_device(*parts)
            assert pair.tobytes() == expected.tobytes()
            assert _model_state(pair_gpu) == _model_state(reference_gpu)

    def test_mismatched_out_is_refused(self, gpu, rng):
        a = make_records(np.arange(5, dtype=np.uint64),
                         np.arange(5, dtype=np.uint32))
        for bad in (np.empty(9, dtype=a.dtype), np.empty(10, dtype=kv_dtype(2))):
            with pytest.raises(ConfigError, match="out="):
                gpu.merge_records_device(a, a, out=bad)
        assert gpu.pool.used_bytes == 0

    def test_failed_launch_leaves_the_pool_clean(self, rng):
        a = make_records(np.arange(100, dtype=np.uint64),
                         np.arange(100, dtype=np.uint32))
        # Both windows fit, the merged output on top of them does not.
        gpu = VirtualGPU("K40", capacity_bytes=3 * a.nbytes)
        with pytest.raises(DeviceMemoryError, match="merge-out"):
            gpu.merge_records_device(a, a)
        assert gpu.pool.used_bytes == 0
        assert gpu.pool.peak_bytes == 2 * a.nbytes
        with pytest.raises(SortContractError):
            gpu.merge_records_device_k([a, a[::-1].copy()])
        assert gpu.pool.used_bytes == 0
        with pytest.raises(SortContractError, match="dtypes"):
            gpu.merge_records_device_k(
                [a[:10], np.zeros(3, dtype=kv_dtype(2))])
        assert gpu.pool.used_bytes == 0
        # ... and the device is as usable as before.
        assert gpu.merge_records_device(a[:50], a[50:]).tobytes() == a.tobytes()


class TestTimingModel:
    def test_shared_clock(self):
        clock = SimClock()
        gpu = VirtualGPU("K40", capacity_bytes=10_000, clock=clock)
        gpu.to_device(np.zeros(100, dtype=np.uint8))
        assert clock.seconds("h2d") > 0

    def test_faster_gpu_sorts_faster(self, rng):
        keys = rng.integers(0, 99, 1000, dtype=np.uint64)
        times = {}
        for name in ("K40", "V100"):
            gpu = VirtualGPU(name, capacity_bytes=10**6)
            keys_d = gpu.to_device(keys)
            gpu.sort_pairs(keys_d)
            times[name] = gpu.clock.seconds("kernel")
        assert times["V100"] < times["K40"]

    def test_default_capacity_is_spec_memory(self):
        gpu = VirtualGPU("K20X")
        assert gpu.pool.capacity_bytes == gpu.spec.mem_bytes
