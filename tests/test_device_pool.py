"""BufferPool substrate: recycling is invisible to the simulation model.

The buffer pool recycles the real numpy storage behind device arrays; the
contract is that nothing *modeled* may notice — metered peaks, simulated
charges, capacity enforcement and every artifact byte must be identical
with pooling on or off. These tests pin the free-list mechanics, the
``to_host(out=)`` rules, and run the pipeline's
map + sort phases with pooling enabled against a pooling-disabled baseline.
"""

import hashlib

import numpy as np
import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.core.context import RunContext
from repro.core.map_phase import run_map
from repro.core.sort_phase import run_sort
from repro.device import VirtualGPU
from repro.device.memory import BufferPool
from repro.errors import ConfigError, DeviceError, DeviceMemoryError
from repro.extmem.records import make_records
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore


class TestBufferPoolFreeList:
    def test_take_rounds_to_size_class(self):
        pool = BufferPool(1 << 20)
        view, raw = pool.take(100, np.uint64)
        assert view.shape == (100,) and view.dtype == np.uint64
        assert raw is not None and raw.nbytes == 1024  # pow2 class ≥ 800
        pool.give(raw)
        _, raw2 = pool.take((64,), np.uint64)  # 512-byte class: no match
        assert raw2 is not raw
        counters = pool.counters()
        assert counters["bufpool_misses"] == 2
        assert counters["bufpool_recycled"] == 1

    def test_recycled_buffer_is_reissued(self):
        pool = BufferPool(1 << 20)
        _, raw = pool.take(100, np.uint64)
        pool.give(raw)
        view, raw2 = pool.take(128, np.uint64)  # same 1024-byte class
        assert raw2 is raw
        assert pool.counters()["bufpool_hits"] == 1

    def test_retention_cap_drops_excess(self):
        pool = BufferPool(max_bytes=1024)
        _, a = pool.take(100, np.uint64)
        _, b = pool.take(100, np.uint64)
        pool.give(a)
        pool.give(b)  # second 1024-byte buffer exceeds the cap
        assert pool.held_bytes == 1024
        assert pool.counters()["bufpool_dropped"] == 1

    def test_give_none_is_noop(self):
        pool = BufferPool(1 << 20)
        pool.give(None)
        assert pool.held_bytes == 0

    def test_disabled_pool_returns_fresh_arrays(self):
        pool = BufferPool(1 << 20, enabled=False)
        view, raw = pool.take(100, np.uint64)
        assert raw is None and view.flags.owndata

    def test_adoptable_refuses_views_and_readonly(self):
        pool = BufferPool(1 << 20)
        owner = np.zeros(1000, dtype=np.uint64)
        assert pool.adoptable(owner[10:]) is None, "view adopted"
        poisoned = np.zeros(1000, dtype=np.uint64)
        poisoned.setflags(write=False)
        assert pool.adoptable(poisoned) is None, "read-only array adopted"
        assert pool.adoptable(np.zeros(4, dtype=np.uint8)) is None, \
            "sub-class-size array adopted"
        assert pool.adoptable(owner) is not None

    def test_clear_empties_free_lists(self):
        pool = BufferPool(1 << 20)
        _, raw = pool.take(100, np.uint64)
        pool.give(raw)
        pool.clear()
        assert pool.held_bytes == 0
        _, raw2 = pool.take(100, np.uint64)
        assert raw2 is not raw


class TestGiveSizeClassRounding:
    """`give` classification: the class a raw lands in must guarantee every
    later `take` of that class fits inside the raw's real extent."""

    def test_exact_power_of_two_keeps_its_own_class(self):
        pool = BufferPool(1 << 20)
        _, raw = pool.take(128, np.uint64)  # exactly 1024 bytes
        assert raw.nbytes == 1024
        pool.give(raw)
        _, raw2 = pool.take(128, np.uint64)  # 1024-byte class again
        assert raw2 is raw
        counters = pool.counters()
        assert counters["bufpool_hits"] == 1
        assert counters["bufpool_misses"] == 1
        assert counters["bufpool_recycled"] == 1

    def test_just_under_power_of_two_rounds_down(self):
        pool = BufferPool(1 << 20)
        raw = np.empty(1023, dtype=np.uint8)  # foreign, non-pow2 extent
        pool.give(raw)
        assert pool.held_bytes == 1023
        _, hit = pool.take(64, np.uint64)  # 512-byte class
        assert hit is raw, "1023-byte raw must serve the 512 class"
        _, miss = pool.take(128, np.uint64)  # 1024-byte class: never this raw
        assert miss is not raw
        counters = pool.counters()
        assert counters["bufpool_hits"] == 1
        assert counters["bufpool_misses"] == 1

    def test_just_over_power_of_two_rounds_down_to_that_class(self):
        pool = BufferPool(1 << 20)
        raw = np.empty(1025, dtype=np.uint8)
        pool.give(raw)
        _, hit = pool.take(128, np.uint64)  # 1024-byte class fits in 1025
        assert hit is raw
        assert pool.counters()["bufpool_hits"] == 1

    def test_sub_minimum_raws_are_dropped(self):
        pool = BufferPool(1 << 20)
        for nbytes in (0, 1, 255):
            pool.give(np.empty(nbytes, dtype=np.uint8))
        assert pool.held_bytes == 0
        _, raw = pool.take(16, np.uint8)  # 256-byte class: a fresh miss
        assert raw.nbytes == 256
        counters = pool.counters()
        assert counters["bufpool_misses"] == 1
        assert counters["bufpool_hits"] == 0
        assert counters["bufpool_recycled"] == 0

    def test_read_only_raw_is_refused(self):
        """A frozen raw must never re-enter the free list."""
        pool = BufferPool(1 << 20)
        _, raw = pool.take(100, np.uint64)
        raw.setflags(write=False)
        pool.give(raw)
        assert pool.held_bytes == 0
        assert pool.counters()["bufpool_recycled"] == 0
        _, raw2 = pool.take(100, np.uint64)
        assert raw2 is not raw
        assert pool.counters()["bufpool_misses"] == 2


def _device_workout(gpu: VirtualGPU, rng) -> np.ndarray:
    """A transfer + sort + merge sequence; returns the merged keys."""
    runs = []
    for n in (300, 200):
        records = make_records(rng.integers(0, 99, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32))
        on_device = gpu.to_device(records)
        sorted_d = gpu.sort_records_device(on_device)
        runs.append(gpu.to_host(sorted_d))
        on_device.free()
        sorted_d.free()
    return gpu.merge_records_device_k(runs)["key"]


class TestModelInvariance:
    def test_peak_device_bytes_identical_pooling_on_off(self):
        """The MemoryPool model must not see the substrate at all."""
        results = {}
        for enabled in (True, False):
            gpu = VirtualGPU("K40", capacity_bytes=1 << 20,
                             buffers=BufferPool(1 << 20, enabled=enabled))
            rng = np.random.default_rng(7)
            keys = _device_workout(gpu, rng)
            results[enabled] = (gpu.pool.peak_bytes, gpu.pool.used_bytes,
                                dict(gpu.pool.counters()),
                                gpu.clock.total_seconds, keys)
        on, off = results[True], results[False]
        assert on[0] == off[0], "peak device bytes differ"
        assert on[1] == off[1] == 0, "leaked device reservations"
        assert on[2] == off[2], "allocation counts differ"
        assert on[3] == off[3], "simulated charges differ"
        assert np.array_equal(on[4], off[4]), "kernel results differ"

    def test_use_after_free_still_raises(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        darray = gpu.to_device(np.zeros(300, dtype=np.uint64))
        darray.free()
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            gpu.to_host(darray)
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            gpu.sort_records_device(darray)

    def test_freed_backing_is_recycled(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        darray = gpu.empty(300, np.uint64)
        darray.free()
        assert gpu.buffers.counters()["bufpool_recycled"] >= 1

    def test_capacity_enforced_even_on_pool_hit(self):
        """A recycled buffer must still pay the modeled reservation."""
        gpu = VirtualGPU("K40", capacity_bytes=4096)
        darray = gpu.empty(500, np.uint64)  # 4000 bytes
        darray.free()
        gpu.empty(500, np.uint64)  # recycled backing, fresh reservation
        with pytest.raises(DeviceMemoryError):
            gpu.empty(500, np.uint64)


class TestTransfers:
    def test_to_host_out_reuses_buffer(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        data = np.arange(300, dtype=np.uint64)
        darray = gpu.to_device(data)
        out = np.empty_like(data)
        result = gpu.to_host(darray, out=out)
        assert result is out
        assert np.array_equal(out, data)

    def test_to_device_copies(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        host = np.zeros(300, dtype=np.uint64)
        darray = gpu.to_device(host)
        host[0] = 7
        assert darray.array[0] == 0
        assert host.flags.writeable

    def test_to_host_into_read_only_array_raises_typed_error(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        darray = gpu.to_device(np.arange(300, dtype=np.uint64))
        frozen = np.empty(300, dtype=np.uint64)
        frozen.setflags(write=False)
        with pytest.raises(DeviceError, match="read-only"):
            gpu.to_host(darray, out=frozen)

    def test_device_memory_error_is_a_device_error(self):
        # Callers catching the base class keep catching OOM too.
        assert issubclass(DeviceMemoryError, DeviceError)


def _map_sort_hashes(md, workdir, *, buffer_pool: bool) -> dict[str, str]:
    config = AssemblyConfig(min_overlap=25,
                            memory=MemoryConfig(64 << 20, 1 << 20),
                            host_block_pairs=500, device_block_pairs=128,
                            buffer_pool=buffer_pool)
    ctx = RunContext(config, workdir=workdir)
    try:
        with PackedReadStore.open(md.store_path) as store:
            partitions, _ = run_map(ctx, store)
            run_sort(ctx, partitions)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((ctx.workdir / "partitions").iterdir())
                if p.is_file()}
    finally:
        ctx.cleanup()


def test_pooling_byte_identical_to_unpooled(tmp_path):
    """Pooled artifacts match the unpooled baseline."""
    md, _ = tiny_dataset(tmp_path / "data", genome_length=2000, read_length=50,
                         coverage=20.0, min_overlap=25, seed=3)
    baseline = _map_sort_hashes(md, tmp_path / "base", buffer_pool=False)
    pooled = _map_sort_hashes(md, tmp_path / "pooled", buffer_pool=True)
    assert pooled == baseline, "pooled artifacts diverged"


def test_pool_knobs_excluded_from_checkpoint_fingerprint():
    from repro.core.checkpoint import config_fingerprint

    pooled = AssemblyConfig(min_overlap=25, buffer_pool=True)
    bare = AssemblyConfig(min_overlap=25, buffer_pool=False,
                          pool_max_bytes=1 << 20)
    assert config_fingerprint(pooled, "src") == config_fingerprint(bare, "src")
