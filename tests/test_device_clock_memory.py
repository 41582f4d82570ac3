"""SimClock and MemoryPool."""

import pytest
from hypothesis import given, strategies as st

from repro.device import MemoryPool, SimClock
from repro.errors import ConfigError, DeviceMemoryError, ReproError


class TestSimClock:
    def test_accumulates_by_category(self):
        clock = SimClock()
        clock.charge("kernel", 1.0)
        clock.charge("kernel", 0.5)
        clock.charge("disk_read", 2.0)
        assert clock.seconds("kernel") == 1.5
        assert clock.total_seconds == 3.5

    def test_unknown_category(self):
        with pytest.raises(ConfigError):
            SimClock().charge("gpu_magic", 1.0)
        with pytest.raises(ConfigError):
            SimClock().seconds("gpu_magic")

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            SimClock().charge("kernel", -1.0)

    @given(st.floats(0, 1e6), st.lists(st.floats(0, 1e6), max_size=64))
    def test_charge_many_is_repeated_charge(self, start, charges):
        """One accumulate pass leaves the float the loop of charges does."""
        one, many = SimClock(), SimClock()
        for clock in (one, many):
            clock.charge("kernel", start)
        for seconds in charges:
            one.charge("kernel", seconds)
        many.charge_many("kernel", charges)
        assert many.seconds("kernel").hex() == one.seconds("kernel").hex()

    def test_charge_many_rejects_a_negative_and_charges_nothing(self):
        clock = SimClock()
        with pytest.raises(ConfigError):
            clock.charge_many("kernel", [1.0, -1.0])
        assert clock.seconds("kernel") == 0.0

    def test_advance_to_takes_maximum(self):
        slow, fast = SimClock(), SimClock()
        slow.charge("disk_read", 10.0)
        fast.charge("kernel", 1.0)
        fast.advance_to(slow)
        assert fast.seconds("disk_read") == 10.0
        assert fast.seconds("kernel") == 1.0
        slow.advance_to(fast)
        assert slow.seconds("kernel") == 1.0

    def test_meter_protocol(self):
        clock = SimClock()
        clock.charge("h2d", 2.0)
        counters = clock.counters()
        assert counters["sim_seconds"] == 2.0
        assert counters["sim_h2d_seconds"] == 2.0
        assert clock.peaks() == {}


class TestMemoryPool:
    def test_alloc_free_cycle(self):
        pool = MemoryPool("device", 100, DeviceMemoryError)
        allocation = pool.alloc(60)
        assert pool.used_bytes == 60 and pool.free_bytes == 40
        allocation.free()
        assert pool.used_bytes == 0
        allocation.free()  # idempotent
        assert pool.used_bytes == 0

    def test_capacity_enforced_with_specific_error(self):
        pool = MemoryPool("device", 100, DeviceMemoryError)
        pool.alloc(80)
        with pytest.raises(DeviceMemoryError, match="device pool exhausted"):
            pool.alloc(21)

    def test_oom_error_is_also_memoryerror(self):
        pool = MemoryPool("device", 10, DeviceMemoryError)
        with pytest.raises(MemoryError):
            pool.alloc(11)

    def test_peaks_and_reset(self):
        pool = MemoryPool("host", 1000, ReproError)
        a = pool.alloc(400)
        b = pool.alloc(300)
        b.free()
        assert pool.peak_bytes == 700
        pool.reset_peaks()
        assert pool.peak_bytes == 400  # resets to current, not zero
        assert pool.lifetime_peak_bytes == 700
        a.free()

    def test_context_manager(self):
        pool = MemoryPool("host", 100, ReproError)
        with pool.alloc(50):
            assert pool.used_bytes == 50
        assert pool.used_bytes == 0

    def test_meter_protocol(self):
        pool = MemoryPool("device", 100, ReproError)
        pool.alloc(10)
        assert pool.peaks() == {"device_bytes": 10.0}
        assert pool.counters()["device_allocs"] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryPool("x", 0, ReproError)
        pool = MemoryPool("x", 10, ReproError)
        with pytest.raises(ConfigError):
            pool.alloc(-1)
