"""Configuration: memory presets, scaling, block resolution, validation."""

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.errors import ConfigError
from repro.units import parse_size


class TestMemoryConfig:
    def test_presets_match_paper_testbeds(self):
        qb2 = MemoryConfig.preset("qb2")
        assert qb2.host_bytes == parse_size("128 GB")
        assert qb2.device_bytes == parse_size("12 GB")
        supermic = MemoryConfig.preset("supermic")
        assert supermic.host_bytes == parse_size("64 GB")
        assert supermic.device_bytes == parse_size("6 GB")

    def test_preset_unknown(self):
        with pytest.raises(ConfigError):
            MemoryConfig.preset("dgx")

    def test_scaled_preserves_ratio(self):
        base = MemoryConfig.preset("qb2")
        scaled = base.scaled(1e-4)
        assert scaled.host_bytes == int(base.host_bytes * 1e-4)
        assert scaled.device_bytes == int(base.device_bytes * 1e-4)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            MemoryConfig.preset("qb2").scaled(0)

    def test_pairs_derivation(self):
        memory = MemoryConfig(1000, 100)  # 85 % of each budget
        assert memory.host_pairs(10) == 85
        assert memory.device_pairs(10) == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryConfig(0, 1)
        with pytest.raises(ConfigError):
            MemoryConfig(100, 200)  # device > host

    def test_paper_pass_count_calibration(self):
        """The calibration DESIGN.md relies on: a 2.5 G-record partition of
        20-byte records sorts in one host block at 128 GB but not at 64 GB."""
        from repro.extmem.sort import HOST_SORT_FOOTPRINT

        partition_records = 2 * 1_247_518_392
        for preset, fits in (("qb2", True), ("supermic", False)):
            memory = MemoryConfig.preset(preset)
            host_block = memory.host_pairs(20) // HOST_SORT_FOOTPRINT
            assert (host_block >= partition_records) is fits


class TestAssemblyConfig:
    def test_defaults_valid(self):
        config = AssemblyConfig()
        assert config.min_overlap >= 1
        assert config.fingerprint_lanes in (1, 2)

    @pytest.mark.parametrize("kwargs", [
        {"min_overlap": 0},
        {"fingerprint_lanes": 3},
        {"host_block_pairs": -5},
        {"merge_fanout": 0},
        {"merge_fanout": 1},
        {"merge_fanout": -2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            AssemblyConfig(**kwargs)

    def test_merge_fanout_defaults_pairwise(self):
        assert AssemblyConfig().merge_fanout == 2

    def test_resolved_blocks_defaults_from_memory(self):
        config = AssemblyConfig(memory=MemoryConfig(10_000, 1_000))
        m_h, m_d = config.resolved_blocks(10)
        assert m_h == 850 and m_d == 85

    def test_resolved_blocks_overrides(self):
        config = AssemblyConfig(host_block_pairs=1000, device_block_pairs=100)
        assert config.resolved_blocks(20) == (1000, 100)

    def test_device_block_clamped_to_host(self):
        config = AssemblyConfig(host_block_pairs=10, device_block_pairs=100)
        m_h, m_d = config.resolved_blocks(20)
        assert m_d <= m_h
