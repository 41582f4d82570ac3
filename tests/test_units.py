"""Units: size and duration parsing/formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.units import (format_duration, format_size, parse_duration,
                         parse_size)


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("4096") == 4096
        assert parse_size(4096) == 4096
        assert parse_size(4096.7) == 4096

    @pytest.mark.parametrize("text,expected", [
        ("1 kB", 10**3),
        ("12 GB", 12 * 10**9),
        ("6GiB", 6 * 2**30),
        ("0.5 TB", 5 * 10**11),
        ("128 gb", 128 * 10**9),
        ("85MB", 85 * 10**6),
    ])
    def test_suffixes(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "GB", "12 XB", "twelve GB"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_size(bad)


class TestFormatSize:
    @pytest.mark.parametrize("nbytes,expected", [
        (0, "0 B"),
        (999, "999 B"),
        (12_000_000_000, "12.00 GB"),
        (398_000_000_000, "398.00 GB"),
        (1_500, "1.50 kB"),
    ])
    def test_rendering(self, nbytes, expected):
        assert format_size(nbytes) == expected

    def test_negative(self):
        assert format_size(-2_000_000) == "-2.00 MB"

    @given(st.integers(min_value=1, max_value=10**14))
    def test_roundtrip_within_precision(self, nbytes):
        rendered = format_size(nbytes, precision=6)
        parsed = parse_size(rendered)
        assert abs(parsed - nbytes) <= max(1, nbytes * 1e-5)


class TestDurations:
    @pytest.mark.parametrize("text,expected", [
        ("25s", 25.0),
        ("9m 36s", 576.0),
        ("2h 23m 55s", 8635.0),
        ("16h 21m 09s", 58869.0),
        ("1h", 3600.0),
        ("90", 90.0),
    ])
    def test_parse(self, text, expected):
        assert parse_duration(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_duration("soon")

    @pytest.mark.parametrize("seconds,expected", [
        (25, "25s"),
        (576, "9m 36s"),
        (8635, "2h 23m 55s"),
        (58869, "16h 21m 09s"),
        (0.25, "0.25s"),
    ])
    def test_format(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_format_negative(self):
        assert format_duration(-90) == "-1m 30s"

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_whole_seconds(self, seconds):
        assert parse_duration(format_duration(seconds)) == seconds
