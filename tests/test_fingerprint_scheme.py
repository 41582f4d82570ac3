"""FingerprintScheme: lane packing and record widths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.fingerprint import FingerprintScheme
from repro.fingerprint.scheme import pack_pair
from repro.seq.alphabet import encode


class TestPacking:
    def test_pack_pair(self):
        assert int(pack_pair(1, 2)) == (1 << 32) | 2
        packed = pack_pair(np.array([2**30], dtype=np.uint64),
                           np.array([7], dtype=np.uint64))
        assert int(packed[0]) == (2**30 << 32) | 7

    def test_keys_fit_uint64(self):
        top = pack_pair(2**31 - 1, 2**31 - 1)
        assert int(top) < 2**63


class TestScheme:
    def test_record_widths_match_design(self):
        assert FingerprintScheme(lanes=1).record_nbytes == 12
        assert FingerprintScheme(lanes=2).record_nbytes == 20  # paper width

    def test_lane_validation(self):
        with pytest.raises(ConfigError):
            FingerprintScheme(lanes=3)

    def test_hash_specs_distinct(self):
        scheme = FingerprintScheme(lanes=2)
        assert len(set(scheme.hash_specs)) == 4

    def test_seed_changes_parameters(self):
        a = FingerprintScheme(lanes=1, seed=0)
        b = FingerprintScheme(lanes=1, seed=1)
        assert a.hash_specs != b.hash_specs

    def test_key_matrix_shapes(self):
        scheme = FingerprintScheme(lanes=2)
        codes = np.zeros((3, 17), dtype=np.uint8)
        prefix_keys, suffix_keys = scheme.key_matrices(codes, range(1, 18))
        assert len(prefix_keys) == 2 and len(suffix_keys) == 2
        assert prefix_keys[0].shape == (17, 3)

    @given(st.text(alphabet="ACGT", min_size=2, max_size=50), st.integers(0, 3))
    @settings(max_examples=40)
    def test_columns_match_naive_keys(self, text, seed):
        scheme = FingerprintScheme(lanes=2, seed=seed)
        codes = encode(text)[None, :]
        prefix_keys, suffix_keys = scheme.key_matrices(
            codes, range(1, len(text) + 1))
        cut = len(text) // 2 or 1
        for lane in range(2):
            assert int(prefix_keys[lane][cut - 1, 0]) \
                == scheme.naive_keys(codes[0, :cut])[lane]
            assert int(suffix_keys[lane][cut - 1, 0]) \
                == scheme.naive_keys(codes[0, len(text) - cut:])[lane]

    def test_different_strings_different_keys(self, rng):
        """62-bit keys: no collisions among 10k random 30-mers."""
        scheme = FingerprintScheme(lanes=1)
        codes = rng.integers(0, 4, (10_000, 30), dtype=np.uint8)
        unique_rows = np.unique(codes, axis=0)
        prefix_keys, _ = scheme.key_matrices(unique_rows, [30])
        full_keys = prefix_keys[0][0]
        assert np.unique(full_keys).shape[0] == unique_rows.shape[0]
