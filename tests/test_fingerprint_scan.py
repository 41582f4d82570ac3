"""Hillis–Steele fingerprint scans vs the scalar Rabin–Karp reference.

This is the core correctness property of the map phase: the batched
log-step scan (Figs. 5–6) must agree exactly with Horner's rule on every
prefix and with direct evaluation on every suffix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.fingerprint import (naive_prefix_fingerprints, naive_suffix_fingerprints,
                               prefix_fingerprints_batch, suffix_fingerprints_batch)
from repro.fingerprint.rabin_karp import (HashSpec, naive_prefix_fingerprints_scalar,
                                          naive_suffix_fingerprints_scalar)
from repro.seq.alphabet import encode

hash_specs = st.sampled_from([HashSpec.lane(i) for i in range(4)]
                             + [HashSpec(5, 13), HashSpec(7, 101)])
read_matrix = st.integers(1, 40).flatmap(
    lambda length: st.lists(
        st.lists(st.integers(0, 3), min_size=length, max_size=length),
        min_size=1, max_size=8))


class TestPrefixScan:
    @given(read_matrix, hash_specs)
    @settings(max_examples=60)
    def test_matches_naive(self, rows, spec):
        codes = np.array(rows, dtype=np.uint8)
        batch_result = prefix_fingerprints_batch(codes, spec)
        for row_index in range(codes.shape[0]):
            expected = naive_prefix_fingerprints(codes[row_index], spec)
            assert np.array_equal(batch_result[row_index], expected)
            assert np.array_equal(
                naive_prefix_fingerprints_scalar(codes[row_index], spec), expected)

    def test_paper_read_shape(self):
        """The worked example's read (length 10) runs through the scan."""
        codes = encode("GATACCAGTA")[None, :]
        spec = HashSpec(5, 13)
        result = prefix_fingerprints_batch(codes, spec)
        assert result.shape == (1, 10)
        assert int(result[0, 0]) == int(codes[0, 0]) % 13
        assert int(result[0, -1]) == spec.fingerprint(codes[0]) \
            == spec.fingerprint_scalar(codes[0])

    def test_empty_batch(self):
        out = prefix_fingerprints_batch(np.empty((0, 5), dtype=np.uint8),
                                        HashSpec(5, 13))
        assert out.shape == (0, 5)

    def test_rejects_1d(self):
        with pytest.raises(ConfigError):
            prefix_fingerprints_batch(np.zeros(5, dtype=np.uint8), HashSpec(5, 13))


class TestSuffixScan:
    @given(read_matrix, hash_specs)
    @settings(max_examples=60)
    def test_matches_naive(self, rows, spec):
        codes = np.array(rows, dtype=np.uint8)
        prefixes = prefix_fingerprints_batch(codes, spec)
        suffixes = suffix_fingerprints_batch(prefixes, spec)
        for row_index in range(codes.shape[0]):
            expected = naive_suffix_fingerprints(codes[row_index], spec)
            assert np.array_equal(suffixes[row_index], expected)
            assert np.array_equal(
                naive_suffix_fingerprints_scalar(codes[row_index], spec), expected)

    def test_position_zero_is_whole_read(self):
        codes = encode("ACGTACGT")[None, :]
        spec = HashSpec.lane(0)
        prefixes = prefix_fingerprints_batch(codes, spec)
        suffixes = suffix_fingerprints_batch(prefixes, spec)
        assert suffixes[0, 0] == prefixes[0, -1]


class TestOverlapProperty:
    @given(st.text(alphabet="ACGT", min_size=4, max_size=60),
           st.text(alphabet="ACGT", min_size=4, max_size=60),
           st.integers(1, 30), hash_specs)
    @settings(max_examples=60)
    def test_suffix_prefix_equality_iff_strings_match(self, a, b, length, spec):
        """The invariant the whole pipeline rests on: the l-suffix
        fingerprint of A equals the l-prefix fingerprint of B whenever the
        strings match (and, for these primes, collisions are vanishingly
        rare the other way)."""
        length = min(length, len(a), len(b))
        codes_a, codes_b = encode(a)[None, :], encode(b)[None, :]
        suffix_fp = suffix_fingerprints_batch(
            prefix_fingerprints_batch(codes_a, spec), spec)[0, len(a) - length]
        prefix_fp = prefix_fingerprints_batch(codes_b, spec)[0, length - 1]
        if a[len(a) - length:] == b[:length]:
            assert suffix_fp == prefix_fp
