"""Hillis–Steele fingerprint scans vs the scalar Rabin–Karp reference.

This is the core correctness property of the map phase: the batched
log-step scan (Figs. 5–6) must agree exactly with Horner's rule on every
prefix and with direct evaluation on every suffix, and a seeded window
scan of lengths ``lo..hi`` with the whole-read scan's kept columns and
with the map phase's kernel (``key_rows``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.fingerprint import (FingerprintScheme, naive_prefix_fingerprints,
                               naive_suffix_fingerprints, prefix_fingerprints_batch,
                               suffix_fingerprints_batch)
from repro.fingerprint.rabin_karp import (HashSpec, naive_prefix_fingerprints_scalar,
                                          naive_suffix_fingerprints_scalar)
from repro.fingerprint.scan import ScanWorkspace, key_rows
from repro.fingerprint.scheme import pack_pair
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
        suffixes = suffix_fingerprints_batch(codes, spec)
        for row_index in range(codes.shape[0]):
            expected = naive_suffix_fingerprints(codes[row_index], spec)
            assert np.array_equal(suffixes[row_index], expected)
            assert np.array_equal(
                naive_suffix_fingerprints_scalar(codes[row_index], spec), expected)

    def test_position_zero_is_whole_read(self):
        codes = encode("ACGTACGT")[None, :]
        spec = HashSpec.lane(0)
        prefixes = prefix_fingerprints_batch(codes, spec)
        suffixes = suffix_fingerprints_batch(codes, spec)
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
        suffix_fp = suffix_fingerprints_batch(codes_a, spec)[0, len(a) - length]
        prefix_fp = prefix_fingerprints_batch(codes_b, spec)[0, length - 1]
        if a[len(a) - length:] == b[:length]:
            assert suffix_fp == prefix_fp


windowed_reads = st.integers(1, 24).flatmap(
    lambda length: st.tuples(
        st.lists(st.lists(st.integers(0, 3), min_size=length, max_size=length),
                 min_size=1, max_size=6),
        st.integers(1, length).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo, length)))))


class TestWindowScan:
    """The seeded window scan the banded map is charged for."""

    @given(windowed_reads, st.sampled_from((0, 1)), st.sampled_from((1, 2)),
           st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_window_is_kept_columns_and_kernel_keys(self, drawn, side, lanes,
                                                    seed):
        """Any ``1 ≤ lo ≤ hi ≤ L``, either side, one or two key lanes."""
        rows, (lo, hi) = drawn
        codes = np.array(rows, dtype=np.uint8)
        length = codes.shape[1]
        scheme = FingerprintScheme(lanes=lanes, seed=seed)
        lengths = np.arange(lo, hi + 1)
        kernel = [np.empty((1, lengths.size, codes.shape[0]), dtype=np.uint64)
                  for _ in range(lanes)]
        key_rows(codes, scheme.hash_specs, lengths, ScanWorkspace(), kernel,
                 sides=(side,))
        for lane in range(lanes):
            windows, wholes = [], []
            for spec in scheme.hash_specs[2 * lane:2 * lane + 2]:
                if side == 0:
                    windows.append(prefix_fingerprints_batch(codes, spec, (lo, hi)))
                    wholes.append(prefix_fingerprints_batch(codes, spec)[:, lo - 1:hi])
                else:
                    windows.append(suffix_fingerprints_batch(codes, spec, (lo, hi)))
                    wholes.append(suffix_fingerprints_batch(
                        codes, spec)[:, length - hi:length - lo + 1])
                assert np.array_equal(windows[-1], wholes[-1])
            keys = pack_pair(*windows)
            # key_rows is length-major; a suffix window is by start position.
            by_length = keys.T if side == 0 else keys[:, ::-1].T
            assert np.array_equal(kernel[lane][0], by_length)

    def test_every_window_of_a_short_read(self):
        """Each ``(lo, hi)`` of ``L`` = 9 against the scalar reference."""
        codes = encode("GATACCAGT")[None, :]
        spec = HashSpec.lane(1)
        prefixes = naive_prefix_fingerprints(codes[0], spec)
        suffixes = naive_suffix_fingerprints(codes[0], spec)
        for lo in range(1, 10):
            for hi in range(lo, 10):
                assert np.array_equal(
                    prefix_fingerprints_batch(codes, spec, (lo, hi))[0],
                    prefixes[lo - 1:hi])
                assert np.array_equal(
                    suffix_fingerprints_batch(codes, spec, (lo, hi))[0],
                    suffixes[9 - hi:10 - lo])

    @pytest.mark.parametrize("window", [(0, 3), (4, 3), (2, 11)])
    def test_rejects_a_window_outside_the_read(self, window):
        codes = np.zeros((2, 10), dtype=np.uint8)
        for scan in (prefix_fingerprints_batch, suffix_fingerprints_batch):
            with pytest.raises(ConfigError, match="window"):
                scan(codes, HashSpec(5, 13), window)


descending_bands = st.integers(2, 128).flatmap(
    lambda length: st.tuples(
        st.lists(st.lists(st.integers(0, 3), min_size=length, max_size=length),
                 min_size=1, max_size=4),
        st.sets(st.integers(1, length - 1), min_size=1, max_size=6).map(
            lambda cuts: sorted(cuts, reverse=True))))


class TestDescendingScan:
    """A band below held fingerprints keys its window from them alone."""

    @given(descending_bands, st.sampled_from((1, 2)), st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_every_band_descends_from_the_one_above(self, drawn, lanes, seed):
        """The whole read is keyed once; each band ``lo..hi`` below it
        descends from the fingerprints the band above left at ``hi + 1``,
        on both sides, and its shortest key is what it leaves the next."""
        rows, cuts = drawn
        codes = np.array(rows, dtype=np.uint8)
        m, length = codes.shape
        scheme = FingerprintScheme(lanes=lanes, seed=seed)
        specs = scheme.hash_specs
        wholes = [(prefix_fingerprints_batch(codes, spec),
                   suffix_fingerprints_batch(codes, spec)) for spec in specs]
        # The whole-read band: a read's whole suffix is its prefix.
        (whole,) = scheme.key_matrices(codes, [length], sides="P")
        left = scheme.residues([keys[0] for keys in whole])
        held, top = [left, left], length
        for lo in [*cuts, None]:
            lo = lo or 1
            if lo >= top:
                continue
            hi = top - 1
            lengths = np.arange(lo, hi + 1)
            for s, spec in enumerate(specs):
                prefixes, suffixes = wholes[s]
                assert np.array_equal(
                    prefix_fingerprints_batch(codes, spec, (lo, hi),
                                              held=(held[0][s], top)),
                    prefixes[:, lo - 1:hi])
                assert np.array_equal(
                    suffix_fingerprints_batch(codes, spec, (lo, hi),
                                              held=(held[1][s], top)),
                    suffixes[:, length - hi:length - lo + 1])
            kernel = [np.empty((2, lengths.size, m), dtype=np.uint64)
                      for _ in range(lanes)]
            key_rows(codes, specs, lengths, ScanWorkspace(), kernel,
                     held=(held, top))
            fresh = scheme.key_matrices(codes, lengths)
            for lane in range(lanes):
                for side in (0, 1):
                    assert np.array_equal(kernel[lane][side], fresh[side][lane])
            held = [scheme.residues([keys[side, 0] for keys in kernel])
                    for side in (0, 1)]
            top = lo

    def test_a_wrong_fingerprint_is_a_wrong_key(self):
        codes = encode("GATACCAGTTCA")[None, :]
        scheme = FingerprintScheme(lanes=1)
        top_keys = scheme.key_matrices(codes, [9])
        held = [scheme.residues([keys[0] for keys in side])
                for side in top_keys]
        right = scheme.key_matrices(codes, [5, 8], held=(held, 9))
        held[1] = held[1] ^ np.uint32(1)
        wrong = scheme.key_matrices(codes, [5, 8], held=(held, 9))
        assert np.array_equal(right[0][0], wrong[0][0])
        assert not np.any(right[1][0] == wrong[1][0])

    @pytest.mark.parametrize("top", [5, 13])
    def test_rejects_fingerprints_not_above_the_band(self, top):
        codes = np.zeros((2, 12), dtype=np.uint8)
        held = [np.zeros((2, 2), dtype=np.uint32)] * 2
        with pytest.raises(ConfigError, match="held"):
            FingerprintScheme().key_matrices(codes, [3, 5], held=(held, top))
        for scan in (prefix_fingerprints_batch, suffix_fingerprints_batch):
            with pytest.raises(ConfigError, match="length within"):
                scan(codes, HashSpec(5, 13), (3, 5),
                     held=(np.zeros(2, dtype=np.uint64), top))
