"""Scalar Rabin–Karp reference implementation.

The polynomial convention throughout the library: the fingerprint of a
string ``s`` of length ``k`` under ``(radix σ, prime q)`` is

    f(s) = (s[0]·σ^(k-1) + s[1]·σ^(k-2) + … + s[k-1]) mod q

i.e. most-significant base first, so appending a base is
``f(s·c) = (f(s)·σ + c) mod q``. The batched scan kernels in
:mod:`repro.fingerprint.scan` must agree with these loops exactly — that is
the core correctness property the hypothesis tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modmath import MODULUS_PRIMES, RADIX_PRIMES, check_params, place_values


@dataclass(frozen=True)
class HashSpec:
    """One Rabin–Karp hash lane: a radix and a prime modulus.

    Each instance memoizes its own place-value arrays (see
    :meth:`place_values`): the cache lives and dies with the scheme that
    owns the lane, so differently-parameterized schemes can never collide
    in a process-wide table and a discarded scheme's arrays are collected
    with it.
    """

    radix: int
    prime: int

    def __post_init__(self) -> None:
        check_params(self.radix, self.prime)
        # Not a dataclass field: the cache is identity state, excluded
        # from eq/hash/repr, installed past the frozen guard.
        object.__setattr__(self, "_place_cache", {})

    @staticmethod
    def lane(index: int) -> "HashSpec":
        """The ``index``-th standard lane from the parameter catalog."""
        return HashSpec(RADIX_PRIMES[index % len(RADIX_PRIMES)],
                        MODULUS_PRIMES[index % len(MODULUS_PRIMES)])

    def place_values(self, length: int) -> np.ndarray:
        """``σ^i mod q`` for ``i in [0, length)``, memoized on this spec.

        The array is computed once per length per instance and returned
        frozen. Benign under the service's batch threads: a race at worst
        computes the identical immutable array twice, and dict get/set are
        atomic under the GIL.
        """
        cached = self._place_cache.get(length)
        if cached is None:
            cached = place_values(self.radix, self.prime, length)
            self._place_cache[length] = cached
        return cached

    def fingerprint(self, codes: np.ndarray) -> int:
        """Fingerprint of a whole 1-D code array.

        Vectorized as ``Σ codes[i]·σ^(k-1-i) mod q``: every product of two
        residues stays below ``2^62``, and a cumulative sum of residues
        cannot reach ``2^64`` for any realistic read length, so the whole
        evaluation fits ``uint64`` exactly (see
        :func:`fingerprint_scalar`, the Horner-rule loop it must match).
        """
        codes = np.asarray(codes, dtype=np.uint64) % np.uint64(self.prime)
        length = codes.shape[0]
        if length == 0:
            return 0
        places = self.place_values(length)
        terms = (codes * places[::-1]) % np.uint64(self.prime)
        return int(terms.sum(dtype=np.uint64) % np.uint64(self.prime))

    def fingerprint_scalar(self, codes: np.ndarray) -> int:
        """Horner's-rule reference for :meth:`fingerprint` (tests only)."""
        value = 0
        for code in np.asarray(codes, dtype=np.uint64):
            value = (value * self.radix + int(code)) % self.prime
        return value


def naive_prefix_fingerprints(codes: np.ndarray, spec: HashSpec) -> np.ndarray:
    """``out[i] = f(codes[:i+1])``, vectorized.

    ``f(codes[:i+1]) = σ^i · Σ_{j≤i} codes[j]·σ^(-j) mod q``: one modular
    cumulative sum against inverse place values, then a rescale by the
    forward place values. Must match
    :func:`naive_prefix_fingerprints_scalar` exactly.
    """
    q = np.uint64(spec.prime)
    codes = np.asarray(codes, dtype=np.uint64) % q
    length = codes.shape[0]
    if length == 0:
        return codes.copy()
    places = spec.place_values(length)
    # σ^(-j) = σ^(L-1-j) · σ^(-(L-1)): one scalar modular inverse turns the
    # reversed forward places into the inverse places.
    inv_top = np.uint64(pow(spec.radix, -(length - 1), spec.prime))
    inv_places = (places[::-1] * inv_top) % q
    sums = np.cumsum((codes * inv_places) % q, dtype=np.uint64) % q
    return (sums * places) % q


def naive_prefix_fingerprints_scalar(codes: np.ndarray,
                                     spec: HashSpec) -> np.ndarray:
    """Horner-evaluation reference for :func:`naive_prefix_fingerprints`."""
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.empty(codes.shape[0], dtype=np.uint64)
    value = 0
    for i, code in enumerate(codes):
        value = (value * spec.radix + int(code)) % spec.prime
        out[i] = value
    return out


def naive_suffix_fingerprints(codes: np.ndarray, spec: HashSpec) -> np.ndarray:
    """``out[i] = f(codes[i:])``, vectorized.

    ``f(codes[i:]) = Σ_{j≥i} codes[j]·σ^(L-1-j) mod q`` — a reversed
    modular cumulative sum of the fixed-place products. Must match
    :func:`naive_suffix_fingerprints_scalar` exactly.
    """
    q = np.uint64(spec.prime)
    codes = np.asarray(codes, dtype=np.uint64) % q
    length = codes.shape[0]
    if length == 0:
        return codes.copy()
    terms = (codes * spec.place_values(length)[::-1]) % q
    return np.cumsum(terms[::-1], dtype=np.uint64)[::-1] % q


def naive_suffix_fingerprints_scalar(codes: np.ndarray,
                                     spec: HashSpec) -> np.ndarray:
    """Per-suffix-evaluation reference for :func:`naive_suffix_fingerprints`."""
    codes = np.asarray(codes, dtype=np.uint64)
    length = codes.shape[0]
    out = np.empty(length, dtype=np.uint64)
    value = 0
    place = 1
    for i in range(length - 1, -1, -1):
        value = (value + int(codes[i]) * place) % spec.prime
        place = (place * spec.radix) % spec.prime
        out[i] = value
    return out
