"""Modular arithmetic helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.fingerprint.modmath import (MODULUS_PRIMES, RADIX_PRIMES,
                                       place_values)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


class TestParameterCatalog:
    def test_moduli_are_prime_and_31bit(self):
        for p in MODULUS_PRIMES:
            assert _is_prime(p)
            assert 2**30 < p < 2**31

    def test_radixes_are_small_primes_above_alphabet(self):
        for r in RADIX_PRIMES:
            assert _is_prime(r)
            assert 4 < r < 64


class TestPlaceValues:
    def test_definition(self):
        m = place_values(5, 13, 6)
        assert m.tolist() == [1, 5, 12, 8, 1, 5]  # 5^i mod 13

    def test_validation(self):
        with pytest.raises(ConfigError):
            place_values(3, 13, 4)  # radix <= alphabet
        with pytest.raises(ConfigError):
            place_values(5, 2**31 + 11, 4)  # prime too large
        with pytest.raises(ConfigError):
            place_values(5, 13, 0)

    @given(st.integers(1, 150))
    def test_matches_pow(self, length):
        prime = MODULUS_PRIMES[0]
        m = place_values(7, prime, length)
        for i in (0, length // 2, length - 1):
            assert int(m[i]) == pow(7, i, prime)


class TestPerSchemeCache:
    """place_values memoization lives on the HashSpec, not the process.

    The old process-global ``lru_cache`` grew without bound across
    schemes; the per-spec cache is owned (and collected) with the scheme
    that uses it.
    """

    def test_two_schemes_do_not_collide(self):
        from repro.fingerprint.rabin_karp import HashSpec

        a = HashSpec(RADIX_PRIMES[0], MODULUS_PRIMES[0])
        b = HashSpec(RADIX_PRIMES[1], MODULUS_PRIMES[1])
        va, vb = a.place_values(40), b.place_values(40)
        for i in (0, 17, 39):
            assert int(va[i]) == pow(a.radix, i, a.prime)
            assert int(vb[i]) == pow(b.radix, i, b.prime)
        # Interleaved reuse must hit each spec's own cache entry.
        assert a.place_values(40) is va
        assert b.place_values(40) is vb
        assert not np.array_equal(va, vb)

    def test_cache_is_per_instance_state(self):
        from repro.fingerprint.rabin_karp import HashSpec

        a = HashSpec(RADIX_PRIMES[0], MODULUS_PRIMES[0])
        b = HashSpec(RADIX_PRIMES[0], MODULUS_PRIMES[0])
        assert a == b  # the cache is excluded from dataclass equality
        a.place_values(16)
        assert 16 in a._place_cache and 16 not in b._place_cache

    def test_module_function_is_uncached(self):
        # The pure computation has no memo: two calls return fresh
        # (frozen) arrays, so no global table can grow without bound.
        one = place_values(RADIX_PRIMES[0], MODULUS_PRIMES[0], 12)
        two = place_values(RADIX_PRIMES[0], MODULUS_PRIMES[0], 12)
        assert one is not two
        assert not one.flags.writeable
