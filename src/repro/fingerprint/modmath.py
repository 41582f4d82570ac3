"""Modular arithmetic for Rabin–Karp hashing under numpy ``uint64``.

All primes are kept below 2³¹ so that a product of two residues fits in a
``uint64`` exactly (no 128-bit modmul exists in numpy); see DESIGN.md §1 for
why this is the faithful substitution for the paper's 64-bit hash lanes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

#: Large primes just under 2³¹, used as hash moduli. Four lanes suffice for
#: the widest configured scheme (2 packed keys × 2 hashes each).
MODULUS_PRIMES = (2_147_483_629, 2_147_483_587, 2_147_483_563, 2_147_483_549)

#: Small primes larger than the alphabet size (4), used as radixes — the
#: paper: "the radix is a small prime larger than the alphabet size".
RADIX_PRIMES = (5, 7, 11, 13)

_MAX_PRIME = 2**31


def check_params(radix: int, prime: int) -> None:
    """Validate a (radix, prime) hash parameter pair."""
    if not 4 < radix < prime:
        raise ConfigError(f"radix must satisfy 4 < radix < prime, got {radix}, {prime}")
    if prime >= _MAX_PRIME:
        raise ConfigError(f"prime must be < 2^31 for overflow-free uint64 math, got {prime}")


def place_values(radix: int, prime: int, length: int) -> np.ndarray:
    """``M[i] = radix**i mod prime`` for ``i in [0, length)`` (paper's M array).

    The pure computation. Hot callers go through
    :meth:`repro.fingerprint.rabin_karp.HashSpec.place_values`, which
    memoizes per *spec instance* — an earlier process-global unbounded
    ``lru_cache`` here kept every (radix, prime, length) triple of every
    scheme ever constructed alive for the life of the process. The
    returned array is frozen so no caller can corrupt a memoized copy
    downstream.
    """
    check_params(radix, prime)
    if length < 1:
        raise ConfigError("length must be >= 1")
    out = np.empty(length, dtype=np.uint64)
    value = 1
    for i in range(length):
        out[i] = value
        value = (value * radix) % prime
    out.setflags(write=False)
    return out
