"""Multi-hash fingerprint keys (the analog of the paper's 128-bit scheme).

The paper uses two 64-bit Rabin–Karp values ("128-bit fingerprints") so that
false-positive edges vanish in practice. numpy cannot do 128-bit modular
multiplies, so each *key lane* here packs two independent 31-bit-prime
hashes into one ``uint64`` (``h0 << 32 | h1``):

* ``lanes=1`` → one 62-bit key per suffix/prefix (12-byte KV record),
* ``lanes=2`` → a second packed key is carried as an auxiliary payload and
  verified at match time (~124 hash bits total, 20-byte KV record — the
  same record width as the paper's, which is what makes the Table II/III
  disk-pass behaviour line up).

Sorting and searching always operate on the primary key only; the auxiliary
lane is an equality filter during overlap detection, preserving the
paper's "fingerprint match ⇒ edge with high probability" semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError
from .rabin_karp import HashSpec
from .scan import PACK_SHIFT, ScanWorkspace, key_rows


def pack_pair(high: np.ndarray | int, low: np.ndarray | int) -> np.ndarray:
    """Pack two 31-bit hash values into one ``uint64`` key."""
    return (np.asarray(high, dtype=np.uint64) << PACK_SHIFT) | np.asarray(low, dtype=np.uint64)


@dataclass(frozen=True)
class FingerprintScheme:
    """Configuration of the fingerprint keys.

    ``lanes`` packed keys are produced per suffix/prefix; ``seed`` rotates
    through the (radix, prime) catalog so different schemes are independent.
    """

    lanes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2):
            raise ConfigError("FingerprintScheme.lanes must be 1 or 2")

    @cached_property
    def hash_specs(self) -> tuple[HashSpec, ...]:
        """The ``2 * lanes`` underlying scalar hash lanes."""
        return tuple(HashSpec.lane(self.seed + i) for i in range(2 * self.lanes))

    @property
    def key_nbytes(self) -> int:
        """Bytes of fingerprint carried per record (8 per packed key)."""
        return 8 * self.lanes

    @property
    def record_nbytes(self) -> int:
        """Width of one (fingerprint, read-id) KV record: keys + uint32 id."""
        return self.key_nbytes + 4

    def splitters(self, count: int) -> np.ndarray:
        """The ``count - 1`` primary keys that cut the key space into
        ``count`` ranges: the high hash's residues ``[0, q)`` in spans of
        equal width (the packed key's high word is below ``q``, not 2³²).
        Range ``i`` holds the keys ``k`` with ``i`` splitters ``≤ k``; a
        pure function of the scheme and ``count``."""
        prime = self.hash_specs[0].prime
        return pack_pair([-(-i * prime // count) for i in range(1, count)], 0)

    # -- batch kernels -------------------------------------------------------

    def key_matrices(self, codes: np.ndarray, lengths,
                     workspace: ScanWorkspace | None = None,
                     out: list[np.ndarray] | None = None, *,
                     sides: str = "PS",
                     held: tuple[list[np.ndarray], int] | None = None,
                     ) -> tuple[list[np.ndarray], ...]:
        """Prefix and/or suffix keys of the given lengths for a read batch.

        ``codes`` is ``(m, L)``; ``lengths`` is strictly increasing within
        ``1..L`` (the map phase passes the partition lengths). ``sides`` is
        ``"PS"``, ``"P"`` (prefixes only) or ``"S"`` (suffixes only).
        Returns one list per side, ``(prefix_keys, suffix_keys)`` by
        default; each is a list of ``lanes`` matrices of shape
        ``(len(lengths), m)`` ``uint64``, where row ``i`` of a prefix matrix
        keys the length-``lengths[i]`` prefix of every read and row ``i`` of
        a suffix matrix the suffix of that length — length-major, which is
        partition-file order.

        ``out`` is one ``(len(sides), len(lengths), m)`` ``uint64`` array
        per lane, of any strides (the map phase hands in the key fields of
        its staged record block); the returned matrices are its slices.
        Without it they are freshly allocated. ``workspace`` is scratch
        only — nothing returned aliases it — and is worth passing when
        calls repeat.

        ``held`` is ``(fingerprints, top)``, one ``(2 · lanes, m)`` array
        of residues a side, each read's prefix or suffix fingerprint at the
        length ``top`` above ``lengths`` under every hash (:meth:`residues`
        of an earlier call's keys): the keys then descend from them
        (:func:`~repro.fingerprint.scan.key_rows`).
        """
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ConfigError("key_matrices expects a (n_reads, L) batch")
        if sides not in ("PS", "P", "S"):
            raise ConfigError(f"key_matrices sides must be PS, P or S, not {sides!r}")
        m, read_length = codes.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if (lengths.ndim != 1 or lengths.size == 0 or lengths[0] < 1
                or lengths[-1] > read_length or np.any(lengths[1:] <= lengths[:-1])):
            raise ConfigError(
                f"key_matrices lengths must be strictly increasing within "
                f"1..{read_length} and not empty")
        shape = (len(sides), lengths.shape[0], m)
        if out is None:
            out = [np.empty(shape, dtype=np.uint64) for _ in range(self.lanes)]
        elif len(out) != self.lanes or any(
                keys.shape != shape or keys.dtype != np.uint64 for keys in out):
            raise ConfigError(
                f"key_matrices out must be {self.lanes} uint64 arrays of "
                f"shape {shape}")
        if held is not None and (len(held[0]) != len(sides) or any(
                values.shape != (2 * self.lanes, m) for values in held[0])):
            raise ConfigError(
                f"key_matrices held must be {len(sides)} arrays of shape "
                f"{(2 * self.lanes, m)}")
        key_rows(codes, self.hash_specs, lengths, workspace or ScanWorkspace(),
                 out, tuple("PS".index(side) for side in sides), held)
        return tuple([keys[slot] for keys in out] for slot in range(len(sides)))

    @staticmethod
    def residues(keys: list[np.ndarray]) -> np.ndarray:
        """The ``(2 · lanes, m)`` ``uint32`` hash residues packed in one
        row of keys, one ``(m,)`` ``uint64`` array a lane."""
        out = np.empty((2 * len(keys), keys[0].shape[0]), dtype=np.uint32)
        for lane, packed in enumerate(keys):
            out[2 * lane] = packed >> PACK_SHIFT
            out[2 * lane + 1] = packed  # the low word
        return out

    # -- scalar reference ------------------------------------------------------

    def naive_keys(self, codes: np.ndarray) -> tuple[int, ...]:
        """Packed keys of one whole 1-D code array (test reference)."""
        out = []
        for lane in range(self.lanes):
            spec_hi, spec_lo = self.hash_specs[2 * lane], self.hash_specs[2 * lane + 1]
            out.append(int(pack_pair(spec_hi.fingerprint(codes), spec_lo.fingerprint(codes))))
        return tuple(out)
