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
from .scan import (ScanWorkspace, prefix_fingerprints_batch,
                   prefix_fingerprints_stacked, suffix_fingerprints_batch,
                   suffix_fingerprints_stacked)

_SHIFT = np.uint64(32)


def pack_pair(high: np.ndarray | int, low: np.ndarray | int) -> np.ndarray:
    """Pack two 31-bit hash values into one ``uint64`` key."""
    return (np.asarray(high, dtype=np.uint64) << _SHIFT) | np.asarray(low, dtype=np.uint64)


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

    # -- batch kernels -------------------------------------------------------

    def key_matrices(self, codes: np.ndarray,
                     workspace: ScanWorkspace | None = None
                     ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """All prefix and suffix keys for a read batch.

        Returns ``(prefix_keys, suffix_keys)``; each is a list of ``lanes``
        matrices of shape ``(n_reads, L)`` ``uint64``, where column ``i`` of a
        prefix matrix keys the length-``i+1`` prefix and column ``i`` of a
        suffix matrix keys the suffix starting at ``i`` (length ``L - i``).

        With a ``workspace`` the key matrices are workspace-backed: valid
        only until the next ``key_matrices`` call on that workspace, which
        is the per-batch lifetime of the map phase's hot loop. All
        ``2·lanes`` hash lanes then run as one stacked in-place scan.
        """
        if workspace is not None:
            return self._key_matrices_stacked(codes, workspace)
        prefix_keys: list[np.ndarray] = []
        suffix_keys: list[np.ndarray] = []
        for lane in range(self.lanes):
            spec_hi, spec_lo = self.hash_specs[2 * lane], self.hash_specs[2 * lane + 1]
            prefix_hi = prefix_fingerprints_batch(codes, spec_hi)
            prefix_lo = prefix_fingerprints_batch(codes, spec_lo)
            suffix_hi = suffix_fingerprints_batch(prefix_hi, spec_hi)
            suffix_lo = suffix_fingerprints_batch(prefix_lo, spec_lo)
            prefix_keys.append(pack_pair(prefix_hi, prefix_lo))
            suffix_keys.append(pack_pair(suffix_hi, suffix_lo))
        return prefix_keys, suffix_keys

    def _key_matrices_stacked(self, codes: np.ndarray, workspace: ScanWorkspace
                              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """One stacked scan over every hash lane, packed in place."""
        prefix = prefix_fingerprints_stacked(codes, self.hash_specs, workspace)
        suffix = suffix_fingerprints_stacked(prefix, self.hash_specs, workspace)
        prefix_keys: list[np.ndarray] = []
        suffix_keys: list[np.ndarray] = []
        n, length = np.asarray(codes).shape
        for lane in range(self.lanes):
            for name, stacked, keys in ((f"pk{lane}", prefix, prefix_keys),
                                        (f"sk{lane}", suffix, suffix_keys)):
                packed = workspace.take(name, (n, length))
                np.left_shift(stacked[2 * lane], _SHIFT, out=packed)
                np.bitwise_or(packed, stacked[2 * lane + 1], out=packed)
                keys.append(packed)
        return prefix_keys, suffix_keys

    # -- scalar reference ------------------------------------------------------

    def naive_keys(self, codes: np.ndarray) -> tuple[int, ...]:
        """Packed keys of one whole 1-D code array (test reference)."""
        out = []
        for lane in range(self.lanes):
            spec_hi, spec_lo = self.hash_specs[2 * lane], self.hash_specs[2 * lane + 1]
            out.append(int(pack_pair(spec_hi.fingerprint(codes), spec_lo.fingerprint(codes))))
        return tuple(out)
