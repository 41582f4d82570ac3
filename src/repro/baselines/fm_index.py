"""An FM-index over a multi-read text, with batched backward search.

The index covers every oriented read (forward and reverse complement), each
terminated by a separator that sorts below all bases — the multi-string BWT
layout SGA's overlap stage relies on. ``backward_extend`` advances many
pattern intervals at once (one gather per step), so an entire read set's
suffixes are searched in ``read_length`` vectorized rounds.

Rank structures are kept as full cumulative tables (O(n·σ) ints); real SGA
uses a sampled/compressed representation with the same semantics — the
difference is modeled, not implemented, see
:data:`repro.baselines.sga.SGA_MODEL_BYTES_PER_BASE`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .suffix_array import bwt_from_sa, suffix_array

#: Alphabet: separator (0) + four bases (codes shifted by +1).
ALPHABET = 5


class FMIndex:
    """FM-index over the concatenation ``read₀ · SEP · read₁ · SEP · …``."""

    def __init__(self, oriented_codes: np.ndarray):
        oriented = np.asarray(oriented_codes, dtype=np.uint8)
        if oriented.ndim != 2:
            raise ConfigError("FMIndex expects a (n_vertices, L) oriented code matrix")
        self.n_strings, self.string_length = oriented.shape
        stride = self.string_length + 1
        text = np.zeros(self.n_strings * stride, dtype=np.uint8)
        shaped = text.reshape(self.n_strings, stride)
        shaped[:, :self.string_length] = oriented + 1
        self.text = text
        self.sa = suffix_array(text)
        self.bwt = bwt_from_sa(text, self.sa)
        counts = np.bincount(text, minlength=ALPHABET)
        self.c_array = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # occ[i, c] = occurrences of c in bwt[:i]  (int32: texts stay < 2^31)
        one_hot = self.bwt[:, None] == np.arange(ALPHABET, dtype=np.uint8)[None, :]
        self.occ = np.zeros((text.shape[0] + 1, ALPHABET), dtype=np.int32)
        self.occ[1:] = np.cumsum(one_hot, axis=0, dtype=np.int32)
        # Read-start bookkeeping: which SA entries are whole strings, and the
        # exclusive rank of starts up to each SA position.
        is_start = (self.sa % stride) == 0
        self.start_rank = np.concatenate(([0], np.cumsum(is_start))).astype(np.int64)
        self.starts_by_sa_order = (self.sa[is_start] // stride).astype(np.int64)

    @property
    def n_text(self) -> int:
        """Length of the indexed text."""
        return self.text.shape[0]

    @property
    def nbytes(self) -> int:
        """Actual memory held by the index structures."""
        return (self.text.nbytes + self.sa.nbytes + self.bwt.nbytes
                + self.occ.nbytes + self.start_rank.nbytes
                + self.starts_by_sa_order.nbytes)

    # -- search -------------------------------------------------------------

    def whole_range(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` fresh (lo, hi) intervals spanning the entire SA."""
        return (np.zeros(n, dtype=np.int64),
                np.full(n, self.n_text, dtype=np.int64))

    def backward_extend(self, lo: np.ndarray, hi: np.ndarray, symbols: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Prepend one symbol to each pattern; returns updated intervals.

        ``symbols`` are text-alphabet values (base code + 1). Empty intervals
        stay empty.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        new_lo = self.c_array[symbols] + self.occ[lo, symbols]
        new_hi = self.c_array[symbols] + self.occ[hi, symbols]
        return new_lo, new_hi

    def count_string_starts(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """How many whole-string (read-prefix) entries each interval holds."""
        return self.start_rank[hi] - self.start_rank[lo]

    def string_ids_in_interval(self, lo: int, hi: int) -> np.ndarray:
        """Vertex ids of the whole strings inside one SA interval."""
        return self.starts_by_sa_order[self.start_rank[lo]:self.start_rank[hi]]
