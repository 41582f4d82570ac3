"""Batched fingerprint generation via Hillis–Steele scans (paper Figs. 5–6).

The paper assigns a *block of threads per read* and expresses prefix
fingerprinting as an inclusive scan with a doubling offset: after the step
with offset ``d``, position ``i`` holds the fingerprint of the window of
length ``min(i+1, 2d)`` ending at ``i``; after ``⌈log₂ L⌉`` steps it holds
the full prefix fingerprint. Suffix fingerprints then come *for free* from
the prefix fingerprints and the place-value array:

    S[i] = (P[L-1] − P[i-1]·σ^(L-i)) mod q,   S[0] = P[L-1].

Here a *row of the batch matrix* plays the role of the thread block: each
scan step is one vectorized numpy expression over the whole ``(n_reads, L)``
batch — the same data-parallel shape, so the virtual GPU charges it as one
scan launch.

One production kernel and one reference. The per-spec functions
(:func:`prefix_fingerprints_batch` / :func:`suffix_fingerprints_batch`)
are the reference, Figs. 5–6 as drawn: one ``(n_reads, L)`` matrix per
hash lane, a fresh temporary per step, ``⌈log₂ L⌉`` doubling steps, every
column of both sides. :func:`key_rows` is what the map phase runs: told
which overlap lengths the partitions keep, it evaluates the scan in closed
form for those rows only (one matrix product against place values per
side), reduces them and writes the packed keys length-major —
partition-file order — a cache-sized tile of reads at a time. Every
intermediate is an exact integer, so the kernel's keys are the
reference's bit for bit; tests assert it. The virtual GPU still *charges*
the paper's full Hillis–Steele launches: the model simulates the paper's
kernel, not this host-side evaluation of it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConfigError
from .modmath import submod
from .rabin_karp import HashSpec


def prefix_fingerprints_batch(codes: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Prefix fingerprints of every read in a batch.

    ``codes`` is ``(n_reads, L)`` ``uint8``; the result is ``(n_reads, L)``
    ``uint64`` with ``out[r, i] = f(read_r[:i+1])``.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ConfigError("prefix_fingerprints_batch expects a (n_reads, L) batch")
    n, length = codes.shape
    prefix = codes.astype(np.uint64)
    if n == 0 or length == 0:
        return prefix
    q = np.uint64(spec.prime)
    offset = 1
    sigma_d = np.uint64(spec.radix % spec.prime)
    while offset < length:
        # P[i] += P[i-d] * sigma^d  (mod q); one step of the Hillis-Steele scan.
        shifted = prefix[:, :-offset]
        prefix[:, offset:] = (prefix[:, offset:] + shifted * sigma_d) % q
        offset *= 2
        sigma_d = (sigma_d * sigma_d) % q
    return prefix


def suffix_fingerprints_batch(prefix: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Suffix fingerprints derived from prefix fingerprints (Fig. 6).

    ``prefix`` is the output of :func:`prefix_fingerprints_batch`; the result
    has ``out[r, i] = f(read_r[i:])``.
    """
    prefix = np.asarray(prefix, dtype=np.uint64)
    if prefix.ndim != 2:
        raise ConfigError("suffix_fingerprints_batch expects a (n_reads, L) matrix")
    n, length = prefix.shape
    if n == 0 or length == 0:
        return prefix.copy()
    q = np.uint64(spec.prime)
    # places[i] = sigma^(L-i) mod q for i in [1, L)
    places = spec.place_values(length + 1)
    full = prefix[:, -1:]
    out = np.empty_like(prefix)
    out[:, 0] = prefix[:, -1]
    if length > 1:
        shifted = (prefix[:, :-1] * places[length - 1:0:-1][None, :]) % q
        out[:, 1:] = submod(full, shifted, spec.prime)
    return out


class ScanWorkspace:
    """Named reusable scratch buffers for :func:`key_rows`.

    One workspace per thread (the map phase keeps them in thread-local
    storage): arrays handed out for one name alias previous arrays handed
    out for the same name. The kernel takes one tile's buffers at a time,
    so a workspace holds one tile's codes and key sums, whatever the batch
    size.
    """

    __slots__ = ("_raw",)

    def __init__(self) -> None:
        self._raw: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...],
             dtype=np.uint64) -> np.ndarray:
        """A writable ``shape``/``dtype`` array backed by the named buffer."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        raw = self._raw.get(name)
        if raw is None or raw.nbytes < nbytes:
            raw = np.empty(max(nbytes, 1), dtype=np.uint8)
            self._raw[name] = raw
        return raw[:nbytes].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held across all named buffers."""
        return sum(raw.nbytes for raw in self._raw.values())


#: Bound on a tile's ``float64`` key sums, ``(n_specs · len(lengths),
#: tile)`` with at most ``L`` lengths: 93 reads at ``L`` = 100 under two
#: lanes.
TILE_BYTES = 300_000

#: A packed key is ``high << 32 | low`` of two 31-bit residues.
PACK_SHIFT = np.uint64(32)

#: Longest read :func:`key_rows` keys exactly: a sum of ``L`` terms below
#: ``3·2^31`` stays below ``2^53``, where ``float64`` holds every integer.
MAX_EXACT_LENGTH = 1 << 20


def tile_rows(n_specs: int, length: int) -> int:
    """Reads per tile of :func:`key_rows` for ``n_specs`` hashes of ``length``."""
    return max(1, TILE_BYTES // (8 * n_specs * length))


@lru_cache(maxsize=64)
def _place_weights(specs: tuple[HashSpec, ...], lengths: tuple[int, ...]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place values of every kept length, as matrix rows, and the moduli.

    Returns ``(prefix, suffix, q)``. ``prefix`` is ``(n_specs ·
    len(lengths), max(lengths))`` ``float64``: row ``s · K + i`` holds
    ``radix_s^(l-1), ..., radix_s, 1`` (mod ``q_s``) in its first ``l =
    lengths[i]`` columns and zeros after, so its product with a read's
    first ``max(lengths)`` codes is the length-``l`` prefix's Horner sum.
    ``suffix`` holds the same rows shifted right to end at the last
    column, which weigh a read's last ``max(lengths)`` codes into the
    length-``l`` suffix's sum. ``q`` is ``(n_specs, 1, 1)`` ``uint64``.
    """
    last = lengths[-1]
    prefix = np.zeros((len(specs), len(lengths), last))
    suffix = np.zeros_like(prefix)
    for s, spec in enumerate(specs):
        powers = spec.place_values(last)[::-1].astype(np.float64)
        for i, length in enumerate(lengths):
            prefix[s, i, :length] = powers[last - length:]
            suffix[s, i, last - length:] = powers[last - length:]
    q = np.array([spec.prime for spec in specs], dtype=np.uint64)[:, None, None]
    consts = (prefix.reshape(-1, last), suffix.reshape(-1, last), q)
    for array in consts:
        array.setflags(write=False)
    return consts


def key_rows(codes: np.ndarray, specs: tuple[HashSpec, ...],
             lengths: np.ndarray, workspace: ScanWorkspace,
             out: list[np.ndarray], sides: tuple[int, ...] = (0, 1)) -> None:
    """Packed prefix and/or suffix keys of the given lengths, length-major.

    ``codes`` is ``(m, L)`` ``uint8``, ``lengths`` strictly increasing
    within ``1..L``; key lane ``k`` packs hashes ``specs[2k]`` (high word)
    and ``specs[2k+1]``. ``sides`` names what is computed, ``0`` the
    prefixes and ``1`` the suffixes: ``out[k][i, j, r]`` is the key of the
    length-``lengths[j]`` prefix (``sides[i] == 0``) or suffix of read
    ``r``, each ``out[k]`` a ``(len(sides), len(lengths), m)`` ``uint64``
    array of any strides — bit-identical to packing the kept columns of
    :func:`prefix_fingerprints_batch` / :func:`suffix_fingerprints_batch`.

    Closed form instead of the log-step doubling scan, for the kept rows
    only: ``f(read[:l]) = Σ_{j<l} codes[j]·σ^(l-1-j) mod q`` and, directly
    rather than from the prefixes, ``f(read[L-l:]) = Σ_{k<l}
    codes[L-1-k]·σ^k mod q``. For every kept length and hash at once that
    is one matrix product of the place-value rows of
    :func:`_place_weights` with the tile's first (prefixes) or last
    (suffixes) ``max(lengths)`` codes, then one ``% q``. The product runs
    in ``float64`` and is exact: each term is a code ≤ 3 times a residue
    below ``2^31``, so every partial sum of at most ``L`` of them is an
    integer below ``2^53`` for ``L`` up to :data:`MAX_EXACT_LENGTH`, and
    the order of the additions cannot change it.

    Reads are walked in tiles of :func:`tile_rows`, so the workspace holds
    one tile whatever ``m`` is; ``m = 0`` touches nothing.
    """
    m, length = codes.shape
    if length > MAX_EXACT_LENGTH:
        raise ConfigError(f"reads longer than {MAX_EXACT_LENGTH} bases "
                          f"cannot be keyed exactly")
    n_specs = len(specs)
    prefix_weights, suffix_weights, q = _place_weights(
        specs, tuple(int(l) for l in lengths))
    last = int(lengths[-1])
    # The columns the products read: the first ``last`` (prefixes), the
    # final ``last`` (suffixes).
    lo_col = 0 if 0 in sides else length - last
    hi_col = length if 1 in sides else last
    tile = tile_rows(n_specs, length)
    for lo in range(0, m, tile):
        hi = min(lo + tile, m)
        positions = workspace.take("codes", (hi_col - lo_col, hi - lo), np.float64)
        np.copyto(positions, codes[lo:hi, lo_col:hi_col].T)
        sums = workspace.take("sums", (prefix_weights.shape[0], hi - lo),
                              np.float64)
        kept = workspace.take("kept", (n_specs, len(lengths), hi - lo))
        for slot, side in enumerate(sides):
            if side == 0:
                np.matmul(prefix_weights, positions[:last], out=sums)
            else:
                np.matmul(suffix_weights, positions[-last:], out=sums)
            np.copyto(kept, sums.reshape(kept.shape), casting="unsafe")
            np.remainder(kept, q, out=kept)
            for lane, keys in enumerate(out):
                high = kept[2 * lane]
                np.left_shift(high, PACK_SHIFT, out=high)
                np.bitwise_or(high, kept[2 * lane + 1],
                              out=keys[slot, :, lo:hi])
