"""Batched fingerprint generation via Hillis–Steele scans (paper Figs. 5–6).

The paper assigns a *block of threads per read* and expresses prefix
fingerprinting as an inclusive scan with a doubling offset: after the step
with offset ``d``, position ``i`` holds the fingerprint of the window of
length ``min(i+1, 2d)`` ending at ``i``; after ``⌈log₂ L⌉`` steps it holds
the full prefix fingerprint. Fig. 6 gets the suffix fingerprints from the
same scan's output and the place-value array ``σ^i mod q``.

A banded map keeps only a window of lengths ``lo..hi`` a pass, so the
kernel here is a *seeded window scan*: a log-step tree reduction folds the
``lo − 1`` codes before the window into one seed per read (Horner's rule
on pairs of blocks, ``left·σ^b + right``), and the doubling scan then runs
over the window's ``k = hi − lo + 1`` positions only, the seed carried
into the first. Suffixes are the mirror image from the read's end: the
seed folds the last ``lo − 1`` codes, each window code is weighted by its
place value, and an additive doubling scan runs towards the read's start.
The whole-read scan is the window ``(1, L)``: no seed, the plain doubling
scan of Fig. 5.

Here a *row of the batch matrix* plays the role of the thread block: each
scan step is one vectorized numpy expression over the whole ``(n_reads,
k)`` batch — the same data-parallel shape, so the virtual GPU charges it
as one seeded scan launch (:func:`repro.device.costs.scan_seconds`).

One production kernel and one reference. The per-spec functions
(:func:`prefix_fingerprints_batch` / :func:`suffix_fingerprints_batch`)
are the reference, drawn as the device runs them: one ``(n_reads, k)``
matrix per hash lane, a fresh temporary per step, a tree-reduction seed
and ``⌈log₂ k⌉`` doubling steps. :func:`key_rows` is what the map phase
runs: told which overlap lengths the partitions keep, it evaluates the
scan in closed form for those rows only (one matrix product against place
values per side), reduces them and writes the packed keys length-major —
partition-file order — a cache-sized tile of reads at a time. Every
intermediate is an exact integer, so the kernel's keys are the
reference's bit for bit; tests assert it. The virtual GPU *charges* the
seeded window scan over each side's kept window: the model simulates the
device kernel, not this host-side evaluation of it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConfigError
from .rabin_karp import HashSpec


def _window(codes: np.ndarray, window: tuple[int, int] | None,
            name: str) -> tuple[int, int]:
    """``window`` checked against a ``(n_reads, L)`` batch; ``(1, L)`` by default."""
    if codes.ndim != 2:
        raise ConfigError(f"{name} expects a (n_reads, L) batch")
    length = codes.shape[1]
    if window is None:
        return 1, length
    lo, hi = window
    if not 1 <= lo <= hi <= length:
        raise ConfigError(f"{name} window must satisfy 1 <= lo <= hi <= "
                          f"{length}, got {window}")
    return lo, hi


def _fold(codes: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Fingerprint of each row of ``codes`` by a log-step tree reduction.

    Zeros in front change no Horner sum, so each row is padded to a power
    of two and every step joins adjacent blocks of width ``b`` as
    ``left·σ^b + right``; ``⌈log₂ m⌉`` steps leave one value a row.
    """
    n, m = codes.shape
    width = 1 << max(0, m - 1).bit_length()
    values = np.zeros((n, width), dtype=np.uint64)
    values[:, width - m:] = codes
    q = np.uint64(spec.prime)
    sigma_b = np.uint64(spec.radix % spec.prime)
    while values.shape[1] > 1:
        values = (values[:, 0::2] * sigma_b + values[:, 1::2]) % q
        sigma_b = (sigma_b * sigma_b) % q
    return values[:, 0]


def prefix_fingerprints_batch(codes: np.ndarray, spec: HashSpec,
                              window: tuple[int, int] | None = None) -> np.ndarray:
    """Prefix fingerprints of lengths ``lo..hi`` of every read in a batch.

    ``codes`` is ``(n_reads, L)`` ``uint8`` and ``window`` is ``(lo, hi)``
    with ``1 ≤ lo ≤ hi ≤ L``, ``(1, L)`` by default; the result is
    ``(n_reads, hi − lo + 1)`` ``uint64`` with ``out[r, j] =
    f(read_r[:lo + j])`` — columns ``lo − 1 .. hi − 1`` of the whole-read
    scan.
    """
    codes = np.asarray(codes)
    lo, hi = _window(codes, window, "prefix_fingerprints_batch")
    prefix = codes[:, lo - 1:hi].astype(np.uint64)
    if prefix.size == 0:
        return prefix
    q = np.uint64(spec.prime)
    sigma_d = np.uint64(spec.radix % spec.prime)
    if lo > 1:
        # The seed: f(read[:lo-1]), shifted one place in front of the window.
        prefix[:, 0] = (prefix[:, 0] + _fold(codes[:, :lo - 1], spec) * sigma_d) % q
    offset = 1
    while offset < prefix.shape[1]:
        # P[i] += P[i-d] * sigma^d  (mod q); one step of the Hillis-Steele scan.
        shifted = prefix[:, :-offset]
        prefix[:, offset:] = (prefix[:, offset:] + shifted * sigma_d) % q
        offset *= 2
        sigma_d = (sigma_d * sigma_d) % q
    return prefix


def suffix_fingerprints_batch(codes: np.ndarray, spec: HashSpec,
                              window: tuple[int, int] | None = None) -> np.ndarray:
    """Suffix fingerprints of lengths ``lo..hi`` of every read in a batch.

    ``codes`` and ``window`` as for :func:`prefix_fingerprints_batch`; the
    result is ``(n_reads, hi − lo + 1)`` ``uint64`` indexed by start
    position, ``out[r, c] = f(read_r[L − hi + c:])`` — columns ``L − hi ..
    L − lo`` of the whole-read suffix matrix, whose ``out[r, i]`` is
    ``f(read_r[i:])``.

    ``f(read[p:]) = Σ_{i≥p} codes[i]·σ^(L−1−i)``: each window code is
    weighted by its place value (Fig. 6's array), the seed
    ``f(read[L−lo+1:])`` joins the last one, and a doubling scan sums
    towards the read's start.
    """
    codes = np.asarray(codes)
    lo, hi = _window(codes, window, "suffix_fingerprints_batch")
    length = codes.shape[1]
    kept = codes[:, length - hi:length - lo + 1]
    if kept.size == 0:
        return kept.astype(np.uint64)
    q = np.uint64(spec.prime)
    # places[c] = sigma^(hi-1-c): the weight of position L - hi + c.
    places = spec.place_values(hi)[lo - 1:][::-1]
    suffix = (kept * places) % q
    if lo > 1:
        suffix[:, -1] = (suffix[:, -1] + _fold(codes[:, length - lo + 1:], spec)) % q
    offset = 1
    while offset < suffix.shape[1]:
        # S[i] += S[i+d]  (mod q); one step of the scan, from the read's end.
        suffix[:, :-offset] = (suffix[:, :-offset] + suffix[:, offset:]) % q
        offset *= 2
    return suffix


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
