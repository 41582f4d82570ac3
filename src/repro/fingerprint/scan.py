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
form (a cumulative sum against place values), reduces only the kept rows
and writes the packed keys length-major — partition-file order — a
cache-sized tile of reads at a time. All intermediates are exact in
``uint64``, so the kernel's keys are the reference's bit for bit; tests
assert it. The virtual GPU still *charges* the paper's full Hillis–Steele
launches: the model simulates the paper's kernel, not this host-side
evaluation of it.
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
    so a workspace holds :data:`TILE_BYTES` of scan tensor plus the tile's
    code and kept rows, whatever the batch size.
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


#: Scan tensor bytes per tile: ``(n_specs, L, tile)`` ``uint64`` stays
#: L2-resident (93 rows at ``L`` = 100 under two lanes).
TILE_BYTES = 300_000

#: A packed key is ``high << 32 | low`` of two 31-bit residues.
PACK_SHIFT = np.uint64(32)


def tile_rows(n_specs: int, length: int) -> int:
    """Reads per tile of :func:`key_rows` for ``n_specs`` hashes of ``length``."""
    return max(1, TILE_BYTES // (8 * n_specs * length))


@lru_cache(maxsize=64)
def _scan_consts(specs: tuple[HashSpec, ...], length: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place values and moduli shaped to broadcast over ``(S, L, rows)``.

    ``forward[s, i, 0] = radix_s^i mod q_s``,
    ``inverse[s, j, 0] = radix_s^(-j) mod q_s`` (derived from the reversed
    forward row by one scalar modular inverse, as in
    :func:`repro.fingerprint.rabin_karp.naive_prefix_fingerprints`) and
    ``q[s, 0, 0] = q_s``.
    """
    forward = np.stack([spec.place_values(length) for spec in specs])
    q = np.array([spec.prime for spec in specs], dtype=np.uint64)[:, None]
    unscale = np.array([pow(spec.radix, -(length - 1), spec.prime)
                        for spec in specs], dtype=np.uint64)[:, None]
    inverse = (forward[:, ::-1] * unscale) % q
    consts = forward[:, :, None], inverse[:, :, None], q[:, :, None]
    for array in consts:
        array.setflags(write=False)
    return consts


def key_rows(codes: np.ndarray, specs: tuple[HashSpec, ...],
             lengths: np.ndarray, workspace: ScanWorkspace,
             out: list[np.ndarray]) -> None:
    """Packed prefix and suffix keys of the given lengths, length-major.

    ``codes`` is ``(m, L)`` ``uint8``, ``lengths`` strictly increasing
    within ``1..L``; key lane ``k`` packs hashes ``specs[2k]`` (high word)
    and ``specs[2k+1]``. Fills ``out[k][0, i, r]`` with the key of the
    length-``lengths[i]`` prefix of read ``r`` and ``out[k][1, i, r]`` with
    that of its suffix, each ``out[k]`` a ``(2, len(lengths), m)``
    ``uint64`` array of any strides — bit-identical to packing the kept
    columns of :func:`prefix_fingerprints_batch` /
    :func:`suffix_fingerprints_batch`.

    Closed form instead of the log-step doubling scan, on
    ``(n_specs, L, rows)`` tensors so the cumulative sums run down axis 1
    as whole-row vector adds:
    ``f(read[:l]) = σ^(l-1) · Σ_{j<l} codes[j]·σ^(-j) mod q`` and, directly
    rather than from the prefixes,
    ``f(read[L-l:]) = Σ_{k<l} codes[L-1-k]·σ^k mod q`` — the same scan over
    the reversed read against forward place values, so both sides keep row
    ``l - 1``. Only kept rows are reduced: three ``% q`` per kept length
    where the all-columns scan spends five per position. Every
    intermediate is exact in ``uint64``: codes ≤ 3 times a residue stays
    below ``2^33`` unreduced, a cumulative sum of those is bounded by
    ``3·(q − 1)·L < 2^64`` for any ``L < 2^30``, and products of residues
    stay below ``2^62``.

    Reads are walked in tiles of :func:`tile_rows`, so the workspace holds
    one tile whatever ``m`` is; ``m = 0`` touches nothing.
    """
    m, length = codes.shape
    n_specs = len(specs)
    forward, inverse, q = _scan_consts(specs, length)
    first, last = int(lengths[0]), int(lengths[-1])
    # A contiguous range is read through a view, a sparse one gathered.
    rows = slice(first - 1, last) if last - first + 1 == len(lengths) \
        else lengths - 1
    rescale = forward[:, rows]
    tile = tile_rows(n_specs, length)
    for lo in range(0, m, tile):
        hi = min(lo + tile, m)
        # One strided uint8 -> uint64 pass; both scans then read whole rows.
        positions = workspace.take("codes", (length, hi - lo))
        np.copyto(positions, codes[lo:hi].T)
        sums = workspace.take("sums", (n_specs, length, hi - lo))
        kept = workspace.take("kept", (n_specs, len(lengths), hi - lo))
        for side, (source, places) in enumerate(((positions, inverse),
                                                 (positions[::-1], forward))):
            np.multiply(source, places, out=sums)
            np.cumsum(sums, axis=1, out=sums)
            np.remainder(sums[:, rows], q, out=kept)
            if side == 0:
                np.multiply(kept, rescale, out=kept)
                np.remainder(kept, q, out=kept)
            for lane, keys in enumerate(out):
                high = kept[2 * lane]
                np.left_shift(high, PACK_SHIFT, out=high)
                np.bitwise_or(high, kept[2 * lane + 1],
                              out=keys[side, :, lo:hi])
