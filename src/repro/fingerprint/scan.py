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

A band that *holds* each read's fingerprints at a length ``top`` above
its window (the band above it left them) folds nothing: a *descending
window scan* reads the window's codes ``lo + 1..top`` only. On the prefix
side it sums them place-weighted towards the window's start, ``W(l) =
Σ_{l<j≤top} c_j·σ^(top−j)``, and one elementwise pass turns each sum
into ``f(read[:l]) = (f(read[:top]) − W(l))·σ^−(top−l) mod q``; on the
suffix side it subtracts the place-weighted sums of the codes the
shorter suffix drops from ``f(read[L−top:])``. The band's shortest key
is then the fingerprint the next band descends from.

Here a *row of the batch matrix* plays the role of the thread block: each
scan step is one vectorized numpy expression over the whole ``(n_reads,
k)`` batch — the same data-parallel shape, so the virtual GPU charges it
as one seeded scan launch (:func:`repro.device.costs.scan_seconds`).

One production kernel and one reference. The per-spec functions
(:func:`prefix_fingerprints_batch` / :func:`suffix_fingerprints_batch`)
are the reference, drawn as the device runs them: one ``(n_reads, k)``
matrix per hash lane, a fresh temporary per step, a tree-reduction seed
(none below held fingerprints) and ``⌈log₂ k⌉`` doubling steps.
:func:`key_rows` is what the map phase
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


def _held(held: tuple[np.ndarray, int] | None, codes: np.ndarray,
          hi: int, name: str) -> tuple[np.ndarray, int] | None:
    """``held`` checked against a batch whose window ends at ``hi``."""
    if held is None:
        return None
    values, top = held
    values = np.asarray(values, dtype=np.uint64)
    if not hi < top <= codes.shape[1] or values.shape != codes.shape[:1]:
        raise ConfigError(f"{name} holds one fingerprint a read at a length "
                          f"within {hi + 1}..{codes.shape[1]}, got {top}")
    return values, top


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
                              window: tuple[int, int] | None = None,
                              held: tuple[np.ndarray, int] | None = None,
                              ) -> np.ndarray:
    """Prefix fingerprints of lengths ``lo..hi`` of every read in a batch.

    ``codes`` is ``(n_reads, L)`` ``uint8`` and ``window`` is ``(lo, hi)``
    with ``1 ≤ lo ≤ hi ≤ L``, ``(1, L)`` by default; the result is
    ``(n_reads, hi − lo + 1)`` ``uint64`` with ``out[r, j] =
    f(read_r[:lo + j])`` — columns ``lo − 1 .. hi − 1`` of the whole-read
    scan.

    ``held`` is ``(f(read_r[:top]) for every r, top)`` with ``hi < top ≤
    L``: the keys then descend from those fingerprints and read the codes
    ``lo + 1..top`` alone (the descending window scan).
    """
    codes = np.asarray(codes)
    lo, hi = _window(codes, window, "prefix_fingerprints_batch")
    held = _held(held, codes, hi, "prefix_fingerprints_batch")
    q = np.uint64(spec.prime)
    if held is not None:
        values, top = held
        # W[t] = Σ_{t'≥t} c[lo+t']·σ^(top-lo-1-t'): the codes f(read[:lo+t])
        # lacks, weighted by their place in f(read[:top]).
        sums = (codes[:, lo:top] * spec.place_values(top - lo)[::-1]) % q
        _descend(sums, q)
        # f(read[:lo+t]) = (f(read[:top]) - W[t]) * σ^-(top-lo-t).
        unplace = _inverse_places(spec, top - lo)[::-1]
        return ((values[:, None] + q - sums) % q * unplace % q)[:, :hi - lo + 1]
    prefix = codes[:, lo - 1:hi].astype(np.uint64)
    if prefix.size == 0:
        return prefix
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
                              window: tuple[int, int] | None = None,
                              held: tuple[np.ndarray, int] | None = None,
                              ) -> np.ndarray:
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

    ``held`` is ``(f(read_r[L−top:]) for every r, top)`` with ``hi < top
    ≤ L``: each key is then that fingerprint less the place-weighted codes
    ``L − top .. L − 1 − l`` its shorter suffix drops, summed by a doubling
    scan from the window's start (the descending window scan).
    """
    codes = np.asarray(codes)
    lo, hi = _window(codes, window, "suffix_fingerprints_batch")
    held = _held(held, codes, hi, "suffix_fingerprints_batch")
    length = codes.shape[1]
    q = np.uint64(spec.prime)
    if held is not None:
        values, top = held
        # D[t] = Σ_{t'≤t} c[L-top+t']·σ^(top-1-t'): what f(read[L-top+t+1:])
        # drops of f(read[L-top:]).
        places = spec.place_values(top)[lo:][::-1]
        dropped = (codes[:, length - top:length - lo] * places) % q
        _descend(dropped[:, ::-1], q)
        return (values[:, None] + q - dropped[:, top - 1 - hi:]) % q
    kept = codes[:, length - hi:length - lo + 1]
    if kept.size == 0:
        return kept.astype(np.uint64)
    # places[c] = sigma^(hi-1-c): the weight of position L - hi + c.
    places = spec.place_values(hi)[lo - 1:][::-1]
    suffix = (kept * places) % q
    if lo > 1:
        suffix[:, -1] = (suffix[:, -1] + _fold(codes[:, length - lo + 1:], spec)) % q
    _descend(suffix, q)
    return suffix


def _descend(sums: np.ndarray, q: np.uint64) -> None:
    """``sums[:, t] ← Σ_{t'≥t} sums[:, t']`` mod ``q`` in place: the
    additive doubling scan towards the row's start (any strides)."""
    offset = 1
    while offset < sums.shape[1]:
        # S[i] += S[i+d]  (mod q); one step of the scan.
        sums[:, :-offset] = (sums[:, :-offset] + sums[:, offset:]) % q
        offset *= 2


def _inverse_places(spec: HashSpec, length: int) -> np.ndarray:
    """``σ^−i mod q`` for ``i in [1, length]``."""
    inverse = pow(spec.radix, -1, spec.prime)
    out = np.empty(length, dtype=np.uint64)
    value = 1
    for i in range(length):
        value = value * inverse % spec.prime
        out[i] = value
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


#: Bound on a tile's largest buffer, its ``float64`` key sums ``(n_specs ·
#: len(lengths), tile)`` or the codes it reads ``(columns, tile)``: 93
#: reads when two lanes key every length of a 100-base read.
TILE_BYTES = 300_000

#: A packed key is ``high << 32 | low`` of two 31-bit residues.
PACK_SHIFT = np.uint64(32)

#: Longest read :func:`key_rows` keys exactly: a sum of ``L`` terms below
#: ``3·2^31`` stays below ``2^53``, where ``float64`` holds every integer.
MAX_EXACT_LENGTH = 1 << 20


def tile_rows(values: int) -> int:
    """Reads per tile of :func:`key_rows` whose largest buffer holds
    ``values`` ``float64`` values a read."""
    return max(1, TILE_BYTES // (8 * values))


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


@lru_cache(maxsize=64)
def _descent_weights(specs: tuple[HashSpec, ...], lengths: tuple[int, ...],
                     top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Place values of the window ``lengths[0] + 1..top`` a band descends
    through, as matrix rows, the rescaling powers and the moduli.

    Returns ``(prefix, suffix, unplace, q)``. With ``lo = lengths[0]``,
    ``prefix`` is ``(n_specs · len(lengths), top − lo)`` ``float64``: row
    ``s · K + i`` weighs the window's codes ``c[lo..top)`` (0-based) by
    their places in ``f(read[:top])``, ``radix_s^(top−1−j)``, from the
    first code the length-``l = lengths[i]`` prefix lacks on, so its
    product with those codes is ``W(l)``. ``suffix`` weighs the codes
    ``read[L−top:L−lo]`` by their places in ``f(read[L−top:])`` up to the
    last one the length-``l`` suffix drops. ``unplace`` is ``(n_specs,
    len(lengths), 1)`` ``uint64``, ``radix_s^−(top−l) mod q_s``, and ``q``
    ``(n_specs, 1, 1)`` ``uint64``.
    """
    lo = lengths[0]
    width = top - lo
    prefix = np.zeros((len(specs), len(lengths), width))
    suffix = np.zeros_like(prefix)
    unplace = np.empty((len(specs), len(lengths), 1), dtype=np.uint64)
    for s, spec in enumerate(specs):
        places = spec.place_values(top)[::-1].astype(np.float64)
        inverse = _inverse_places(spec, width)
        for i, length in enumerate(lengths):
            prefix[s, i, length - lo:] = places[length:]
            suffix[s, i, :top - length] = places[:top - length]
            unplace[s, i, 0] = inverse[top - length - 1]
    q = np.array([spec.prime for spec in specs], dtype=np.uint64)[:, None, None]
    consts = (prefix.reshape(-1, width), suffix.reshape(-1, width), unplace, q)
    for array in consts:
        array.setflags(write=False)
    return consts


def key_rows(codes: np.ndarray, specs: tuple[HashSpec, ...],
             lengths: np.ndarray, workspace: ScanWorkspace,
             out: list[np.ndarray], sides: tuple[int, ...] = (0, 1),
             held: tuple[list[np.ndarray], int] | None = None) -> None:
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

    ``held`` is ``(fingerprints, top)``: ``fingerprints[i]`` is an
    ``(n_specs, m)`` array of each read's residues of side ``sides[i]`` at
    the length ``top > max(lengths)``. The product then reads the window
    ``min(lengths) + 1..top`` alone, weighted by :func:`_descent_weights`,
    and the keys descend from the held residues as in the references'
    ``held``: a wrong fingerprint is a wrong key.

    Reads are walked in tiles of :func:`tile_rows`, so the workspace holds
    one tile whatever ``m`` is; ``m = 0`` touches nothing.
    """
    m, length = codes.shape
    if length > MAX_EXACT_LENGTH:
        raise ConfigError(f"reads longer than {MAX_EXACT_LENGTH} bases "
                          f"cannot be keyed exactly")
    n_specs = len(specs)
    lengths = tuple(int(l) for l in lengths)
    if held is None:
        *weights, q = _place_weights(specs, lengths)
        # The columns each side's product reads: the first ``last``
        # (prefixes), the final ``last`` (suffixes).
        last = lengths[-1]
        columns = ((0, last), (length - last, length))
    else:
        fingerprints, top = held
        if not lengths[-1] < top <= length:
            raise ConfigError(f"held fingerprints at length {top} are not "
                              f"above the lengths {lengths[0]}..{lengths[-1]}")
        *weights, unplace, q = _descent_weights(specs, lengths, top)
        columns = ((lengths[0], top), (length - top, length - lengths[0]))
    tile = tile_rows(max(weights[0].shape[0],
                         *(columns[side][1] - columns[side][0]
                           for side in sides)))
    for lo in range(0, m, tile):
        hi = min(lo + tile, m)
        sums = workspace.take("sums", (weights[0].shape[0], hi - lo),
                              np.float64)
        kept = workspace.take("kept", (n_specs, len(lengths), hi - lo))
        for slot, side in enumerate(sides):
            first, stop = columns[side]
            positions = workspace.take("codes", (stop - first, hi - lo),
                                       np.float64)
            np.copyto(positions, codes[lo:hi, first:stop].T)
            np.matmul(weights[side], positions, out=sums)
            np.copyto(kept, sums.reshape(kept.shape), casting="unsafe")
            np.remainder(kept, q, out=kept)
            if held is not None:
                # f(l) = f(top) - W(l), rescaled by σ^-(top-l) on the
                # prefix side; q - W keeps the difference unsigned.
                np.subtract(q, kept, out=kept)
                np.add(kept, fingerprints[slot][:, None, lo:hi], out=kept)
                np.remainder(kept, q, out=kept)
                if side == 0:
                    np.multiply(kept, unplace, out=kept)
                    np.remainder(kept, q, out=kept)
            for lane, keys in enumerate(out):
                high = kept[2 * lane]
                np.left_shift(high, PACK_SHIFT, out=high)
                np.bitwise_or(high, kept[2 * lane + 1],
                              out=keys[slot, :, lo:hi])
