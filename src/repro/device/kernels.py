"""Numpy implementations of the data-parallel device kernels.

These are the *semantics* of the paper's Thrust primitives; timing and
memory accounting live in :class:`repro.device.gpu.VirtualGPU`. All kernels
are pure functions on arrays.

Keys are ``uint64``; every kernel that reorders keys carries an arbitrary
tuple of payload arrays along (read-ids, auxiliary fingerprint lanes).

Two sort implementations are provided: :func:`sort_records` (numpy stable
argsort — the fast path) and :func:`lsd_radix_sort_indices` (a faithful
LSD radix sort with per-digit counting passes, as in Merrill & Grimshaw's
GPU sort the paper builds on). They are equivalent; tests assert it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SortContractError

Payloads = tuple[np.ndarray, ...]

#: The field of a structured record the record kernels sort, merge and
#: search on (:mod:`repro.extmem.records` lays the records out around it).
KEY_FIELD = "key"


def _check_payloads(keys: np.ndarray, payloads: Payloads) -> None:
    for payload in payloads:
        if payload.shape[0] != keys.shape[0]:
            raise SortContractError("payload length does not match key length")


def sort_records(keys: np.ndarray, *payloads: np.ndarray) -> tuple[np.ndarray, Payloads]:
    """Stable sort of records by key; returns sorted copies."""
    keys = np.ascontiguousarray(keys)
    _check_payloads(keys, payloads)
    order = np.argsort(keys, kind="stable")
    return keys[order], tuple(payload[order] for payload in payloads)


def lsd_radix_sort_indices(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting ``keys`` via byte-wise LSD counting passes.

    One stable counting-sort pass per key byte, least-significant first —
    the classic GPU radix-sort structure. Used as a reference implementation
    (the fast path delegates to numpy's sort, which is semantically equal).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    order = np.arange(n, dtype=np.int64)
    if n <= 1:
        return order
    for pass_index in range(8):  # 8 bytes per uint64 key
        digits = ((keys[order] >> np.uint64(8 * pass_index)) & np.uint64(0xFF)).astype(np.int64)
        counts = np.bincount(digits, minlength=256)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        next_order = np.empty_like(order)
        for digit in np.nonzero(counts)[0]:
            bucket = order[digits == digit]
            next_order[starts[digit]:starts[digit] + bucket.shape[0]] = bucket
        order = next_order
        if counts.max() == n:  # all records share this digit; pass was a no-op
            continue
    return order


def merge_sorted_records(keys_a: np.ndarray, payloads_a: Payloads,
                         keys_b: np.ndarray, payloads_b: Payloads,
                         ) -> tuple[np.ndarray, Payloads]:
    """Stable merge of two sorted runs (A-records precede equal B-records).

    Implemented with the searchsorted rank trick: A's output position is its
    own rank plus the count of strictly smaller B keys; B's is its rank plus
    the count of less-or-equal A keys.
    """
    if len(payloads_a) != len(payloads_b):
        raise SortContractError("runs carry different payload arity")
    _check_payloads(keys_a, payloads_a)
    _check_payloads(keys_b, payloads_b)
    n_a, n_b = keys_a.shape[0], keys_b.shape[0]
    out_keys = np.empty(n_a + n_b, dtype=_common_dtype(keys_a, keys_b))
    pos_a = np.arange(n_a, dtype=np.int64) + np.searchsorted(keys_b, keys_a, side="left")
    pos_b = np.arange(n_b, dtype=np.int64) + np.searchsorted(keys_a, keys_b, side="right")
    out_keys[pos_a] = keys_a
    out_keys[pos_b] = keys_b
    out_payloads = []
    for payload_a, payload_b in zip(payloads_a, payloads_b):
        out = np.empty((n_a + n_b,) + payload_a.shape[1:],
                       dtype=_common_dtype(payload_a, payload_b))
        out[pos_a] = payload_a
        out[pos_b] = payload_b
        out_payloads.append(out)
    return out_keys, tuple(out_payloads)


def merge_sorted_records_k(runs_keys: Sequence[np.ndarray],
                           runs_payloads: Sequence[Payloads],
                           ) -> tuple[np.ndarray, Payloads]:
    """Stable gathered k-way merge of sorted runs (run order breaks ties).

    The k runs are concatenated and a stable key sort produces the gather
    stencil — one global data movement instead of ``k - 1`` pairwise
    passes, which is how a GPU multiway merge batches its way through a
    tournament. Equivalent to folding :func:`merge_sorted_records` over
    the runs; tests assert it.
    """
    runs_keys = tuple(runs_keys)
    runs_payloads = tuple(tuple(p) for p in runs_payloads)
    if len(runs_keys) != len(runs_payloads) or not runs_keys:
        raise SortContractError("k-way merge needs one payload tuple per run")
    arities = {len(payloads) for payloads in runs_payloads}
    if len(arities) != 1:
        raise SortContractError("runs carry different payload arity")
    for keys, payloads in zip(runs_keys, runs_payloads):
        _check_payloads(keys, payloads)
    if len(runs_keys) == 1:
        return (runs_keys[0].copy(),
                tuple(p.copy() for p in runs_payloads[0]))
    all_keys = np.concatenate(runs_keys)
    order = np.argsort(all_keys, kind="stable")
    out_payloads = tuple(
        np.concatenate([payloads[lane] for payloads in runs_payloads])[order]
        for lane in range(arities.pop()))
    return all_keys[order], out_payloads


def _common_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """Common dtype of two arrays, allowing (equal) structured dtypes."""
    if a.dtype == b.dtype:
        return a.dtype
    if a.dtype.names or b.dtype.names:
        raise SortContractError("cannot merge runs with different record dtypes")
    return np.result_type(a, b)


def vectorized_bounds(haystack: np.ndarray, queries: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-query ``(lower_bound, upper_bound)`` in a sorted haystack.

    This is the GPU_VEC_LOWER_BOUND / GPU_VEC_UPPER_BOUND pair of the
    paper's Algorithm 2; ``upper - lower`` is each query's occurrence count.
    """
    lower = np.searchsorted(haystack, queries, side="left")
    upper = np.searchsorted(haystack, queries, side="right")
    return lower.astype(np.int64), upper.astype(np.int64)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (Fig. 7's offset computation)."""
    values = np.asarray(values)
    out = np.empty(values.shape[0], dtype=np.int64)
    if out.shape[0]:
        out[0] = 0
        np.cumsum(values[:-1], out=out[1:])
    return out


def gather(source: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Thrust-style gather: ``out[i] = source[stencil[i]]``."""
    return source[stencil]


def scatter(values: np.ndarray, stencil: np.ndarray, out_size: int) -> np.ndarray:
    """Thrust-style scatter: ``out[stencil[i]] = values[i]``.

    Duplicate stencil entries are a contract violation (the compress phase
    guarantees uniqueness: one path slot per read)."""
    if stencil.shape[0] != values.shape[0]:
        raise SortContractError("scatter stencil length mismatch")
    if stencil.shape[0]:
        unique = np.unique(stencil)
        if unique.shape[0] != stencil.shape[0]:
            raise SortContractError("scatter stencil contains duplicates")
    out = np.zeros((out_size,) + values.shape[1:], dtype=values.dtype)
    out[stencil] = values
    return out


def raw_view(records: np.ndarray) -> np.ndarray:
    """``records`` as opaque ``V<itemsize>`` items over the same memory.

    numpy copies and gathers a packed structured dtype field by field; the
    same bytes viewed as void items move with one ``memcpy`` per record.
    Strides carry over, so a non-contiguous array views just as well.
    """
    return records.view(np.dtype((np.void, records.dtype.itemsize)))


def copy_records(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for equal dtypes, moved as bytes."""
    if dst.dtype != src.dtype:
        raise SortContractError("cannot copy records between different dtypes")
    raw_view(dst)[...] = raw_view(src)


def require_sorted(keys: np.ndarray, *, context: str) -> None:
    """Assert a key array is non-decreasing (merge/reduce precondition)."""
    if keys.shape[0] > 1 and (keys[1:] < keys[:-1]).any():
        raise SortContractError(f"{context}: input run is not sorted")
