"""Length statistics for read sets and assemblies (N50 and friends)."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import DatasetError


def n50(lengths: Sequence[int] | np.ndarray) -> int:
    """The N50 of a set of contig lengths.

    N50 is the largest length ``L`` such that contigs of length ≥ ``L``
    cover at least half the total assembled bases — the standard contiguity
    metric for assemblies.
    """
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size == 0:
        return 0
    if (arr <= 0).any():
        raise DatasetError("contig lengths must be positive")
    ordered = np.sort(arr)[::-1]
    cumulative = np.cumsum(ordered)
    half = cumulative[-1] / 2.0
    return int(ordered[np.searchsorted(cumulative, half)])


def nx(lengths: Sequence[int] | np.ndarray, fraction: float) -> int:
    """Generalized Nx (e.g. ``fraction=0.9`` for N90)."""
    if not 0.0 < fraction < 1.0:
        raise DatasetError("fraction must be in (0, 1)")
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size == 0:
        return 0
    ordered = np.sort(arr)[::-1]
    cumulative = np.cumsum(ordered)
    return int(ordered[np.searchsorted(cumulative, cumulative[-1] * fraction)])


def assembly_stats(contig_lengths: Iterable[int]) -> dict[str, int | float]:
    """Summary statistics of an assembly's contig lengths."""
    arr = np.asarray(list(contig_lengths), dtype=np.int64)
    if arr.size == 0:
        return {"n_contigs": 0, "total_bases": 0, "max_contig": 0,
                "mean_contig": 0.0, "n50": 0, "n90": 0}
    return {
        "n_contigs": int(arr.size),
        "total_bases": int(arr.sum()),
        "max_contig": int(arr.max()),
        "mean_contig": float(arr.mean()),
        "n50": n50(arr),
        "n90": nx(arr, 0.9),
    }
