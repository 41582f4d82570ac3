"""Exact all-pair suffix–prefix overlaps, the ground-truth oracle.

For every oriented read (vertex) this hashes the *actual bytes* of each
prefix of length ``l ∈ [l_min, L)`` and probes each suffix against that
table — the textbook O(n·L²) construction the paper's §III opens with
("in theory, one can generate all suffixes and prefixes…"). It exists to
validate the fingerprint pipeline: any candidate edge the pipeline finds
that this module does not is a fingerprint false positive. Duplicate reads
are decided the same way, by comparing whole reads as strings
(:func:`duplicate_reads`), where the pipeline compares fingerprints.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import ConfigError
from ..graph import GreedyStringGraph
from ..seq.records import ReadBatch


def _oriented_codes(batch: ReadBatch) -> np.ndarray:
    """(2n, L) matrix: row ``2i`` read ``i`` forward, row ``2i+1`` its RC."""
    n, length = batch.codes.shape
    out = np.empty((2 * n, length), dtype=np.uint8)
    out[0::2] = batch.codes
    out[1::2] = batch.reverse_complements().codes
    return out


def duplicate_reads(batch: ReadBatch) -> np.ndarray:
    """Reads equal to a lower-numbered read, on either strand, ascending.

    The pipeline's rule (:func:`~repro.core.reduce_phase.close_duplicates`)
    decided by exact string equality: each class of equal reads keeps its
    lowest read, and a read equal to its own reverse complement is no
    duplicate of itself.
    """
    reverse = batch.reverse_complements().codes
    first: dict[bytes, int] = {}
    duplicates = []
    for read in range(batch.n_reads):
        canonical = min(batch.codes[read].tobytes(), reverse[read].tobytes())
        if first.setdefault(canonical, read) != read:
            duplicates.append(read)
    return np.array(duplicates, dtype=np.int64)


def exact_overlaps(batch: ReadBatch, min_overlap: int,
                   ) -> list[tuple[int, int, int]]:
    """All exact overlaps as ``(suffix_vertex, prefix_vertex, length)``.

    Overlap lengths span ``[min_overlap, L)``; same-read pairs are excluded
    (as the pipeline excludes them). The result is sorted by descending
    length, then suffix vertex, then prefix vertex — the deterministic order
    the reduce phase feeds candidates to the greedy rule.
    """
    length = batch.read_length
    if not 1 <= min_overlap < length:
        raise ConfigError("min_overlap must be in [1, read_length)")
    oriented = _oriented_codes(batch)
    n_vertices = oriented.shape[0]
    overlaps: list[tuple[int, int, int]] = []
    for l in range(length - 1, min_overlap - 1, -1):
        prefix_table: dict[bytes, list[int]] = defaultdict(list)
        for vertex in range(n_vertices):
            prefix_table[oriented[vertex, :l].tobytes()].append(vertex)
        for vertex in range(n_vertices):
            suffix = oriented[vertex, length - l:].tobytes()
            for target in prefix_table.get(suffix, ()):
                if (vertex >> 1) != (target >> 1):
                    overlaps.append((vertex, target, l))
    return overlaps


def pipeline_order_overlaps(batch: ReadBatch, min_overlap: int, scheme,
                            ) -> list[tuple[int, int, int]]:
    """Exact overlaps reordered exactly as the pipeline offers them.

    The reduce phase streams each length partition sorted by fingerprint
    and canonicalizes ties by vertex id, so within a length the greedy rule
    sees candidates in ``(fingerprint key, suffix vertex, prefix vertex)``
    order — not plain vertex order. ``scheme`` must be the run's
    :class:`~repro.fingerprint.FingerprintScheme` (same lanes and seed), so
    the oracle and the pipeline agree on the keys.
    """
    overlaps = exact_overlaps(batch, min_overlap)
    _, suffix_keys = scheme.key_matrices(
        _oriented_codes(batch), range(min_overlap, batch.read_length))
    lead = suffix_keys[0]

    def rank(item: tuple[int, int, int]) -> tuple[int, int, int, int]:
        suffix_vertex, prefix_vertex, l = item
        return (-l, int(lead[l - min_overlap, suffix_vertex]),
                suffix_vertex, prefix_vertex)

    return sorted(overlaps, key=rank)


def greedy_graph_pipeline_order(batch: ReadBatch, min_overlap: int, scheme,
                                ) -> GreedyStringGraph:
    """Reference greedy graph with candidates in pipeline stream order.

    This is the differential oracle's reference: any pipeline configuration
    (fanout, block sizes, node count) must produce exactly this graph.
    """
    return greedy_graph_from_overlaps(
        pipeline_order_overlaps(batch, min_overlap, scheme), batch)


def greedy_graph_from_overlaps(overlaps: list[tuple[int, int, int]],
                               batch: ReadBatch) -> GreedyStringGraph:
    """Feed an exact overlap list through the same greedy rule.

    The duplicate reads of ``batch`` are dropped first
    (:func:`duplicate_reads`), as the pipeline drops them at the whole-read
    length before any overlap. ``overlaps`` must already be in
    descending-length order (as :func:`exact_overlaps` returns). The
    result is the reference graph the pipeline's graph is compared against.
    """
    graph = GreedyStringGraph(batch.n_reads, batch.read_length)
    graph.close_reads(duplicate_reads(batch))
    index = 0
    while index < len(overlaps):
        l = overlaps[index][2]
        stop = index
        while stop < len(overlaps) and overlaps[stop][2] == l:
            stop += 1
        chunk = overlaps[index:stop]
        graph.add_candidates(np.array([c[0] for c in chunk], dtype=np.int64),
                             np.array([c[1] for c in chunk], dtype=np.int64), l)
        index = stop
    return graph
