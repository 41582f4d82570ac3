"""Path extraction from the greedy string graph (paper §III.D, stage 1).

Traversal seeds are vertices with in-degree 0 and out-degree 1; each path is
extended by following out-edges until a vertex without one. Because degrees
are capped at one, a vertex belongs to at most one path, and every path has
a reverse-complement twin (or is its own twin); :meth:`PathSet.deduplicated`
keeps one canonical representative per pair.

The walk itself is vectorized: all paths advance one hop per step (a single
gather on the target array), so the host-side cost is O(total path length)
numpy work — the paper reports this stage takes under a minute even for the
human genome, and it is equally negligible here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphInvariantError
from .string_graph import NO_EDGE, GreedyStringGraph


@dataclass(frozen=True)
class PathSet:
    """Paths in flattened CSR-like form.

    ``vertices[path_offsets[i]:path_offsets[i+1]]`` are the oriented-read
    vertices of path ``i``, and ``overhangs`` aligns with ``vertices``: the
    number of leading bases each read contributes to the contig (its full
    length for the last read of a path).
    """

    path_offsets: np.ndarray  #: (n_paths + 1,) int64
    vertices: np.ndarray      #: (total,) int64
    overhangs: np.ndarray     #: (total,) int64

    @property
    def n_paths(self) -> int:
        """Number of paths."""
        return self.path_offsets.shape[0] - 1

    def path(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The (vertices, overhangs) of one path."""
        start, stop = self.path_offsets[index], self.path_offsets[index + 1]
        return self.vertices[start:stop], self.overhangs[start:stop]

    def lengths(self) -> np.ndarray:
        """Number of reads per path."""
        return np.diff(self.path_offsets)

    def contig_lengths(self) -> np.ndarray:
        """Bases each path will spell (sum of its overhangs)."""
        sums = np.concatenate(([0], np.cumsum(self.overhangs)))
        return sums[self.path_offsets[1:]] - sums[self.path_offsets[:-1]]

    def deduplicated(self) -> "PathSet":
        """Drop the reverse-complement twin of each path.

        A path ``v₀ … v_k`` is kept iff ``v₀ ≤ complement(v_k)``; its twin
        ``comp(v_k) … comp(v₀)`` then satisfies the opposite inequality
        (self-complementary paths, where ``v₀ == comp(v_k)``, are their own
        twin and are kept).
        """
        firsts = self.vertices[self.path_offsets[:-1]]
        lasts = self.vertices[self.path_offsets[1:] - 1]
        keep = firsts <= (lasts ^ 1)
        return self._subset(np.nonzero(keep)[0])

    def _subset(self, path_indices: np.ndarray) -> "PathSet":
        lengths = self.lengths()[path_indices]
        new_offsets = np.concatenate(([0], np.cumsum(lengths)))
        take = np.concatenate([
            np.arange(self.path_offsets[i], self.path_offsets[i + 1])
            for i in path_indices
        ]) if path_indices.size else np.empty(0, dtype=np.int64)
        return PathSet(new_offsets, self.vertices[take], self.overhangs[take])


def extract_paths(graph: GreedyStringGraph) -> PathSet:
    """Walk the graph into a :class:`PathSet`.

    Reads with no overlaps at all (in-degree 0, out-degree 0) become
    single-read paths, after the walked ones. Every read appears in at
    most one returned path, and a dropped read
    (:meth:`~repro.graph.GreedyStringGraph.close_reads`) in none. Vertices on cycles are
    unreachable from any seed and are skipped (with equal-length reads a
    cycle can only arise from repeats spanning whole reads).
    """
    has_out = graph.target != NO_EDGE
    # Dropped reads (duplicates) have neither edge and are on no path.
    no_in = ~graph.has_in_edge() & ~graph.dropped()
    seeds = np.nonzero(has_out & no_in)[0]
    # A vertex is on at most one path, so the walk fills two flat arrays;
    # a list of per-step arrays costs megabytes in small allocations (a
    # long path is thousands of steps with a handful of paths alive).
    flat_vertices = np.empty(graph.n_vertices, dtype=np.int64)
    flat_paths = np.empty(graph.n_vertices, dtype=np.int64)
    # Each hop is a handful of numpy calls on a few alive paths: an int64
    # successor array (-1: no out-edge) spares every one a uint32 cast.
    successor = graph.target.astype(np.int64)
    successor[~has_out] = -1
    filled = 0
    current = seeds
    path_ids = np.arange(seeds.shape[0], dtype=np.int64)
    while current.size:
        stop = filled + current.shape[0]
        if stop > graph.n_vertices:
            raise GraphInvariantError("traversal exceeded vertex count (cycle with a seed?)")
        flat_vertices[filled:stop] = current
        flat_paths[filled:stop] = path_ids
        filled = stop
        nxt = successor[current]
        alive = nxt >= 0
        current = nxt[alive]
        path_ids = path_ids[alive]

    # Order by (path, step): steps were written in order, so a stable sort
    # on the path id groups each path with steps already ascending.
    flat_paths = flat_paths[:filled]
    flat_vertices = flat_vertices[:filled][np.argsort(flat_paths, kind="stable")]
    lengths = np.bincount(flat_paths, minlength=seeds.shape[0])

    singles = np.nonzero(~has_out & no_in)[0]
    flat_vertices = np.concatenate([flat_vertices, singles])
    lengths = np.concatenate([lengths, np.ones(singles.shape[0], dtype=np.int64)])

    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    overhangs = graph.overhangs()[flat_vertices]
    return PathSet(offsets, flat_vertices, overhangs)
