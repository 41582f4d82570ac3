"""The greedy string graph (paper §III.C).

Candidate edges arrive from the reduce phase in **descending overlap-length
order** (longest overlaps first — the greedy heuristic of PHRAP/Edena the
paper adopts). For each candidate ``(u, v, l)`` the graph checks its
out-degree bit-vector: if either ``u`` or ``v' = complement(v)`` already has
an outgoing edge the candidate is discarded; otherwise both ``(u, v, l)``
and ``(v', u', l)`` are inserted and both bits set. Complement symmetry then
guarantees in-degree ≤ 1 as well (an in-edge of ``v`` is an out-edge of
``v'``).

Candidates inside one batch are resolved in array order with exact
sequential-greedy semantics, but vectorized: each round accepts every
candidate whose two claimed vertices (``u`` and ``v'``) are not claimed by
any earlier candidate in the remaining list, applies them, re-filters, and
repeats. Each round accepts at least the earliest remaining candidate, and
an accepted candidate is always one sequential greedy would accept, so the
fixpoint equals the sequential result.

The graph lives in *host* memory (the paper keeps it there: 2.5 G edges ≈
12 GB, far beyond device capacity, and fine-grained device locking was found
"detrimental"); an optional host memory pool accounts its footprint. The
graph is the edge and nothing else: per vertex a ``uint32`` target, a
one-byte overlap (two when reads are longer than 256 bases) and one
out-degree bit, 5.125 B a vertex. In-degrees are not stored: an edge
``u → v`` comes with its twin ``v' → u'``, so ``v`` has an in-edge exactly
when ``v'`` has an out-edge (:meth:`GreedyStringGraph.has_in_edge`).

A read can also be *dropped* before any edge exists: an exact duplicate of
a lower-numbered read, on either strand, closes both of its orientations
(:meth:`GreedyStringGraph.close_reads`). A dropped vertex has its out-bit
set and no target, so every later candidate that claims it is refused, and
it is on no path (:meth:`GreedyStringGraph.dropped`).
"""

from __future__ import annotations

import numpy as np

from ..device.memory import MemoryPool
from ..errors import ConfigError, GraphInvariantError
from .bitvector import PackedBitVector

#: ``target`` of a vertex without an out-edge (never a vertex id: the
#: constructor keeps ``2 · n_reads`` below it).
NO_EDGE = np.uint32(0xFFFF_FFFF)


class GreedyStringGraph:
    """At-most-one-in/one-out string graph over ``2 · n_reads`` vertices."""

    def __init__(self, n_reads: int, read_length: int,
                 host_pool: MemoryPool | None = None):
        if n_reads < 0 or read_length < 1:
            raise ConfigError("need n_reads >= 0 and read_length >= 1")
        if 2 * n_reads >= NO_EDGE:
            raise ConfigError(f"{n_reads} reads give more vertices than a "
                              "uint32 target can name")
        self.n_reads = n_reads
        self.read_length = read_length
        self.n_vertices = 2 * n_reads
        self.out_bits = PackedBitVector(self.n_vertices)
        self.target = np.full(self.n_vertices, NO_EDGE, dtype=np.uint32)
        # Overlaps are shorter than the reads: one byte holds them up to L = 256.
        self.overlap = np.zeros(self.n_vertices,
                                dtype=np.uint8 if read_length <= 256 else np.uint16)
        self._n_edges = 0
        self._candidates_seen = 0
        self._reads_closed = 0
        self._allocation = None
        if host_pool is not None:
            self._allocation = host_pool.alloc(self.nbytes, label="string-graph")

    @property
    def nbytes(self) -> int:
        """Host-memory footprint of the graph arrays."""
        return self.target.nbytes + self.overlap.nbytes + self.out_bits.nbytes

    @staticmethod
    def bytes_for(n_reads: int, read_length: int) -> int:
        """:attr:`nbytes` of the graph over ``n_reads`` reads of
        ``read_length`` bases, before it is built."""
        n_vertices = 2 * n_reads
        return n_vertices * (4 + (1 if read_length <= 256 else 2)) \
            + 8 * -(-n_vertices // 64)

    @property
    def n_edges(self) -> int:
        """Directed edges inserted (complement pairs count as two)."""
        return self._n_edges

    @property
    def reads_closed(self) -> int:
        """Reads dropped as duplicates (:meth:`close_reads`)."""
        return self._reads_closed

    @property
    def candidates_seen(self) -> int:
        """Candidate edges offered to the greedy rule so far."""
        return self._candidates_seen

    def release(self) -> None:
        """Free the host-pool reservation (if any)."""
        if self._allocation is not None:
            self._allocation.free()

    # -- construction -------------------------------------------------------

    def add_candidates(self, sources: np.ndarray, targets: np.ndarray,
                       length: int) -> int:
        """Offer a batch of candidate edges of one overlap length, in order.

        ``sources[i] → targets[i]`` with overlap ``length``. Returns the
        number of candidates accepted (complement twins not counted).
        """
        if not 1 <= length < self.read_length:
            raise ConfigError(f"overlap length {length} outside [1, {self.read_length})")
        u = np.asarray(sources, dtype=np.int64)
        v = np.asarray(targets, dtype=np.int64)
        if u.shape != v.shape:
            raise ConfigError("sources/targets length mismatch")
        self._candidates_seen += u.shape[0]
        if u.size and (min(u.min(), v.min()) < 0
                       or max(u.max(), v.max()) >= self.n_vertices):
            raise ConfigError("vertex id out of range")
        # Same-read pairs (self-loops and palindromic self-overlaps) never
        # become edges.
        keep = (u >> 1) != (v >> 1)
        u, v = u[keep], v[keep]
        accepted_total = 0
        while u.size:
            # Greedy eligibility against the current bit-vector.
            claim_a, claim_b = u, v ^ 1
            eligible = ~(self.out_bits.get(claim_a) | self.out_bits.get(claim_b))
            u, v = u[eligible], v[eligible]
            if not u.size:
                break
            accept = self._first_claim_mask(u, v ^ 1)
            self._apply_edges(u[accept], v[accept], length)
            accepted_total += int(accept.sum())
            u, v = u[~accept], v[~accept]
        return accepted_total

    def close_reads(self, reads: np.ndarray) -> int:
        """Drop ``reads``: set both orientations' out-bits, add no edge.

        Every candidate that claims a vertex of a dropped read is refused
        from then on, so the read ends up on no path. Reads must not have
        an edge yet (duplicates are closed before the first overlap
        length); a read already dropped is not counted twice. Returns the
        number of reads newly dropped.
        """
        reads = np.unique(np.asarray(reads, dtype=np.int64))
        if reads.size and (reads[0] < 0 or reads[-1] >= self.n_reads):
            raise ConfigError("read id out of range")
        vertices = reads << 1
        if np.any(self.target[vertices] != NO_EDGE) \
                or np.any(self.target[vertices | 1] != NO_EDGE):
            raise ConfigError("cannot drop a read that has an edge")
        fresh = vertices[~self.out_bits.get(vertices)]
        self.out_bits.set(np.concatenate([fresh, fresh | 1]))
        self._reads_closed += int(fresh.shape[0])
        return int(fresh.shape[0])

    @staticmethod
    def _first_claim_mask(claim_a: np.ndarray, claim_b: np.ndarray) -> np.ndarray:
        """Candidates whose both claims are first-claimed by themselves."""
        m = claim_a.shape[0]
        claim_vertices = np.concatenate([claim_a, claim_b])
        claim_owner = np.concatenate([np.arange(m), np.arange(m)])
        order = np.lexsort((claim_owner, claim_vertices))
        sorted_vertices = claim_vertices[order]
        firsts = np.ones(2 * m, dtype=bool)
        firsts[1:] = sorted_vertices[1:] != sorted_vertices[:-1]
        # first_claimer[vertex] propagated to every claim of that vertex
        group_first_owner = np.minimum.reduceat(
            claim_owner[order], np.nonzero(firsts)[0])
        group_index = np.cumsum(firsts) - 1
        first_owner_sorted = group_first_owner[group_index]
        first_owner = np.empty(2 * m, dtype=np.int64)
        first_owner[order] = first_owner_sorted
        owners = np.arange(m)
        return (first_owner[:m] == owners) & (first_owner[m:] == owners)

    def _apply_edges(self, u: np.ndarray, v: np.ndarray, length: int) -> None:
        cu, cv = v ^ 1, u ^ 1
        self.target[u] = v
        self.target[cu] = cv
        self.overlap[u] = length
        self.overlap[cu] = length
        self.out_bits.set(np.concatenate([u, cu]))
        self._n_edges += 2 * u.shape[0]

    # -- queries ----------------------------------------------------------

    def out_vertex(self, vertex: int) -> int:
        """Target of ``vertex``'s out-edge, or -1."""
        target = self.target[vertex]
        return -1 if target == NO_EDGE else int(target)

    def has_in_edge(self) -> np.ndarray:
        """Per vertex, whether an edge ends there: ``v`` has an in-edge
        exactly when its complement ``v ^ 1`` has an out-edge (the twin)."""
        return self.target[np.arange(self.n_vertices) ^ 1] != NO_EDGE

    def dropped(self) -> np.ndarray:
        """Per vertex, whether its read was dropped (:meth:`close_reads`):
        the out-bit is set and there is no target."""
        bits = self.out_bits.get(np.arange(self.n_vertices))
        return bits & (self.target == NO_EDGE)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as int64 ``(sources, targets, overlaps)`` arrays."""
        sources = np.nonzero(self.target != NO_EDGE)[0]
        return (sources, self.target[sources].astype(np.int64),
                self.overlap[sources].astype(np.int64))

    def overhangs(self) -> np.ndarray:
        """Per-vertex overhang length: ``L − overlap`` (or ``L`` with no edge)."""
        out = np.full(self.n_vertices, self.read_length, dtype=np.int64)
        has_edge = self.target != NO_EDGE
        out[has_edge] = self.read_length - self.overlap[has_edge].astype(np.int64)
        return out

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate degree bounds and complement symmetry; raises on breakage."""
        # Out-degree <= 1 holds by representation: one target per vertex.
        sources, targets, overlaps = self.edge_list()
        if targets.size and (targets.min() < 0
                             or targets.max() >= self.n_vertices):
            raise GraphInvariantError("edge target out of range")
        if targets.size and np.bincount(
                targets, minlength=self.n_vertices).max() > 1:
            raise GraphInvariantError("in-degree > 1 detected")
        comp_targets = self.target[targets ^ 1]
        if not np.array_equal(comp_targets, sources ^ 1):
            raise GraphInvariantError("complement edge symmetry broken")
        if not np.array_equal(self.overlap[targets ^ 1], self.overlap[sources]):
            raise GraphInvariantError("complement overlap symmetry broken")
        bits_set = self.out_bits.get(np.arange(self.n_vertices))
        if not bits_set[sources].all():
            raise GraphInvariantError("out-degree bit-vector out of sync")
        # A set bit without a target is a dropped read, and only both of
        # its orientations together are.
        dropped = bits_set & (self.target == NO_EDGE)
        if not np.array_equal(dropped[0::2], dropped[1::2]):
            raise GraphInvariantError("dropped read with one orientation open")
        if int(dropped.sum()) != 2 * self._reads_closed:
            raise GraphInvariantError("dropped reads out of sync with their count")
