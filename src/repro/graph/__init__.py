"""String-graph substrate: the greedy graph, its bit-vector, and traversal.

Vertices are *oriented reads*: vertex ``2·r`` is read ``r`` forward, vertex
``2·r + 1`` is its Watson–Crick complement, so ``complement(v) == v ^ 1``.
Edges always come in complement pairs ``(u, v, l)`` / ``(v', u', l)``
(paper §II.A.2), and the greedy rule keeps in- and out-degree of every
vertex at most one (§III.C).
"""

from .bitvector import PackedBitVector
from .contigs import ContigSet, spell_contigs
from .gfa import write_gfa
from .string_graph import GreedyStringGraph
from .traverse import PathSet, extract_paths

__all__ = [
    "PackedBitVector",
    "ContigSet",
    "spell_contigs",
    "write_gfa",
    "GreedyStringGraph",
    "PathSet",
    "extract_paths",
]
