"""Baselines and reference implementations.

* :mod:`repro.baselines.naive_overlap` — exact all-pair suffix–prefix
  overlap enumeration by hashing the actual strings. Quadratic-ish and
  small-scale only, but *exact*: it is the ground truth the fingerprint
  pipeline is validated against (zero-false-positive checks).
* :mod:`repro.baselines.suffix_array` / :mod:`repro.baselines.fm_index` —
  the compressed-index substrate (prefix-doubling SA → BWT → rank
  structures) for the SGA-style baseline.
* :mod:`repro.baselines.sga` — an SGA-analog assembler: FM-index backward
  search finds exact overlaps ≥ ``l_min``; the same greedy graph and contig
  machinery produce its assembly. Used by the Table VI comparison.
* :mod:`repro.baselines.debruijn` — a k-mer (de Bruijn) assembler,
  demonstrating the repeat-collapse weakness that motivates string graphs
  (paper §II.A.1).
"""

from .naive_overlap import (duplicate_reads, exact_overlaps,
                            greedy_graph_from_overlaps)
from .suffix_array import suffix_array
from .fm_index import FMIndex
from .sga import SGAAssembler, SGAResult
from .debruijn import DeBruijnAssembler

__all__ = [
    "duplicate_reads",
    "exact_overlaps",
    "greedy_graph_from_overlaps",
    "suffix_array",
    "FMIndex",
    "SGAAssembler",
    "SGAResult",
    "DeBruijnAssembler",
]
