"""Ablation D3 — greedy best-overlap graph vs full graph + transitive reduction.

The paper chooses the greedy rule (≤1 in/out edge, an out-degree bit per
vertex) over the classic Myers/SGA construction (keep all overlap edges,
remove transitive ones). The trade-off quantified here on one dataset:

* memory per vertex: O(1) greedy vs O(overlap-degree) full graph — at 40x
  coverage the full graph stores tens of edges per vertex before reduction,
* build time: one bit-vector pass vs edge-dict insertion + O(d²) reduction,
* assembly quality: comparable contiguity on error-free data.
"""

import time

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.baselines import exact_overlaps, greedy_graph_from_overlaps
from repro.graph import extract_paths, spell_contigs
from repro.graph.simplify import FullOverlapGraph
from repro.seq.datasets import tiny_dataset
from repro.seq.stats import assembly_stats
from repro.units import format_size

from _common import DATA_ROOT, emit


@pytest.mark.benchmark(group="ablation")
def test_ablation_greedy_vs_transitive_reduction(benchmark):
    md, batch = tiny_dataset(DATA_ROOT / "ablation", genome_length=4000,
                             read_length=50, coverage=20.0, min_overlap=25,
                             seed=41)
    overlaps = exact_overlaps(batch, 25)
    oriented = np.empty((2 * batch.n_reads, batch.read_length), dtype=np.uint8)
    oriented[0::2] = batch.codes
    oriented[1::2] = batch.reverse_complements().codes

    def build_greedy():
        return greedy_graph_from_overlaps(overlaps, batch)

    greedy = benchmark.pedantic(build_greedy, rounds=1, iterations=1)
    start = time.perf_counter()
    build_greedy()
    greedy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    full = FullOverlapGraph(batch.n_reads, batch.read_length)
    full.add_edges(np.array([o[0] for o in overlaps]),
                   np.array([o[1] for o in overlaps]),
                   np.array([o[2] for o in overlaps]))
    edges_before = full.n_edges
    removed = full.transitive_reduction()
    full_seconds = time.perf_counter() - start

    greedy_paths = extract_paths(greedy).deduplicated()
    greedy_stats = assembly_stats(spell_contigs(greedy_paths, oriented).lengths())
    unitigs = full.unitig_paths()
    unitig_lengths = [sum(overhang for _, overhang in path) for path in unitigs]
    full_stats = assembly_stats(unitig_lengths)

    table = ComparisonTable(
        "Ablation D3 - greedy bit-vector graph vs full graph + transitive reduction",
        ["variant", "edges", "memory", "build time", "N50", "contigs"],
    )
    table.add_row("greedy (paper)", greedy.n_edges, format_size(greedy.nbytes),
                  f"{greedy_seconds * 1e3:.0f} ms", greedy_stats["n50"],
                  greedy_stats["n_contigs"])
    table.add_row("full + reduction", f"{edges_before} -> {full.n_edges}",
                  format_size(full.nbytes_estimate()),
                  f"{full_seconds * 1e3:.0f} ms", full_stats["n50"],
                  full_stats["n_contigs"])
    table.add_note(f"transitive reduction removed {removed} edges; "
                   f"candidate overlaps: {len(overlaps):,}")
    emit("ablation_greedy", table)

    # The paper's rationale: greedy memory is per-vertex, not per-overlap.
    assert greedy.n_edges < edges_before
    assert greedy.nbytes < full.nbytes_estimate()
    # Both assemble: same order of magnitude of recovered sequence.
    assert greedy_stats["total_bases"] > 0 and full_stats["total_bases"] > 0
