#!/usr/bin/env python3
"""Distributed assembly across a simulated GPU cluster (paper §III.E).

Runs the same dataset on 1, 2, 4 and 8 simulated nodes and prints the
per-phase modeled times. The structure of Fig. 10 appears directly:

* map and sort scale with the node count (aggregate I/O bandwidth),
* the all-to-all shuffle exists only beyond one node,
* reduce scales sublinearly (the out-degree bit-vector token serializes
  greedy edge insertion across nodes),
* shuffle, sort and reduce take one overlap length per node per round, and
  a round's records are pulled minus those the bit-vector had closed when
  it began ("kept": the share of mapped records that reached an owner),
* the assembly itself is byte-for-byte invariant to the node count.
"""

import tempfile
from pathlib import Path

from repro import AssemblyConfig
from repro.distributed import DistributedAssembler
from repro.seq.datasets import tiny_dataset
from repro.units import format_duration


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="lasagna-dist-"))
    md, _ = tiny_dataset(root, genome_length=10_000, read_length=64,
                         coverage=25.0, min_overlap=31, seed=17)
    config = AssemblyConfig(min_overlap=31)
    print(f"dataset: {md.n_reads:,} reads of 64 bp\n")

    phases = ("map", "shuffle", "sort", "reduce", "compress")
    header = f"{'nodes':>5}  " + "".join(f"{p:>10}" for p in phases) \
        + f"{'total':>10}  {'edges':>8}  {'rounds':>6}  {'kept':>6}"
    print(header)
    print("-" * len(header))
    for n_nodes in (1, 2, 4, 8):
        result = DistributedAssembler(config, n_nodes).assemble(md.store_path)
        row = f"{n_nodes:>5}  " + "".join(
            f"{format_duration(result.phase_seconds[p]):>10}" for p in phases)
        kept = result.notes["records_shuffled"] / result.notes["records_eager"]
        print(row + f"{format_duration(result.total_seconds):>10}  "
              f"{result.edges:>8,}  {int(result.notes['rounds']):>6}  "
              f"{kept:>6.1%}")
    print("\n(times are modeled hardware seconds; the work itself really ran,"
          "\n once per configuration, on this machine)")


if __name__ == "__main__":
    main()
