"""The result object an assembly run returns."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..config import AssemblyConfig
from ..seq.alphabet import decode
from ..seq.fastq import write_fasta
from ..seq.stats import assembly_stats
from ..graph.traverse import PathSet
from ..telemetry import Telemetry
from .compress_phase import ContigSet
from .map_phase import MapReport
from .reduce_phase import ReduceReport
from .sort_phase import SortPhaseReport


@dataclass(frozen=True)
class AssemblyResult:
    """Everything produced by one :class:`~repro.core.pipeline.Assembler` run.

    ``telemetry`` holds per-phase wall/simulated times and memory peaks —
    the data behind the paper's Tables II–V; the phase reports expose the
    structural numbers (tuples written, disk passes, candidates, edges).
    """

    config: AssemblyConfig
    n_reads: int
    read_length: int
    contigs: ContigSet
    telemetry: Telemetry
    map_report: MapReport
    sort_report: SortPhaseReport
    reduce_report: ReduceReport
    n_paths: int
    #: The contig path table (one path per contig, aligned with ``contigs``);
    #: the fault sweep's ``result_digest`` hashes it.
    paths: PathSet | None = None

    # -- contig access -----------------------------------------------------

    def contig_lengths(self) -> np.ndarray:
        """Per-contig base counts."""
        return self.contigs.lengths()

    def contig_strings(self, *, min_length: int = 0) -> Iterator[str]:
        """Decode contigs (optionally only those of at least ``min_length``)."""
        for i in range(self.contigs.n_contigs):
            codes = self.contigs.contig_codes(i)
            if codes.shape[0] >= min_length:
                yield decode(codes)

    def write_fasta(self, path: str | Path, *, min_length: int = 0,
                    name_prefix: str = "contig") -> int:
        """Write contigs to FASTA; returns the number written."""
        def records():
            index = 0
            for seq in self.contig_strings(min_length=min_length):
                yield f"{name_prefix}.{index} length={len(seq)}", seq
                index += 1

        return write_fasta(path, records())

    # -- summaries -----------------------------------------------------------

    def stats(self, *, min_length: int = 0) -> dict[str, int | float]:
        """Assembly summary statistics (N50 etc.)."""
        lengths = self.contig_lengths()
        return assembly_stats(lengths[lengths >= min_length])

    def phase_seconds(self, *, simulated: bool = False) -> dict[str, float]:
        """Wall (or modeled) seconds per pipeline phase."""
        return {stats.name: (stats.sim_seconds if simulated else stats.wall_seconds)
                for stats in self.telemetry}

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        stats = self.stats()
        mapped = self.map_report.tuples_written
        n_sorted = self.sort_report.total_records
        # Counted on the reduce row: a graph looked up instead of built
        # read no run at all.
        reduce = self.telemetry["reduce"].counters \
            if "reduce" in self.telemetry else {}
        from_disk = int(reduce.get("sorted_runs_from_disk", 0))
        held = int(reduce.get("sorted_runs_held", 0))
        lines = [
            f"reads: {self.n_reads:,} × {self.read_length} bp",
            f"tuples mapped: {mapped:,}",
            # The rest were dropped unsorted: their vertex was already
            # closed when their length's turn came.
            f"sorted: {n_sorted:,} of {mapped:,} mapped "
            f"({100 * n_sorted / mapped:.1f} %)",
            f"sort disk passes (max): {self.sort_report.max_disk_passes}",
            # The rest were handed over in host memory by the sort.
            f"sorted runs reduce read from disk: {from_disk:,} of "
            f"{from_disk + held:,}",
            f"duplicate reads dropped: {self.reduce_report.reads_closed:,}",
            f"candidates: {self.reduce_report.candidates:,} "
            f"(aux-rejected {self.reduce_report.aux_rejected:,})",
            f"edges: {self.reduce_report.edges_added:,}",
            f"contigs: {stats['n_contigs']:,}  total {stats['total_bases']:,} bp  "
            f"N50 {stats['n50']:,}",
        ]
        lines.append(self.telemetry.report())
        return "\n".join(lines)
