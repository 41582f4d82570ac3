"""Assembly-quality metrics and paper-vs-measured reporting."""

from .ascii_plot import AsciiChart
from .metrics import (aligned_n50, assembly_quality, contig_accuracy,
                      dup_ratio, genome_fraction)
from .reporting import ComparisonTable, format_cell

__all__ = ["AsciiChart", "aligned_n50", "assembly_quality",
           "contig_accuracy", "dup_ratio", "genome_fraction",
           "ComparisonTable", "format_cell"]
