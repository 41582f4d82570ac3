"""Assembly-quality metrics against a known reference genome.

With error-free simulated reads (the regime the paper's exact-fingerprint
overlaps target), a correct assembly's contigs are exact substrings of the
reference or its reverse complement — checked by substring search. Genome
fraction is measured by projecting each correctly-placed contig back onto
reference coordinates and measuring covered bases. Two more numbers say
whether the contigs are the genome once: :func:`dup_ratio` (contig bases
spent per covered base; redundant contigs push it above 1) and
:func:`aligned_n50` (N50 of the contigs that match the reference, against
the whole assembly's length). :func:`assembly_quality` gives all three.
"""

from __future__ import annotations

import numpy as np

from ..graph.contigs import ContigSet
from ..seq.alphabet import decode, reverse_complement


def _reference_strings(genome_codes: np.ndarray) -> tuple[str, str]:
    return decode(genome_codes), decode(reverse_complement(genome_codes))


def contig_accuracy(contigs: ContigSet, genome_codes: np.ndarray,
                    *, min_length: int = 1) -> dict[str, int | float]:
    """Fraction of contigs that are exact substrings of the reference.

    Returns counts of checked/correct/incorrect contigs plus ``accuracy``.
    Contigs shorter than ``min_length`` are skipped.
    """
    forward, backward = _reference_strings(genome_codes)
    checked = correct = 0
    for codes in contigs:
        if codes.shape[0] < min_length:
            continue
        checked += 1
        text = decode(codes)
        if text in forward or text in backward:
            correct += 1
    return {
        "checked": checked,
        "correct": correct,
        "incorrect": checked - correct,
        "accuracy": (correct / checked) if checked else 1.0,
    }


def genome_fraction(contigs: ContigSet, genome_codes: np.ndarray,
                    *, min_length: int = 1) -> float:
    """Fraction of reference bases covered by correctly-placed contigs.

    Each contig that matches the reference (either strand) marks the
    corresponding reference interval covered (every occurrence, so repeats
    are handled); the result is covered bases / genome length.
    """
    covered = _covered(contigs, genome_codes, min_length)
    return float(covered.sum() / covered.size) if covered.size else 1.0


def dup_ratio(contigs: ContigSet, genome_codes: np.ndarray) -> float:
    """Contig bases per reference base the contigs cover.

    1.0 when every covered base is spelled once; a contig that repeats
    another's bases (on either strand) adds to the numerator only.
    Infinite when no contig matches the reference.
    """
    covered = int(_covered(contigs, genome_codes).sum())
    total = sum(codes.shape[0] for codes in contigs)
    return total / covered if covered else float("inf")


def aligned_n50(contigs: ContigSet, genome_codes: np.ndarray) -> int:
    """N50 of the contigs that match the reference, either strand.

    The half-way mark is half of *every* contig's bases, so a contig that
    matches nowhere counts against the assembly (0 when the matching ones
    never reach it). Equal to the plain N50 when every contig matches.
    """
    forward, backward = _reference_strings(genome_codes)
    total = 0
    aligned = []
    for codes in contigs:
        total += codes.shape[0]
        text = decode(codes)
        if text in forward or text in backward:
            aligned.append(codes.shape[0])
    ordered = sorted(aligned, reverse=True)
    at = int(np.searchsorted(np.cumsum(ordered), total / 2.0))
    return ordered[at] if at < len(ordered) else 0


def assembly_quality(contigs: ContigSet, genome_codes: np.ndarray,
                     ) -> dict[str, float | int]:
    """``genome_fraction``, ``dup_ratio`` and ``aligned_n50`` of one assembly."""
    return {"genome_fraction": genome_fraction(contigs, genome_codes),
            "dup_ratio": dup_ratio(contigs, genome_codes),
            "aligned_n50": aligned_n50(contigs, genome_codes)}


def _covered(contigs: ContigSet, genome_codes: np.ndarray,
             min_length: int = 1) -> np.ndarray:
    """Per reference base, whether a contig of at least ``min_length``
    bases matches over it (every occurrence, either strand)."""
    forward, backward = _reference_strings(genome_codes)
    n = len(forward)
    covered = np.zeros(n, dtype=bool)

    def mark(text: str, haystack: str, *, reverse: bool) -> None:
        start = haystack.find(text)
        while start != -1:
            if reverse:
                covered[n - start - len(text):n - start] = True
            else:
                covered[start:start + len(text)] = True
            start = haystack.find(text, start + 1)

    for codes in contigs:
        if codes.shape[0] < min_length:
            continue
        text = decode(codes)
        mark(text, forward, reverse=False)
        mark(text, backward, reverse=True)
    return covered
