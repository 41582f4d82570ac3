"""Quality metrics and comparison-table rendering."""

import numpy as np
import pytest

from repro.analysis import (ComparisonTable, aligned_n50, assembly_quality,
                            contig_accuracy, dup_ratio, format_cell,
                            genome_fraction)
from repro.graph.contigs import ContigSet
from repro.seq.stats import n50
from repro.seq.alphabet import encode, reverse_complement


def contig_set(*texts: str) -> ContigSet:
    codes = [encode(t) for t in texts]
    offsets = np.concatenate(([0], np.cumsum([c.shape[0] for c in codes])))
    flat = np.concatenate(codes) if codes else np.empty(0, dtype=np.uint8)
    return ContigSet(flat, offsets.astype(np.int64))


GENOME = encode("ACGTTGCAACGGTTAACCGTCGAT")


class TestContigAccuracy:
    def test_all_correct(self):
        contigs = contig_set("ACGTTGCA", "GGTTAACC")
        result = contig_accuracy(contigs, GENOME)
        assert result["accuracy"] == 1.0 and result["incorrect"] == 0

    def test_rc_counts_as_correct(self):
        rc_piece = "".join("ACGT"[c] for c in reverse_complement(GENOME[:10]))
        result = contig_accuracy(contig_set(rc_piece), GENOME)
        assert result["correct"] == 1

    def test_wrong_contig_detected(self):
        result = contig_accuracy(contig_set("ACGTTGCA", "AAAAAAAAAAA"), GENOME)
        assert result["incorrect"] == 1
        assert result["accuracy"] == 0.5

    def test_min_length_filter(self):
        result = contig_accuracy(contig_set("AC", "ACGTTGCA"), GENOME,
                                 min_length=5)
        assert result["checked"] == 1


class TestGenomeFraction:
    def test_full_cover(self):
        text = "".join("ACGT"[c] for c in GENOME)
        assert genome_fraction(contig_set(text), GENOME) == 1.0

    def test_partial(self):
        fraction = genome_fraction(contig_set("ACGTTGCA"), GENOME)
        assert fraction == pytest.approx(8 / 24)

    def test_rc_contig_projects_back(self):
        rc_piece = "".join("ACGT"[c] for c in reverse_complement(GENOME[4:14]))
        assert genome_fraction(contig_set(rc_piece), GENOME) \
            == pytest.approx(10 / 24)

    def test_wrong_contig_contributes_nothing(self):
        assert genome_fraction(contig_set("AAAAAAAAAAAAAAA"), GENOME) == 0.0

    def test_overlapping_contigs_not_double_counted(self):
        fraction = genome_fraction(contig_set("ACGTTGCA", "GTTGCAAC"), GENOME)
        assert fraction == pytest.approx(10 / 24)


class TestDupRatio:
    def test_each_base_spelled_once(self):
        text = "".join("ACGT"[c] for c in GENOME)
        assert dup_ratio(contig_set(text[:14], text[14:]), GENOME) == 1.0

    def test_a_contig_inside_another_is_spelled_twice(self):
        text = "".join("ACGT"[c] for c in GENOME)
        rc_piece = "".join("ACGT"[c] for c in reverse_complement(GENOME[4:14]))
        # 24 + 8 + 10 bases over 24 covered.
        assert dup_ratio(contig_set(text, text[2:10], rc_piece), GENOME) \
            == pytest.approx(42 / 24)

    def test_a_wrong_contig_adds_bases_and_no_cover(self):
        assert dup_ratio(contig_set("ACGTTGCA", "AAAAAAAAAAA"), GENOME) \
            == pytest.approx(19 / 8)
        assert dup_ratio(contig_set("AAAAAAAAAAA"), GENOME) == float("inf")


class TestAlignedN50:
    def test_equals_n50_when_every_contig_matches(self):
        contigs = contig_set("ACGTTGCAACGG", "GGTTAACC", "CGTCGAT")
        assert aligned_n50(contigs, GENOME) == n50([12, 8, 7]) == 8

    def test_a_wrong_contig_counts_against_the_assembly(self):
        # 8 matching bases of 19: the matching ones never reach half.
        assert aligned_n50(contig_set("ACGTTGCA", "AAAAAAAAAAA"), GENOME) == 0
        # 12 + 8 matching of 24: the 12 reaches half.
        contigs = contig_set("ACGTTGCAACGG", "GGTTAACC", "AAAA")
        assert aligned_n50(contigs, GENOME) == 12

    def test_assembly_quality_has_all_three(self):
        text = "".join("ACGT"[c] for c in GENOME)
        assert assembly_quality(contig_set(text, text), GENOME) == {
            "genome_fraction": 1.0, "dup_ratio": 2.0, "aligned_n50": 24}


class TestReporting:
    def test_format_cell(self):
        assert format_cell(None) == "OOM"
        assert format_cell(90, "duration") == "1m 30s"
        assert format_cell(12e9, "size") == "12.00 GB"
        assert format_cell(2.345, "ratio") == "2.35x"
        assert format_cell("plain") == "plain"

    def test_render_alignment_and_notes(self):
        table = ComparisonTable("Table X", ["dataset", "paper", "measured"],
                                ["raw", "duration", "duration"])
        table.add_row("H.Genome", 58869, 120.5)
        table.add_row("Tiny", None, 1.0)
        table.add_note("measured at scale 2e-5")
        text = table.render()
        assert "Table X" in text
        assert "16h 21m 09s" in text
        assert "OOM" in text
        assert "note: measured" in text
        widths = {len(line) for line in text.splitlines()[1:4]}
        assert len(widths) == 1  # columns aligned
