"""Path traversal, dedup, and contig spelling."""

import numpy as np
import pytest

from repro.graph import (GreedyStringGraph, extract_paths, spell_contigs)
from repro.seq.alphabet import encode
from repro.seq.records import ReadBatch


def chain_graph(n_reads=5, read_length=10, overlap=6) -> GreedyStringGraph:
    """A graph whose forward vertices form one chain 0→2→4→…"""
    graph = GreedyStringGraph(n_reads, read_length)
    for i in range(n_reads - 1):
        graph.add_candidates(np.array([2 * i]), np.array([2 * i + 2]), overlap)
    return graph


class TestExtractPaths:
    def test_chain_becomes_one_path_plus_twin(self):
        graph = chain_graph()
        paths = extract_paths(graph)
        assert paths.n_paths == 2  # the chain and its reverse-complement twin
        vertices, overhangs = paths.path(0)
        forward = vertices if vertices[0] == 0 else paths.path(1)[0]
        assert forward.tolist() == [0, 2, 4, 6, 8]
        assert paths.lengths().tolist() == [5, 5]

    def test_overhangs_and_contig_lengths(self):
        graph = chain_graph(n_reads=3, read_length=10, overlap=6)
        paths = extract_paths(graph)
        # overhang 4, 4, then 10 for the last read: contig = 18 bases
        assert sorted(paths.contig_lengths().tolist()) == [18, 18]

    def test_each_vertex_in_at_most_one_path(self):
        graph = chain_graph()
        paths = extract_paths(graph)
        assert np.unique(paths.vertices).shape[0] == paths.vertices.shape[0]

    def test_singletons_included_by_default(self):
        graph = GreedyStringGraph(3, 10)  # no edges at all
        paths = extract_paths(graph)
        assert paths.n_paths == 6  # every oriented read alone

    def test_empty_graph(self):
        paths = extract_paths(GreedyStringGraph(0, 10))
        assert paths.n_paths == 0
        assert paths.deduplicated().n_paths == 0


class TestDedup:
    def test_halves_path_count(self):
        graph = chain_graph()
        paths = extract_paths(graph)
        deduped = paths.deduplicated()
        assert deduped.n_paths == 1

    def test_singleton_dedup_keeps_forward(self):
        graph = GreedyStringGraph(2, 10)
        deduped = extract_paths(graph).deduplicated()
        assert deduped.n_paths == 2
        assert all(v % 2 == 0 for v in deduped.vertices)

    def test_twins_spell_reverse_complements(self):
        reads = ["AAACCCGGGT", "ACCCGGGTTA"]  # r0 suffix 8 == r1 prefix 8
        batch = ReadBatch.from_strings(reads)
        oriented = np.empty((4, 10), dtype=np.uint8)
        oriented[0::2] = batch.codes
        oriented[1::2] = batch.reverse_complements().codes
        graph = GreedyStringGraph(2, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 8)
        paths = extract_paths(graph)
        contigs = spell_contigs(paths, oriented)
        texts = {"".join("ACGT"[c] for c in codes) for codes in contigs}
        from repro.seq.alphabet import reverse_complement_str
        assert len(texts) == 2
        a, b = sorted(texts)
        assert reverse_complement_str(a) == b or reverse_complement_str(b) == a


class TestSpellContigs:
    def test_known_chain(self):
        # r0=ABCDEFGHIJ style: build from a genome substring
        genome = encode("ACGTTGCAACGGTTAACC")
        reads = [genome[i:i + 10] for i in (0, 4, 8)]
        batch = ReadBatch(np.stack(reads))
        oriented = np.empty((6, 10), dtype=np.uint8)
        oriented[0::2] = batch.codes
        oriented[1::2] = batch.reverse_complements().codes
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([0]), np.array([2]), 6)
        graph.add_candidates(np.array([2]), np.array([4]), 6)
        paths = extract_paths(graph).deduplicated()
        contigs = spell_contigs(paths, oriented)
        assert contigs.n_contigs == 1
        spelled = contigs.contig_codes(0)
        assert np.array_equal(spelled, genome) or np.array_equal(
            spelled, encode("ACGTTGCAACGGTTAACC"))

    def test_empty(self):
        graph = GreedyStringGraph(0, 10)
        paths = extract_paths(graph)
        contigs = spell_contigs(paths, np.empty((0, 10), dtype=np.uint8))
        assert contigs.n_contigs == 0

    def test_rejects_bad_matrix(self):
        from repro.errors import ConfigError
        graph = GreedyStringGraph(1, 10)
        paths = extract_paths(graph)
        with pytest.raises(ConfigError):
            spell_contigs(paths, np.zeros(10, dtype=np.uint8))
