"""GFA export."""

import io

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import GreedyStringGraph, extract_paths
from repro.graph.gfa import read_gfa_summary, write_gfa
from repro.seq.records import ReadBatch


@pytest.fixture()
def small_graph():
    graph = GreedyStringGraph(4, 10)
    graph.add_candidates(np.array([0, 2]), np.array([2, 4]), 6)
    return graph


class TestWriteGfa:
    def test_record_counts(self, small_graph):
        buffer = io.StringIO()
        counts = write_gfa(buffer, small_graph)
        assert counts["S"] == 4
        assert counts["L"] == 2  # 4 directed edges -> 2 canonical links
        text = buffer.getvalue()
        assert text.startswith("H\tVN:Z:1.0")
        assert "L\tread0\t+\tread1\t+\t6M" in text

    def test_sequences_embedded(self, small_graph):
        batch = ReadBatch.from_strings(["ACGTACGTAC"] * 4)
        buffer = io.StringIO()
        write_gfa(buffer, small_graph, read_codes=batch.codes)
        assert "S\tread0\tACGTACGTAC" in buffer.getvalue()

    def test_placeholder_sequences_have_length_tag(self, small_graph):
        buffer = io.StringIO()
        write_gfa(buffer, small_graph)
        assert "LN:i:10" in buffer.getvalue()

    def test_paths_written(self, small_graph):
        paths = extract_paths(small_graph).deduplicated()
        buffer = io.StringIO()
        counts = write_gfa(buffer, small_graph, paths=paths)
        assert counts["P"] == paths.n_paths
        text = buffer.getvalue()
        assert "P\tcontig0\t" in text
        # path steps reference segments with orientations
        path_line = [l for l in text.splitlines() if l.startswith("P")][0]
        assert "read0+" in path_line or "read2-" in path_line

    def test_read_codes_validation(self, small_graph):
        with pytest.raises(ConfigError):
            write_gfa(io.StringIO(), small_graph,
                      read_codes=np.zeros((2, 10), dtype=np.uint8))

    def test_file_roundtrip(self, small_graph, tmp_path):
        path = tmp_path / "graph.gfa"
        write_gfa(path, small_graph)
        summary = read_gfa_summary(path)
        assert summary == {"H": 1, "S": 4, "L": 2}

    def test_rc_orientation_flags(self):
        graph = GreedyStringGraph(3, 10)
        graph.add_candidates(np.array([1]), np.array([4]), 5)  # rc(0) -> fwd(2)
        buffer = io.StringIO()
        write_gfa(buffer, graph)
        assert "L\tread0\t-\tread2\t+\t5M" in buffer.getvalue()
