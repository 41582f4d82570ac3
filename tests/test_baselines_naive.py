"""Naive exact overlapper — the oracle itself gets sanity checks."""

import numpy as np
import pytest

from repro.baselines import exact_overlaps, greedy_graph_from_overlaps
from repro.errors import ConfigError
from repro.seq.records import ReadBatch


class TestExactOverlaps:
    def test_hand_built_overlap(self):
        #            0123456789
        reads = ["AAACCCGGGT", "CCGGGTTTTA"]  # suffix 6 of r0 == prefix 6 of r1
        batch = ReadBatch.from_strings(reads)
        overlaps = exact_overlaps(batch, 4)
        assert (0, 2, 6) in overlaps
        # and the complement pair: rc(r1) suffix 6 == rc(r0) prefix 6
        assert (3, 1, 6) in overlaps

    def test_no_same_read_overlaps(self):
        batch = ReadBatch.from_strings(["ACACACACAC"])  # periodic: self-overlaps
        overlaps = exact_overlaps(batch, 2)
        assert overlaps == []

    def test_descending_length_order(self, tiny_batch):
        overlaps = exact_overlaps(tiny_batch, 30)
        lengths = [l for _, _, l in overlaps]
        assert lengths == sorted(lengths, reverse=True)

    def test_min_overlap_respected(self, tiny_batch):
        overlaps = exact_overlaps(tiny_batch, 40)
        assert all(l >= 40 for _, _, l in overlaps)
        assert all(l < tiny_batch.read_length for _, _, l in overlaps)

    def test_validation(self):
        batch = ReadBatch.from_strings(["ACGT"])
        with pytest.raises(ConfigError):
            exact_overlaps(batch, 4)

    def test_symmetry(self, tiny_batch):
        """Every overlap's complement pair is also present."""
        overlaps = set(exact_overlaps(tiny_batch, 30))
        for u, v, l in overlaps:
            assert (v ^ 1, u ^ 1, l) in overlaps


class TestGreedyFromOverlaps:
    def test_builds_valid_graph(self, tiny_batch):
        overlaps = exact_overlaps(tiny_batch, 25)
        graph = greedy_graph_from_overlaps(overlaps, tiny_batch)
        graph.check_invariants()
        assert graph.n_edges > 0

    def test_empty_overlap_list(self):
        reads = ReadBatch(np.random.default_rng(5).integers(
            0, 4, (5, 30), dtype=np.uint8))
        graph = greedy_graph_from_overlaps([], reads)
        assert graph.n_edges == 0
