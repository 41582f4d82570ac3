"""Length statistics: N50 and friends."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DatasetError
from repro.seq.stats import assembly_stats, n50, nx

lengths_strategy = st.lists(st.integers(1, 10_000), min_size=1, max_size=200)


class TestN50:
    def test_known_values(self):
        # 30+40 = 70 >= half of 100
        assert n50([10, 20, 30, 40]) == 30
        assert n50([100]) == 100
        assert n50([1, 1, 1, 1]) == 1

    def test_empty(self):
        assert n50([]) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DatasetError):
            n50([5, 0])

    @given(lengths_strategy)
    def test_definition(self, lengths):
        """N50 is the largest L such that contigs >= L cover half the total."""
        value = n50(lengths)
        arr = np.array(lengths)
        assert value in lengths
        assert arr[arr >= value].sum() * 2 >= arr.sum()
        bigger = arr[arr > value]
        if bigger.size:
            assert bigger.sum() * 2 < arr.sum()

    @given(lengths_strategy)
    def test_bounded_by_extremes(self, lengths):
        assert min(lengths) <= n50(lengths) <= max(lengths)


class TestNx:
    def test_n90_leq_n50(self):
        lengths = [5, 10, 20, 40, 80]
        assert nx(lengths, 0.9) <= n50(lengths)

    def test_fraction_validation(self):
        with pytest.raises(DatasetError):
            nx([10], 1.0)

    @given(lengths_strategy, st.floats(0.05, 0.95))
    def test_monotone_in_fraction(self, lengths, fraction):
        assert nx(lengths, fraction) >= nx(lengths, min(0.99, fraction + 0.04))


class TestAssemblyStats:
    def test_fields(self):
        stats = assembly_stats([10, 20, 30])
        assert stats["n_contigs"] == 3
        assert stats["total_bases"] == 60
        assert stats["max_contig"] == 30
        assert stats["n50"] == 20 or stats["n50"] == 30

    def test_empty(self):
        stats = assembly_stats([])
        assert stats["n_contigs"] == 0 and stats["n50"] == 0
