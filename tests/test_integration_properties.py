"""Cross-module property tests: the pipeline's global invariants.

These are the strongest guarantees in the suite: for *arbitrary* small
workloads and budgets, the full pipeline must produce contigs that are
exact substrings of the (error-free) reference, find exactly the true
overlap candidates, and never exceed its memory budgets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Assembler, AssemblyConfig
from repro.analysis import contig_accuracy
from repro.baselines import exact_overlaps
from repro.core.pipeline import eager_composition
from repro.seq.packing import PackedReadStore
from repro.seq.records import ReadBatch
from repro.seq.simulate import ReadSimulator, simulate_genome


workload_params = st.tuples(
    st.integers(300, 1200),     # genome length
    st.integers(30, 60),        # read length
    st.floats(6.0, 18.0),       # coverage
    st.integers(0, 2**31 - 1),  # seed
)


def _assemble_params(tmp_root, genome_length, read_length, coverage, seed,
                     **config_kwargs):
    genome = simulate_genome(genome_length, seed=seed)
    simulator = ReadSimulator(genome=genome, read_length=read_length,
                              coverage=coverage, seed=seed + 1)
    batch = simulator.all_reads()
    store_path = tmp_root / f"reads-{seed}-{genome_length}.lsgr"
    with PackedReadStore.create(store_path, read_length) as store:
        store.append_batch(batch)
    min_overlap = read_length // 2
    config = AssemblyConfig(min_overlap=min_overlap, **config_kwargs)
    result = Assembler(config).assemble(store_path)
    return genome, batch, min_overlap, result


class TestPipelineProperties:
    @given(workload_params)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_contigs_always_reference_substrings(self, tmp_path_factory, params):
        tmp_root = tmp_path_factory.mktemp("prop")
        genome, _, _, result = _assemble_params(tmp_root, *params)
        accuracy = contig_accuracy(result.contigs, genome)
        assert accuracy["incorrect"] == 0

    @given(workload_params)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_candidates_equal_exact_overlap_count(self, tmp_path_factory, params):
        """Recall AND precision: unfiltered, the fingerprint pipeline offers
        exactly the true overlap set to the greedy rule. ``Assembler`` sorts
        only the records that can still win, so it offers a subset of it."""
        tmp_root = tmp_path_factory.mktemp("prop")
        _, batch, min_overlap, result = _assemble_params(tmp_root, *params)
        truth = exact_overlaps(batch, min_overlap)
        eager = eager_composition(result.config, next(tmp_root.glob("*.lsgr")),
                                  tmp_root / "eager")
        assert eager.reduce_report.candidates == len(truth)
        assert eager.reduce_report.aux_rejected == 0
        assert result.reduce_report.candidates <= len(truth)
        assert result.reduce_report.aux_rejected == 0
        # Every edge a contig path walks (all but a path's last read have one).
        paths = result.paths
        has_next = np.ones(paths.vertices.shape[0], dtype=bool)
        has_next[paths.path_offsets[1:] - 1] = False
        at = np.flatnonzero(has_next)
        walked = zip(paths.vertices[at].tolist(), paths.vertices[at + 1].tolist(),
                     (batch.read_length - paths.overhangs[at]).tolist())
        assert at.size and set(walked) <= set(truth)

    @given(workload_params, st.integers(64, 512))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_sizes_never_change_the_assembly(self, tmp_path_factory,
                                                   params, block):
        """The semi-streaming machinery is purely an execution strategy:
        any (m_h, m_d) choice yields the same contigs."""
        tmp_root = tmp_path_factory.mktemp("prop")
        _, _, _, baseline = _assemble_params(tmp_root, *params)
        _, _, _, constrained = _assemble_params(
            tmp_root, *params,
            host_block_pairs=4 * block, device_block_pairs=block)
        assert np.array_equal(baseline.contigs.flat_codes,
                              constrained.contigs.flat_codes)
        assert np.array_equal(baseline.contigs.offsets,
                              constrained.contigs.offsets)

    @given(workload_params)
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_total_contig_bases_bounded_by_genome_copies(self, tmp_path_factory,
                                                         params):
        """Deduped contigs cover each read once; total assembled bases can
        never exceed total read bases and, with overlaps merged, should be
        far below it at real coverage."""
        tmp_root = tmp_path_factory.mktemp("prop")
        _, batch, _, result = _assemble_params(tmp_root, *params)
        total = int(result.contig_lengths().sum())
        assert 0 < total <= batch.n_reads * batch.read_length


class TestReduceStreamingEquivalence:
    @given(st.lists(st.integers(0, 30), min_size=0, max_size=150),
           st.lists(st.integers(0, 30), min_size=0, max_size=150),
           st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_windowed_join_equals_direct_join(self, s_keys, p_keys, window):
        """The Algorithm 2 window machinery must enumerate exactly the
        key-equality join of the two sorted lists, for any window size."""
        from repro.core.context import RunContext
        from repro.core.reduce_phase import ReduceReport, reduce_partition
        from repro.extmem import HeldRun
        from repro.extmem.records import make_records

        s_sorted = np.sort(np.array(s_keys, dtype=np.uint64))
        p_sorted = np.sort(np.array(p_keys, dtype=np.uint64))
        suffixes = make_records(s_sorted,
                                np.arange(s_sorted.shape[0], dtype=np.uint32) * 2)
        prefixes = make_records(
            p_sorted, np.arange(p_sorted.shape[0], dtype=np.uint32) * 2
            + np.uint32(2 * s_sorted.shape[0]))

        pairs: list[tuple[int, int]] = []

        class Collector:
            read_length = 40

            def add_candidates(self, sources, targets, length):
                pairs.extend(zip(np.asarray(sources).tolist(),
                                 np.asarray(targets).tolist()))
                return 0

        ctx = RunContext(AssemblyConfig(min_overlap=20))
        try:
            reduce_partition(ctx, Collector(), HeldRun("S.sorted.run", suffixes),
                             HeldRun("P.sorted.run", prefixes), 20, window,
                             ReduceReport())
        finally:
            ctx.cleanup()
        expected = [(int(sv), int(pv))
                    for sk, sv in zip(s_sorted, suffixes["val"])
                    for pk, pv in zip(p_sorted, prefixes["val"]) if sk == pk]
        assert sorted(pairs) == sorted(expected)
