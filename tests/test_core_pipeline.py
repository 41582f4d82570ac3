"""End-to-end pipeline behaviour."""

import gc
import warnings

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.analysis import contig_accuracy, genome_fraction
from repro.core.pipeline import PHASES
from repro.graph import GreedyStringGraph, extract_paths, spell_contigs
from repro.seq.alphabet import decode


@pytest.fixture(scope="module")
def assembled(tmp_path_factory):
    from repro.seq.datasets import tiny_dataset

    root = tmp_path_factory.mktemp("e2e")
    md, batch = tiny_dataset(root, genome_length=2500, read_length=50,
                             coverage=22.0, min_overlap=25, seed=21)
    config = AssemblyConfig(min_overlap=25)
    result = Assembler(config).assemble(md.store_path)
    return md, batch, result


class TestCorrectness:
    def test_contigs_are_genome_substrings(self, assembled):
        md, _, result = assembled
        accuracy = contig_accuracy(result.contigs, md.genome())
        assert accuracy["incorrect"] == 0
        assert accuracy["checked"] == result.contigs.n_contigs

    def test_genome_mostly_recovered(self, assembled):
        md, _, result = assembled
        assert genome_fraction(result.contigs, md.genome()) > 0.95

    def test_every_read_accounted(self, assembled):
        """Deduped paths cover each read exactly once (one orientation)."""
        _, _, result = assembled
        total_overhang = int(result.contig_lengths().sum())
        assert total_overhang > 0
        assert result.n_paths == result.contigs.n_contigs

    def test_compress_matches_in_memory_speller(self, assembled, tmp_path):
        """The streaming compress phase spells exactly what spell_contigs does."""
        md, batch, result = assembled
        # rebuild the graph via a fresh pipeline-less reduce
        from repro.baselines import exact_overlaps, greedy_graph_from_overlaps

        graph = greedy_graph_from_overlaps(exact_overlaps(batch, 25), batch)
        paths = extract_paths(graph).deduplicated()
        oriented = np.empty((2 * batch.n_reads, batch.read_length), dtype=np.uint8)
        oriented[0::2] = batch.codes
        oriented[1::2] = batch.reverse_complements().codes
        reference = spell_contigs(paths, oriented)
        # Candidate ordering differs (fingerprint vs vertex order), so compare
        # aggregate quality rather than byte identity.
        assert abs(int(reference.lengths().sum())
                   - int(result.contig_lengths().sum())) \
            <= 0.1 * reference.lengths().sum()


class TestTelemetryAndBudgets:
    def test_all_phases_recorded(self, assembled):
        _, _, result = assembled
        names = [stats.name for stats in result.telemetry]
        assert names == list(PHASES)

    def test_device_budget_respected(self, assembled):
        _, _, result = assembled
        budget = result.config.memory.device_bytes
        for stats in result.telemetry:
            assert stats.peaks.get("device_bytes", 0.0) <= budget

    def test_host_budget_respected(self, assembled):
        _, _, result = assembled
        budget = result.config.memory.host_bytes
        for stats in result.telemetry:
            assert stats.peaks.get("host_bytes", 0.0) <= budget

    def test_sim_time_positive(self, assembled):
        _, _, result = assembled
        assert result.telemetry.total_sim_seconds() > 0
        assert result.phase_seconds(simulated=True)["sort"] > 0

    def test_summary_renders(self, assembled):
        _, _, result = assembled
        text = result.summary()
        assert "contigs" in text and "N50" in text


class TestVariants:
    def test_two_lane_config_identical_contig_totals(self, tmp_path):
        from repro.seq.datasets import tiny_dataset

        md, _ = tiny_dataset(tmp_path, genome_length=1000, read_length=40,
                             coverage=15.0, min_overlap=20, seed=4)
        results = {}
        for lanes in (1, 2):
            config = AssemblyConfig(min_overlap=20, fingerprint_lanes=lanes)
            results[lanes] = Assembler(config).assemble(md.store_path)
        assert results[1].reduce_report.candidates \
            == results[2].reduce_report.candidates

    def test_cramped_memory_still_correct(self, tmp_path, cramped_config):
        from repro.seq.datasets import tiny_dataset

        md, _ = tiny_dataset(tmp_path, genome_length=1000, read_length=40,
                             coverage=15.0, min_overlap=20, seed=4)
        config = AssemblyConfig(min_overlap=20,
                                host_block_pairs=cramped_config.host_block_pairs,
                                device_block_pairs=cramped_config.device_block_pairs)
        result = Assembler(config).assemble(md.store_path)
        assert result.sort_report.max_disk_passes > 1  # forced multipass
        accuracy = contig_accuracy(result.contigs, md.genome())
        assert accuracy["incorrect"] == 0

    def test_noisy_reads_degrade_gracefully(self, tmp_path):
        """Substitution errors break exact overlaps: fewer edges, shorter
        contigs, but never crashes or invalid output."""
        from repro.seq.datasets import tiny_dataset

        md_clean, _ = tiny_dataset(tmp_path / "c", genome_length=1000,
                                   read_length=40, coverage=15.0,
                                   min_overlap=20, seed=6)
        md_noisy, _ = tiny_dataset(tmp_path / "n", genome_length=1000,
                                   read_length=40, coverage=15.0,
                                   min_overlap=20, seed=6, error_rate=0.03)
        config = AssemblyConfig(min_overlap=20)
        clean = Assembler(config).assemble(md_clean.store_path)
        noisy = Assembler(config).assemble(md_noisy.store_path)
        assert noisy.reduce_report.edges_added < clean.reduce_report.edges_added
        assert noisy.stats()["n50"] <= clean.stats()["n50"]

    def test_workdir_kept_when_supplied(self, tmp_path):
        from repro.seq.datasets import tiny_dataset

        md, _ = tiny_dataset(tmp_path, genome_length=600, read_length=30,
                             coverage=8.0, min_overlap=15, seed=2)
        work = tmp_path / "keepme"
        Assembler(AssemblyConfig(min_overlap=15)).assemble(md.store_path,
                                                           workdir=work)
        assert (work / "reads.lsgr").exists()

    def test_lsgr_source_leaves_no_file_open(self, tiny_md):
        """The load phase closes the ``.lsgr`` source it opened."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            Assembler(AssemblyConfig(min_overlap=25)).assemble(tiny_md.store_path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
