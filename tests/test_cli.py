"""The lasagna CLI."""

import tempfile

import pytest

from repro.cli import build_parser, main
from repro.errors import DatasetError
from repro.faults import NODE, NODE_CRASH, Fault, FaultPlan, inject
from repro.seq.datasets import tiny_dataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        from repro import __version__
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_simulate_assemble_stats_flow(self, tmp_path, capsys):
        reads = tmp_path / "reads.fastq"
        genome = tmp_path / "genome.fasta"
        contigs = tmp_path / "contigs.fasta"
        assert main(["simulate-reads", "--genome-length", "1500",
                     "--read-length", "50", "--coverage", "12",
                     "-o", str(reads), "--genome-out", str(genome)]) == 0
        assert reads.exists() and genome.exists()

        assert main(["assemble", str(reads), "--min-overlap", "25",
                     "-o", str(contigs)]) == 0
        out = capsys.readouterr().out
        assert "contigs" in out
        assert contigs.exists()

        assert main(["stats", str(contigs)]) == 0
        assert "n50" in capsys.readouterr().out

        assert main(["stats", str(contigs), "--reference", str(genome)]) == 0
        out = capsys.readouterr().out
        printed = dict(line.split(": ") for line in out.splitlines())
        assert float(printed["genome_fraction"]) >= 0.99
        assert float(printed["dup_ratio"]) <= 1.05
        assert 0 < int(printed["aligned_n50"]) <= int(printed["n50"])

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "hgenome_sim" in out and "H.Genome" in out

    def test_model(self, capsys):
        assert main(["model", "--dataset", "hchr14_sim", "--memory", "qb2",
                     "--device", "K40"]) == 0
        out = capsys.readouterr().out
        assert "sort" in out and "total" in out

    def test_correct_reads(self, tmp_path, capsys):
        reads = tmp_path / "noisy.fastq"
        fixed = tmp_path / "fixed.fastq"
        main(["simulate-reads", "--genome-length", "1500", "--read-length", "50",
              "--coverage", "20", "--error-rate", "0.01", "-o", str(reads)])
        assert main(["correct-reads", str(reads), "-o", str(fixed),
                     "--k", "15"]) == 0
        out = capsys.readouterr().out
        assert "corrected" in out and fixed.exists()
        from repro.seq.fastq import read_fastq
        n_fixed = sum(1 for _ in read_fastq(fixed))
        assert 0 < n_fixed <= 600
        empty = tmp_path / "empty.fastq"
        empty.write_text("")
        with pytest.raises(DatasetError, match="no reads.*empty.fastq"):
            main(["correct-reads", str(empty), "-o", str(tmp_path / "out.fastq")])
        assert not (tmp_path / "out.fastq").exists()

    def test_distributed(self, tmp_path, capsys):
        reads = tmp_path / "r.fastq"
        contigs = tmp_path / "c.fasta"
        main(["simulate-reads", "--genome-length", "1200", "--read-length", "40",
              "--coverage", "12", "-o", str(reads)])
        assert main(["distributed", str(reads), "--nodes", "3",
                     "--min-overlap", "20", "-o", str(contigs)]) == 0
        out = capsys.readouterr().out
        assert "3 simulated nodes" in out and "shuffle" in out
        # The whole-read length alone, then 20 overlap lengths three a
        # round; most records are closed by then.
        assert "rounds    8: the whole-read length, then 3 overlap lengths " \
            "a round" in out
        assert "duplicate reads at the whole-read length" in out
        assert "mapped records" in out and "still open when pulled" in out
        assert contigs.exists()

    def test_distributed_fastq_leaves_no_packed_copy(self, tmp_path,
                                                     monkeypatch):
        reads = tmp_path / "r.fastq"
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        main(["simulate-reads", "--genome-length", "800", "--read-length", "40",
              "--coverage", "8", "-o", str(reads)])
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert main(["distributed", str(reads), "--nodes", "2",
                     "--min-overlap", "20"]) == 0
        assert list(scratch.iterdir()) == []
        empty = tmp_path / "empty.fastq"
        empty.write_text("")
        with pytest.raises(DatasetError, match="no reads.*empty.fastq"):
            main(["distributed", str(empty), "--nodes", "2",
                  "--min-overlap", "20"])
        assert list(scratch.iterdir()) == []

    def test_a_degraded_distributed_run_exits_0(self, tmp_path, capsys):
        """A partition that no node can reduce is dropped: the survivors
        finish, the summary names the lost nodes and says what the output
        is missing, and the run exits 0."""
        md, _ = tiny_dataset(tmp_path, genome_length=600, read_length=36,
                             coverage=8.0, min_overlap=24, seed=7)
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="*:reduce[[]30]",
                                once=False)])
        with inject(plan):
            assert main(["distributed", str(md.store_path), "--nodes", "3",
                         "--min-overlap", "24"]) == 0
        out = capsys.readouterr().out
        # node00 dies twice; 30 fails over to the least-loaded survivor.
        # Every attempt dies at its node op, before it rebuilds anything,
        # so the survivors' clocks are the ones the token left: node01's
        # reduce of 31 cost less than node02's of 32.
        assert "  lost      node00, node01\n" in out
        assert "DEGRADED RUN: 1 partition(s) dropped" in out
        assert "overlap lengths [30]" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "Fig. 9" in out and "Fig. 10" in out
        assert "V100" in out

    def test_assemble_gfa_export(self, tmp_path, capsys):
        reads = tmp_path / "r.fastq"
        gfa = tmp_path / "graph.gfa"
        main(["simulate-reads", "--genome-length", "800", "--read-length", "40",
              "--coverage", "10", "-o", str(reads)])
        assert main(["assemble", str(reads), "--min-overlap", "20",
                     "--gfa", str(gfa)]) == 0
        text = gfa.read_text()
        assert text.startswith("H\tVN:Z:1.0")
        assert "\nL\t" in text and "\nP\t" in text

    def test_assemble_rejects_bad_overlap(self, tmp_path):
        reads = tmp_path / "r.fastq"
        main(["simulate-reads", "--genome-length", "500", "--read-length", "40",
              "--coverage", "5", "-o", str(reads)])
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            main(["assemble", str(reads), "--min-overlap", "40"])
