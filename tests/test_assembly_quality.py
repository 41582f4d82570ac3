"""The quality gate: clean reads assemble into the genome, once.

Error-free reads at 20x and 40x through every entry point (``Assembler``,
a 2-node ``DistributedAssembler``, ``AssemblyService``) must cover the
reference (``genome_fraction >= 0.99``) without spelling it twice
(``dup_ratio <= 1.05``); at 40x every contig matches the reference, so the
N50 the run prints is the reference-aligned N50.
"""

from __future__ import annotations

import pytest

from repro import Assembler, AssemblyConfig
from repro.analysis import aligned_n50, assembly_quality
from repro.config import ServiceConfig
from repro.distributed import DistributedAssembler
from repro.seq.packing import PackedReadStore
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.service import AssemblyService, JobSpec

GENOME_LENGTH = 6_000
READ_LENGTH = 100
MIN_OVERLAP = 63


@pytest.fixture(scope="module", params=(20.0, 40.0), ids=("20x", "40x"))
def reads(request, tmp_path_factory):
    """``(coverage, genome, store path)`` of one clean read set."""
    coverage = request.param
    genome = simulate_genome(GENOME_LENGTH, seed=5)
    batch = ReadSimulator(genome, READ_LENGTH, coverage, seed=6).all_reads()
    path = tmp_path_factory.mktemp(f"quality-{int(coverage)}x") / "reads.lsgr"
    with PackedReadStore.create(path, READ_LENGTH) as store:
        store.append_batch(batch)
    return coverage, genome, path


def _config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2)


def _single(path, tmp_path):
    result = Assembler(_config()).assemble(path)
    return result.contigs, result.stats()["n50"]


def _cluster(path, tmp_path):
    result = DistributedAssembler(_config(), 2).assemble(path)
    return result.contigs, result.stats()["n50"]


def _served(path, tmp_path):
    report = AssemblyService(ServiceConfig(workdir=str(tmp_path))).run_jobs(
        [JobSpec("job", "alice", path, _config())])
    result = report.outcomes[0].result
    return result.contigs, result.stats()["n50"]


@pytest.mark.parametrize("run", (_single, _cluster, _served),
                         ids=("assembler", "cluster-2", "service"))
def test_clean_reads_assemble_the_genome_once(reads, tmp_path, run):
    coverage, genome, path = reads
    contigs, printed_n50 = run(path, tmp_path)
    quality = assembly_quality(contigs, genome)
    assert quality["genome_fraction"] >= 0.99
    assert quality["dup_ratio"] <= 1.05
    if coverage == 40.0:
        assert printed_n50 == aligned_n50(contigs, genome) == quality["aligned_n50"]
