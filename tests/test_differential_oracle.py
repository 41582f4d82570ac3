"""Differential oracle: the pipeline vs the exact O(n·L²) baseline.

Every pipeline configuration — merge fanout, block sizes, node count, a
served job — must produce *exactly* the greedy string graph the brute-force
oracle builds from exact suffix–prefix overlaps fed in pipeline stream
order, after dropping the duplicate reads it finds by comparing the reads
themselves. A single missing
or extra edge on any configuration is a correctness bug (a fingerprint
collision mishandled, a partition lost in a merge round, a token dropped),
not a tolerance issue — so the comparison is array equality, never "close".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive_overlap import (exact_overlaps,
                                           greedy_graph_pipeline_order)
from repro.config import AssemblyConfig, ServiceConfig
from repro.core.pipeline import Assembler
from repro.distributed.cluster import DistributedAssembler
from repro.fingerprint import FingerprintScheme
from repro.seq.datasets import tiny_dataset
from repro.service import AssemblyService, JobSpec

GENOME_SEEDS = (7, 13, 29)
#: Pairwise, 4 and 15 ways (15: the widest fanout whose level-1 windows
#: still hold a device chunk at the default budgets).
FANOUTS = (2, 4, 15)
MIN_OVERLAP = 26


def _config(fanout: int) -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, merge_fanout=fanout)


@pytest.fixture(scope="module")
def genomes(tmp_path_factory):
    """Three simulated genomes with their oracle reference graphs."""
    scheme = FingerprintScheme(lanes=1, seed=_config(2).seed & 0xFFFF)
    out = {}
    for seed in GENOME_SEEDS:
        root = tmp_path_factory.mktemp(f"oracle-{seed}")
        md, batch = tiny_dataset(root, genome_length=700, read_length=40,
                                 coverage=9.0, min_overlap=MIN_OVERLAP,
                                 seed=seed)
        reference = greedy_graph_pipeline_order(batch, MIN_OVERLAP, scheme)
        out[seed] = (md, batch, reference)
    return out


@pytest.mark.parametrize("genome_seed", GENOME_SEEDS)
@pytest.mark.parametrize("fanout", FANOUTS)
def test_pipeline_graph_matches_oracle(genomes, tmp_path, genome_seed, fanout):
    md, _, reference = genomes[genome_seed]
    workdir = tmp_path / "work"
    result = Assembler(_config(fanout)).assemble(md.store_path,
                                                 workdir=workdir, resume=True)
    archive = np.load(workdir / "graph.npz")
    assert np.array_equal(archive["target"], reference.target)
    assert np.array_equal(archive["overlap"], reference.overlap)
    assert result.reduce_report.edges_added == reference.n_edges


@pytest.mark.parametrize("genome_seed", GENOME_SEEDS)
def test_contigs_invariant_across_fanouts(genomes, tmp_path, genome_seed):
    md, _, _ = genomes[genome_seed]
    contigs = []
    for fanout in FANOUTS:
        result = Assembler(_config(fanout)).assemble(
            md.store_path, workdir=tmp_path / f"f{fanout}", resume=True)
        contigs.append(result.contigs)
    base = contigs[0]
    for other in contigs[1:]:
        assert np.array_equal(other.flat_codes, base.flat_codes)
        assert np.array_equal(other.offsets, base.offsets)


def test_pipeline_graph_matches_oracle_under_cramped_blocks(genomes, tmp_path):
    """Tiny m_h/m_d force real multi-run external sorts and window merges."""
    md, _, reference = genomes[GENOME_SEEDS[0]]
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, host_block_pairs=500,
                            device_block_pairs=128)
    workdir = tmp_path / "work"
    Assembler(config).assemble(md.store_path, workdir=workdir, resume=True)
    archive = np.load(workdir / "graph.npz")
    assert np.array_equal(archive["target"], reference.target)
    assert np.array_equal(archive["overlap"], reference.overlap)


@pytest.mark.parametrize("n_nodes", (1, 3))
def test_distributed_edges_match_oracle(genomes, n_nodes):
    md, _, reference = genomes[GENOME_SEEDS[0]]
    result = DistributedAssembler(_config(2), n_nodes).assemble(md.store_path)
    assert result.edges == reference.n_edges


def test_distributed_contigs_invariant_across_node_counts(genomes):
    md, _, _ = genomes[GENOME_SEEDS[1]]
    runs = [DistributedAssembler(_config(2), n).assemble(md.store_path)
            for n in (1, 2, 3)]
    base = runs[0]
    for other in runs[1:]:
        assert other.edges == base.edges
        assert np.array_equal(other.contigs.flat_codes, base.contigs.flat_codes)


@pytest.mark.parametrize("genome_seed", GENOME_SEEDS)
def test_served_graph_matches_oracle(genomes, tmp_path, genome_seed):
    """A job through the service, cold then served from the cache: the
    cached graph is the oracle's, and both jobs' contigs are a direct
    assembly's."""
    md, _, reference = genomes[genome_seed]
    service_config = ServiceConfig(cache_dir=str(tmp_path / "cache"),
                                   workdir=str(tmp_path / "jobs"))
    direct = Assembler(_config(2)).assemble(md.store_path)
    for job in ("cold", "warm"):
        report = AssemblyService(service_config).run_jobs(
            [JobSpec(job, "alice", md.store_path, _config(2))])
        contigs = report.outcomes[0].result.contigs
        assert np.array_equal(contigs.flat_codes, direct.contigs.flat_codes)
        assert np.array_equal(contigs.offsets, direct.contigs.offsets)
    (cached,) = (tmp_path / "cache").rglob("graph.npz")
    archive = np.load(cached)
    assert np.array_equal(archive["target"], reference.target)
    assert np.array_equal(archive["overlap"], reference.overlap)
    assert archive["out_bits"].tobytes() == reference.out_bits.to_bytes()


def test_pipeline_finds_no_false_edges(genomes):
    """Every oracle-ordered candidate is an exact overlap by construction;
    the pipeline graph matching it means zero fingerprint false positives
    survived the aux-lane/byte-level verification."""
    _, batch, reference = genomes[GENOME_SEEDS[2]]
    truth = {(s, p) for s, p, _ in exact_overlaps(batch, MIN_OVERLAP)}
    sources, targets, _ = reference.edge_list()
    edges = list(zip(sources.tolist(), targets.tolist()))
    assert edges and all(edge in truth for edge in edges)
