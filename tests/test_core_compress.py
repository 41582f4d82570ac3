"""Compress phase unit tests: offsets, chunked scans, streaming placement."""

import numpy as np
import pytest

from repro import AssemblyConfig, MemoryConfig
from repro.core.compress_phase import run_compress
from repro.core.context import RunContext
from repro.core.load_phase import run_load
from repro.graph import GreedyStringGraph, spell_contigs, extract_paths
from repro.seq.packing import PackedReadStore
from repro.seq.records import ReadBatch
from repro.seq.alphabet import encode, decode


def _store_from_batch(tmp_path, batch: ReadBatch) -> PackedReadStore:
    path = tmp_path / "reads.lsgr"
    with PackedReadStore.create(path, batch.read_length) as store:
        store.append_batch(batch)
    return PackedReadStore.open(path)


def _oriented(batch: ReadBatch) -> np.ndarray:
    out = np.empty((2 * batch.n_reads, batch.read_length), dtype=np.uint8)
    out[0::2] = batch.codes
    out[1::2] = batch.reverse_complements().codes
    return out


@pytest.fixture()
def chain_setup(tmp_path):
    genome = encode("ACGTTGCAACGGTTAACCGTAGGCATTGCCAA")
    reads = [genome[i:i + 12] for i in (0, 4, 8, 12, 16, 20)]
    batch = ReadBatch(np.stack(reads))
    graph = GreedyStringGraph(len(reads), 12)
    for i in range(len(reads) - 1):
        graph.add_candidates(np.array([2 * i]), np.array([2 * i + 2]), 8)
    store = _store_from_batch(tmp_path, batch)
    ctx = RunContext(AssemblyConfig(min_overlap=6), workdir=tmp_path / "w")
    yield ctx, graph, store, batch, genome
    store.close()
    ctx.cleanup()


class TestCompress:
    def test_matches_in_memory_speller(self, chain_setup):
        ctx, graph, store, batch, _ = chain_setup
        expected_paths = extract_paths(graph).deduplicated()
        expected = spell_contigs(expected_paths, _oriented(batch))
        contigs, paths = run_compress(ctx, graph, store, release_graph=False)
        assert np.array_equal(contigs.offsets, expected.offsets)
        assert np.array_equal(contigs.flat_codes, expected.flat_codes)

    def test_spells_original_genome(self, chain_setup):
        ctx, graph, store, _, genome = chain_setup
        contigs, _ = run_compress(ctx, graph, store, release_graph=False)
        spelled = {decode(c) for c in contigs}
        assert decode(genome) in spelled

    def test_release_graph_frees_host_pool(self, chain_setup, tmp_path):
        ctx, _, store, batch, _ = chain_setup
        graph = GreedyStringGraph(batch.n_reads, batch.read_length,
                                  ctx.host_pool)
        used_with_graph = ctx.host_pool.used_bytes
        run_compress(ctx, graph, store, release_graph=True)
        assert ctx.host_pool.used_bytes < used_with_graph

    def test_chunked_offset_scan_under_tiny_device(self, tmp_path, rng):
        """The path table exceeds device memory; the carry-chunked scan must
        still produce globally correct offsets."""
        codes = rng.integers(0, 4, (200, 20), dtype=np.uint8)
        batch = ReadBatch(codes)
        store = _store_from_batch(tmp_path, batch)
        graph = GreedyStringGraph(200, 20)
        config = AssemblyConfig(
            min_overlap=10,
            memory=MemoryConfig(1 << 20, 2048, name="tiny-dev"))
        ctx = RunContext(config, workdir=tmp_path / "w2")
        contigs, paths = run_compress(ctx, graph, store, release_graph=False)
        # 200 forward singleton contigs of 20 bases each, in order.
        assert contigs.n_contigs == 200
        assert np.array_equal(np.diff(contigs.offsets),
                              np.full(200, 20))
        assert np.array_equal(contigs.contig_codes(123), codes[123])
        store.close()
        ctx.cleanup()
