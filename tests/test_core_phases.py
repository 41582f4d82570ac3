"""Individual pipeline phases: load, map, sort, reduce, compress."""

import threading

import numpy as np
import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.core import map_phase
from repro.core.context import RunContext
from repro.core.load_phase import run_load
from repro.core.map_phase import overlap_lengths, run_map
from repro.extmem.partitions import partition_sides
from repro.core.pipeline import Assembler
from repro.core.reduce_phase import run_reduce
from repro.core.sort_phase import run_sort
from repro.errors import ConfigError, DatasetError
from repro.extmem import ExternalSorter, streams
from repro.extmem.records import KEY_FIELD, VAL_FIELD
from repro.faults import result_digest, scan_residue
from repro.fingerprint import FingerprintScheme
from repro.seq.datasets import tiny_dataset
from repro.seq.fastq import write_fastq

from .conftest import batch_device_bytes


@pytest.fixture()
def ctx(tmp_path, laptop_config):
    context = RunContext(laptop_config, workdir=tmp_path / "work")
    yield context
    context.cleanup()


class TestLoad:
    def test_from_packed_store(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        assert store.n_reads == tiny_md.n_reads
        assert store.path.parent == ctx.workdir
        store.close()

    def test_from_fastq(self, ctx, tmp_path):
        path = tmp_path / "in.fastq"
        write_fastq(path, [("r0", "ACGTACGT", "I" * 8), ("r1", "TTTTACGT", "I" * 8)])
        store = run_load(ctx, path)
        assert store.n_reads == 2 and store.read_length == 8
        assert store.read_slice(0, 1).strings() == ["ACGTACGT"]
        store.close()

    def test_reads_too_short_to_overlap_load_and_hold_nothing(self, ctx,
                                                              tmp_path):
        """8 bp reads have no overlap length at ``min_overlap=25``: load
        holds none of them and returns, and the map refuses the run."""
        path = tmp_path / "in.fastq"
        write_fastq(path, [("r0", "ACGTACGT", "I" * 8),
                           ("r1", "TTTTACGT", "I" * 8)])
        with run_load(ctx, path) as store:
            assert store.n_reads == 2
            assert store.reservations == []
            assert ctx.host_pool.used_bytes == 0
        with pytest.raises(ConfigError, match="min_overlap 25 must be"):
            Assembler(ctx.config).assemble(path, workdir=tmp_path / "run")

    def test_missing_input(self, ctx, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            run_load(ctx, tmp_path / "nope.fastq")

    def test_empty_input(self, ctx, tmp_path):
        path = tmp_path / "empty.fastq"
        path.write_text("")
        with pytest.raises(DatasetError, match="no reads"):
            run_load(ctx, path)

    def test_io_accounted(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        store.close()
        assert ctx.accountant.read_bytes > 0
        assert ctx.accountant.write_bytes > 0


class TestMap:
    def test_partition_inventory(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, report = run_map(ctx, store)
        lengths = overlap_lengths(ctx, store.read_length)
        assert partitions.lengths() == [*lengths, store.read_length]
        # l_max holds whole reads for the duplicate filter: its P side only
        # (a whole read's suffix is its prefix).
        assert partitions.records_in("P", store.read_length) == 2 * store.n_reads
        assert not partitions.path("S", store.read_length).exists()
        expected = 2 * 2 * store.n_reads * len(lengths) + 2 * store.n_reads
        assert report.tuples_written == expected
        for length in lengths:
            assert partitions.records_in("S", length) == 2 * store.n_reads
            assert partitions.records_in("P", length) == 2 * store.n_reads
        store.close()

    def test_partition_contents_match_scheme(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, _ = run_map(ctx, store)
        scheme = ctx.scheme
        length = ctx.config.min_overlap + 2
        with partitions.open_run("S", length) as reader:
            records = reader.read_all()
        batch = store.read_slice(0, store.n_reads)
        _, suffix_keys = scheme.key_matrices(batch.codes, [length])
        # forward-orientation records (even vertex ids) for this length
        forward = records[records[VAL_FIELD] % 2 == 0]
        read_ids = (forward[VAL_FIELD] >> 1).astype(np.int64)
        expected = suffix_keys[0][0, read_ids]
        assert np.array_equal(forward[KEY_FIELD], expected)
        store.close()

    def test_min_overlap_validation(self, tmp_path, tiny_md):
        config = AssemblyConfig(min_overlap=500)
        context = RunContext(config, workdir=tmp_path / "w2")
        store = run_load(context, tiny_md.store_path)
        with pytest.raises(ConfigError, match="min_overlap"):
            run_map(context, store)
        store.close()
        context.cleanup()

    def test_read_range_restricts(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, report = run_map(ctx, store, read_range=(10, 25))
        assert report.n_reads == 15
        assert partitions.records_in("S", ctx.config.min_overlap) == 2 * 15
        store.close()

    def test_vertex_encoding(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, _ = run_map(ctx, store)
        with partitions.open_run("P", ctx.config.min_overlap) as reader:
            vertices = reader.read_all()[VAL_FIELD]
        assert vertices.max() == 2 * store.n_reads - 1
        assert np.count_nonzero(vertices % 2 == 0) == store.n_reads
        store.close()


class TestSortPhase:
    def test_all_partitions_sorted(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, _ = run_map(ctx, store)
        report = run_sort(ctx, partitions)
        assert report.total_records == 4 * store.n_reads * \
            len(overlap_lengths(ctx, store.read_length)) + 2 * store.n_reads
        for length in partitions.lengths():
            for side in partition_sides(length, store.read_length):
                assert not partitions.path(side, length).exists()
                with partitions.open_run(side, length, sorted_run=True) as reader:
                    keys = reader.read_all()[KEY_FIELD]
                assert (np.diff(keys.astype(np.int64)) >= np.int64(0)).all() or \
                    (np.sort(keys) == keys).all()
        store.close()


class TestReduce:
    def test_zero_false_positives(self, ctx, tiny_md, tiny_batch):
        from repro.baselines import exact_overlaps

        store = run_load(ctx, tiny_md.store_path)
        partitions, _ = run_map(ctx, store)
        run_sort(ctx, partitions)
        graph, report = run_reduce(ctx, partitions, store)
        graph.check_invariants()
        truth = set(exact_overlaps(tiny_batch, ctx.config.min_overlap))
        sources, targets, overlaps = graph.edge_list()
        for edge in zip(sources.tolist(), targets.tolist(), overlaps.tolist()):
            assert tuple(edge) in truth
        # every true overlap was seen as a candidate (recall check)
        assert report.candidates == len(truth)
        store.close()

    def test_edges_processed_longest_first(self, ctx, tiny_md):
        store = run_load(ctx, tiny_md.store_path)
        partitions, _ = run_map(ctx, store)
        run_sort(ctx, partitions)
        _, report = run_reduce(ctx, partitions, store)
        lengths = list(report.per_length_edges)
        assert lengths == sorted(lengths, reverse=True)
        store.close()


class TestCleanupOnMidPhaseFailure:
    """An exception in the middle of map or sort leaves nothing behind.

    The phases are plain loops: what closes the partition writers, the run
    writers and the scratch directory is the ``finally`` of ``run_map`` and
    of ``sort_file`` and the ``with`` blocks inside them.
    """

    @pytest.mark.parametrize("owner,name,failing_call", [
        (map_phase, "_fingerprint_block", 3),  # third of four host blocks
        (ExternalSorter, "sort_block_in_host", 2),  # second run of S:49
    ], ids=["map", "sort"])
    def test_no_residue_and_rerun_matches_clean_run(
            self, tmp_path, monkeypatch, owner, name, failing_call):
        md, _ = tiny_dataset(tmp_path / "data", genome_length=2000,
                             read_length=50, coverage=20.0, min_overlap=25,
                             seed=5)
        config = AssemblyConfig(min_overlap=25,
                                memory=MemoryConfig(
                                    64 << 20, batch_device_bytes(16, 50)),
                                host_block_pairs=500, device_block_pairs=128)
        clean = Assembler(config).assemble(md.store_path,
                                           workdir=tmp_path / "clean")

        # Judged as a delta: the session may hold streams or threads of
        # its own.
        open_before = dict(streams._OPEN_PATHS)
        threads_before = set(threading.enumerate())
        real = getattr(owner, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing_call:
                raise RuntimeError("mid-phase failure")
            return real(*args, **kwargs)

        workdir = tmp_path / "work"
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, flaky)
            with pytest.raises(RuntimeError, match="mid-phase failure"):
                Assembler(config).assemble(md.store_path, workdir=workdir,
                                           resume=True)
        assert len(calls) == failing_call
        assert streams._OPEN_PATHS == open_before
        assert scan_residue(workdir) == []
        assert set(threading.enumerate()) == threads_before

        rerun = Assembler(config).assemble(md.store_path, workdir=workdir,
                                           resume=True)
        assert result_digest(rerun) == result_digest(clean)
