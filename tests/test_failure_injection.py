"""Failure injection: corrupted state and contract violations surface loudly.

A streaming pipeline that silently mis-reads a truncated run file produces
a *wrong genome*, not a crash — so every failure mode here must raise a
typed error instead of degrading.
"""

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.device import MemoryPool, VirtualGPU
from repro.errors import (DeviceMemoryError, HostMemoryError, ReproError,
                          SortContractError, StreamProtocolError)
from repro.extmem import ExternalSorter, RunReader, RunWriter
from repro.extmem.records import kv_dtype, make_records


class TestCorruptRunFiles:
    def test_truncated_run_detected(self, tmp_path, rng):
        records = make_records(rng.integers(0, 9, 100, dtype=np.uint64),
                               np.arange(100, dtype=np.uint32))
        path = tmp_path / "run"
        with RunWriter(path, records.dtype) as writer:
            writer.append(records)
        # chop mid-record
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(StreamProtocolError, match="multiple"):
            RunReader(path, records.dtype)

    def test_unsorted_run_rejected_by_merge(self, tmp_path, rng):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        unsorted = make_records(np.array([9, 1], dtype=np.uint64),
                                np.array([0, 1], dtype=np.uint32))
        with pytest.raises(SortContractError):
            gpu.merge_records_device(unsorted, unsorted[:1])
        assert gpu.pool.used_bytes == 0, "failed launch left windows reserved"

    def test_unsorted_haystack_rejected_by_bounds(self):
        gpu = VirtualGPU("K40", capacity_bytes=1 << 20)
        bad = make_records(np.array([5, 3], dtype=np.uint64),
                           np.array([0, 1], dtype=np.uint32))
        queries = make_records(np.array([4], dtype=np.uint64),
                               np.array([2], dtype=np.uint32))
        with pytest.raises(SortContractError):
            gpu.bounds_records(gpu.to_device(bad), gpu.to_device(queries))


class TestBudgetViolations:
    def test_sorter_with_impossible_device_budget(self, tmp_path, rng):
        """A device too small for even one merge window must fail loudly,
        not loop forever."""
        dtype = kv_dtype(1)
        records = make_records(rng.integers(0, 9, 5000, dtype=np.uint64),
                               np.arange(5000, dtype=np.uint32))
        path = tmp_path / "in"
        with RunWriter(path, dtype) as writer:
            writer.append(records)
        # 40 bytes: a 2-record chunk (24 B) fits, but not with its radix
        # ping-pong scratch (another 24 B).
        gpu = VirtualGPU("K40", capacity_bytes=40)
        host = MemoryPool("host", 1 << 20, HostMemoryError)
        sorter = ExternalSorter(gpu=gpu, host_pool=host, accountant=None,
                                dtype=dtype, host_block_pairs=2000,
                                device_block_pairs=2)
        with pytest.raises(DeviceMemoryError):
            sorter.sort_file(path, tmp_path / "out")

    def test_pipeline_errors_are_repro_errors(self, tmp_path):
        """Any pipeline failure surfaces as the library's base class."""
        bad_input = tmp_path / "nope.fastq"
        with pytest.raises(ReproError):
            Assembler(AssemblyConfig(min_overlap=20)).assemble(bad_input)


class TestCheckpointCorruption:
    def test_corrupt_graph_archive_triggers_rerun(self, tmp_path, tiny_md):
        from repro.core.checkpoint import GRAPH_FILE

        config = AssemblyConfig(min_overlap=25)
        work = tmp_path / "w"
        first = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                           resume=True)
        # corrupt the archived graph; resume must silently rebuild it
        (work / GRAPH_FILE).write_bytes(b"\x00" * 64)
        second = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                            resume=True)
        assert second.reduce_report.edges_added == first.reduce_report.edges_added

    def test_deleted_sorted_partition_triggers_resort(self, tmp_path, tiny_md,
                                                       cramped_config):
        # Runs formed in several pieces are merged on disk: the ledger
        # vouches for them (a run held in host memory has no file).
        config = cramped_config
        work = tmp_path / "w"
        first = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                           resume=True)
        victim = next((work / "partitions").glob("S_*.sorted.run"))
        victim.unlink()
        # sorted state incomplete -> sort (and reduce) re-run cleanly...
        # but map output was consumed; the ledger invalidation cascades and
        # the whole pipeline rebuilds from the packed store.
        second = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                            resume=True)
        assert second.reduce_report.edges_added == first.reduce_report.edges_added