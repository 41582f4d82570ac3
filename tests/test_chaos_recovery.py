"""Chaos fault injection and crash recovery: the plan's own behaviour,
resume at each phase boundary, typed stream errors and corruption
detection. The sweep over every injectable operation of a run is
``tests/test_write_faults.py``.
"""

from __future__ import annotations

import errno
import gc
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.core.checkpoint import STATE_FILE, file_digest
from repro.core.pipeline import PHASES, Assembler
from repro.distributed.cluster import DistributedAssembler
from repro.errors import (ConfigError, DistributedProtocolError, FaultInjected,
                          SortContractError, StreamProtocolError)
from repro.extmem import ExternalSorter, PartitionStore, RunReader, RunWriter
from repro.extmem.merge import merge_streams_k
from repro.extmem.partitions import partition_sides
from repro.extmem.records import kv_dtype, make_records
from repro.extmem.streams import _COALESCE_BYTES
from repro.faults import (BITFLIP, CRASH, ENOSPC, LEDGER, NODE, NODE_CRASH,
                          PHASE, READ, TORN, WRITE, Fault, FaultPlan, inject,
                          ledger_converged, result_digest, scan_residue)
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore

MIN_OVERLAP = 24
#: A budget whose longer lengths' sorts spill (several runs, merged on
#: disk), so their sorted files exist for the ledger to vouch for; the
#: default budget is in-core and holds every run, which leaves no file.
SPILLING = MemoryConfig(40_000, 16_000, name="cramped")
SPILLING_BLOCK_PAIRS = 256


@pytest.fixture(scope="module")
def chaos_data(tmp_path_factory):
    """A small dataset: an in-core run takes a few tens of milliseconds."""
    root = tmp_path_factory.mktemp("chaos-data")
    md, batch = tiny_dataset(root, genome_length=600, read_length=36,
                             coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    return md, batch


@pytest.fixture()
def config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)


# -- FaultPlan unit behaviour --------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_and_site_rejected(self):
        with pytest.raises(ConfigError):
            Fault("meteor-strike")
        with pytest.raises(ConfigError):
            Fault(CRASH, site="teapot")

    def test_once_fault_disarms_after_firing(self, tmp_path):
        plan = FaultPlan([Fault(CRASH, site=WRITE)])
        dtype = kv_dtype(1)
        records = make_records(np.array([1], dtype=np.uint64),
                               np.array([0], dtype=np.uint32))
        with inject(plan):
            with pytest.raises(FaultInjected):
                with RunWriter(tmp_path / "a.run", dtype) as writer:
                    writer.append(records)
            plan.clear_crash()
            with RunWriter(tmp_path / "b.run", dtype) as writer:
                writer.append(records)  # disarmed: succeeds
        assert plan.events[0].kind == CRASH

    def test_inject_is_not_reentrant(self):
        with inject(FaultPlan()):
            with pytest.raises(ConfigError):
                with inject(FaultPlan()):
                    pass

    def test_probe_records_trace_and_meter(self, chaos_data, config, tmp_path):
        md, _ = chaos_data
        plan = FaultPlan()
        with inject(plan):
            result = Assembler(config).assemble(md.store_path,
                                                workdir=tmp_path / "w",
                                                resume=True)
        assert plan.ops_seen == len(plan.trace) > 25
        assert {t.site for t in plan.trace} >= {WRITE, READ, LEDGER, PHASE}
        assert {t.phase for t in plan.trace} - {None} == set(PHASES)
        # Fault ops surface as per-phase telemetry counters.
        assert plan.meter.counters()["fault_ops"] == plan.ops_seen
        assert all(result.telemetry[p].counters.get("fault_ops", 0) > 0
                   for p in PHASES)


# -- satellite: resume at every phase boundary --------------------------------


@pytest.mark.parametrize("phase", PHASES)
def test_interrupt_after_each_phase_then_resume(chaos_data, config, tmp_path,
                                                phase):
    md, _ = chaos_data
    golden = Assembler(config).assemble(md.store_path,
                                        workdir=tmp_path / "golden", resume=True)
    workdir = tmp_path / "interrupted"
    plan = FaultPlan([Fault(CRASH, site=PHASE, match=phase)])
    with inject(plan):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(md.store_path, workdir=workdir,
                                       resume=True)
    resumed = Assembler(config).assemble(md.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(golden)
    assert scan_residue(workdir) == []


def test_a_resume_sorts_again_only_the_damaged_sorted_run(chaos_data,
                                                          tmp_path,
                                                          monkeypatch):
    """Stopped after the ledger marks ``sort`` and before ``reduce``, with
    one sorted run's bytes damaged: the resume deletes the run the ledger
    no longer vouches for, invalidates from ``sort``, and sorts again that
    length and the ones whose runs were held (no file), no other."""
    md, _ = chaos_data
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, memory=SPILLING,
                            host_block_pairs=SPILLING_BLOCK_PAIRS)
    golden = Assembler(config).assemble(md.store_path,
                                        workdir=tmp_path / "golden")
    workdir = tmp_path / "damaged"
    with inject(FaultPlan([Fault(CRASH, site=PHASE, match="sort")])):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(md.store_path, workdir=workdir,
                                       resume=True)
    state = json.loads((workdir / STATE_FILE).read_text())
    assert state["completed"] == ["load", "map", "sort"]
    partitions = workdir / "partitions"
    sorted_runs = sorted(partitions.glob("*.sorted.run"))
    assert len(sorted_runs) >= 2
    damaged = sorted_runs[-1]
    data = bytearray(damaged.read_bytes())
    data[0] ^= 0xFF
    damaged.write_bytes(bytes(data))

    def length_of(path) -> int:
        return int(path.name.split(".")[0].split("_")[1])

    sorted_again = []
    sort_file = ExternalSorter.sort_file

    def spy(self, in_path, out_path, **kwargs):
        sorted_again.append(length_of(Path(out_path)))
        return sort_file(self, in_path, out_path, **kwargs)

    monkeypatch.setattr(ExternalSorter, "sort_file", spy)
    lengths = set(range(MIN_OVERLAP, golden.read_length + 1))
    filed = {length for length in lengths if all(
        (partitions / f"{side}_{length:05d}.sorted.run").exists()
        for side in partition_sides(length, golden.read_length))}
    resumed = Assembler(config).assemble(md.store_path, workdir=workdir,
                                         resume=True)
    assert set(sorted_again) == (lengths - filed) | {length_of(damaged)}
    assert result_digest(resumed) == result_digest(golden)
    assert ledger_converged(workdir)
    assert scan_residue(workdir) == []


# -- satellite: checkpoint staleness on sort-shape changes ---------------------


def test_fanout_change_invalidates_resume_state(chaos_data, tmp_path):
    md, _ = chaos_data
    workdir = tmp_path / "w"
    base = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, merge_fanout=2,
                          memory=SPILLING,
                          host_block_pairs=SPILLING_BLOCK_PAIRS)
    Assembler(base).assemble(md.store_path, workdir=workdir, resume=True)

    wider = replace(base, merge_fanout=4)
    second = Assembler(wider).assemble(md.store_path, workdir=workdir,
                                       resume=True)
    # The fingerprint change must force a sort-phase rerun, not a skip: the
    # runs that spill are written again.
    assert second.telemetry["sort"].counters.get("disk_write_bytes", 0) > 0
    assert all(r.fanout == 4 for r in second.sort_report.reports.values())

    # A genuine resume under the new fanout restores all four report fields
    # (a 3-field ledger would silently resurrect the default fanout of 2).
    third = Assembler(wider).assemble(md.store_path, workdir=workdir,
                                      resume=True)
    assert third.sort_report.reports == second.sort_report.reports
    assert third.telemetry["sort"].counters.get("disk_write_bytes", 0) == 0
    assert result_digest(third) == result_digest(second)


# -- satellite: stream protocol errors ----------------------------------------


def test_run_writer_append_after_close_is_typed(tmp_path):
    dtype = kv_dtype(1)
    records = make_records(np.array([1], dtype=np.uint64),
                           np.array([0], dtype=np.uint32))
    writer = RunWriter(tmp_path / "x.run", dtype)
    writer.append(records)
    writer.close()
    with pytest.raises(StreamProtocolError, match="append after close"):
        writer.append(records)


def test_run_reader_read_after_close_is_typed(tmp_path):
    dtype = kv_dtype(1)
    with RunWriter(tmp_path / "x.run", dtype) as writer:
        writer.append(make_records(np.array([1], dtype=np.uint64),
                                   np.array([0], dtype=np.uint32)))
    reader = RunReader(tmp_path / "x.run", dtype)
    reader.close()
    with pytest.raises(StreamProtocolError, match="read after close"):
        reader.read(1)


def test_partition_store_append_after_finalize_is_typed(tmp_path):
    dtype = kv_dtype(1)
    store = PartitionStore(tmp_path, dtype)
    records = make_records(np.array([1], dtype=np.uint64),
                           np.array([0], dtype=np.uint32))
    store.append("S", 24, records)
    store.finalize()
    with pytest.raises(StreamProtocolError, match="after finalize"):
        store.append("S", 24, records)


# -- satellite: a final write that raises still releases the file -------------


def test_a_failed_close_releases_the_path_for_a_retry(tmp_path):
    """A full disk while the buffered tail drains in ``close()``: a retry
    in the same process (the service's) must be able to open the path."""
    dtype = kv_dtype(1)
    records = make_records(np.arange(10, dtype=np.uint64),
                           np.zeros(10, dtype=np.uint32))
    path = tmp_path / "x.run"
    writer = RunWriter(path, dtype)
    writer.append(records)
    with inject(FaultPlan([Fault(ENOSPC, site=WRITE)])):
        with pytest.raises(OSError) as raised:
            writer.close()
    assert raised.value.errno == errno.ENOSPC
    with RunWriter(path, dtype) as retry:
        retry.append(records)
    assert path.read_bytes() == records.tobytes()


def test_finalize_closes_every_writer_then_raises_the_first_error(tmp_path):
    dtype = kv_dtype(1)
    store = PartitionStore(tmp_path, dtype)
    records = make_records(np.array([1], dtype=np.uint64),
                           np.array([0], dtype=np.uint32))
    for side in ("S", "P"):
        store.append(side, 24, records)
    with inject(FaultPlan([Fault(ENOSPC, site=WRITE)])):
        with pytest.raises(OSError):
            store.finalize()
    for side in ("S", "P"):
        RunWriter(store.path(side, 24), dtype).close()  # both released


def test_a_failed_header_commit_closes_the_read_store(tmp_path):
    store = PackedReadStore.create(tmp_path / "reads.lsgr", 36)
    with inject(FaultPlan([Fault(ENOSPC, site=WRITE)])):
        with pytest.raises(OSError):
            store.close()
    assert store._handle.closed


# -- corruption detection ------------------------------------------------------


def test_merge_rejects_unsorted_input(tmp_path):
    dtype = kv_dtype(1)
    sorted_keys = np.array([1, 2, 3], dtype=np.uint64)
    broken_keys = np.array([5, 4, 9], dtype=np.uint64)
    vertices = np.zeros(3, dtype=np.uint32)
    for name, keys in (("good.run", sorted_keys), ("bad.run", broken_keys)):
        with RunWriter(tmp_path / name, dtype) as writer:
            writer.append(make_records(keys, vertices))
    out = []
    with RunReader(tmp_path / "good.run", dtype) as a, \
            RunReader(tmp_path / "bad.run", dtype) as b:
        with pytest.raises(SortContractError):
            merge_streams_k([a, b], out.append, window_records=8,
                            merge_fn_k=lambda parts, out=None: np.sort(
                                np.concatenate(parts), order="key"))


def test_corrupted_sorted_partition_detected_on_resume(chaos_data, config,
                                                       tmp_path):
    md, _ = chaos_data
    config = replace(config, memory=SPILLING,
                     host_block_pairs=SPILLING_BLOCK_PAIRS)
    workdir = tmp_path / "w"
    golden = Assembler(config).assemble(md.store_path, workdir=workdir,
                                        resume=True)
    victim = next(iter(sorted((workdir / "partitions").glob("S_*.sorted.run"))))
    recorded = file_digest(victim)
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))
    assert file_digest(victim) != recorded
    # Resume must notice the at-rest corruption via the artifact digest,
    # rebuild from the packed store, and still converge to the golden run.
    resumed = Assembler(config).assemble(md.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(golden)


def test_torn_ledger_write_recovers(chaos_data, config, tmp_path):
    md, _ = chaos_data
    golden = Assembler(config).assemble(md.store_path,
                                        workdir=tmp_path / "golden", resume=True)
    workdir = tmp_path / "w"
    plan = FaultPlan([Fault(TORN, site=LEDGER, offset=10)])
    with inject(plan):
        with pytest.raises(FaultInjected):
            Assembler(config).assemble(md.store_path, workdir=workdir,
                                       resume=True)
    state_raw = (workdir / STATE_FILE).read_bytes()
    with pytest.raises(json.JSONDecodeError):
        json.loads(state_raw)  # genuinely torn on disk
    resumed = Assembler(config).assemble(md.store_path, workdir=workdir,
                                         resume=True)
    assert result_digest(resumed) == result_digest(golden)


# -- satellite: distributed reduce token hand-off ------------------------------


class TestDistributedToken:
    N_NODES = 3

    def test_node_failure_retries_without_losing_token(self, chaos_data,
                                                       config):
        md, _ = chaos_data
        clean = DistributedAssembler(config, self.N_NODES).assemble(md.store_path)
        assert all(entry["ok"] for entry in clean.token_trace)

        plan = FaultPlan([Fault(CRASH, site=READ, match="*.sorted.run")])
        with inject(plan):
            faulted = DistributedAssembler(config, self.N_NODES).assemble(
                md.store_path)
        failures = [e for e in faulted.token_trace if not e["ok"]]
        assert len(failures) == 1
        # The failed partition was replayed on the same owner...
        replayed = [e for e in faulted.token_trace
                    if e["length"] == failures[0]["length"] and e["ok"]]
        assert len(replayed) == 1 and replayed[0]["attempt"] == 1
        # ...and the token was neither lost nor duplicated: every partition
        # processed exactly once, edge set and contigs identical.
        ok_lengths = [e["length"] for e in faulted.token_trace if e["ok"]]
        assert sorted(ok_lengths) == sorted(set(ok_lengths))
        assert faulted.edges == clean.edges
        assert np.array_equal(faulted.contigs.flat_codes,
                              clean.contigs.flat_codes)

    @staticmethod
    def _lose_every_node(config):
        """Every node op of every node crashes and no node may restart: the
        ladder loses the whole cluster and cannot finish the run."""
        return (replace(config, node_restarts=0),
                FaultPlan([Fault(NODE_CRASH, site=NODE, once=False)]))

    def test_persistent_node_failure_raises_typed_error(self, chaos_data,
                                                        config):
        md, _ = chaos_data
        doomed, plan = self._lose_every_node(config)
        with inject(plan):
            with pytest.raises(DistributedProtocolError,
                               match="no surviving nodes"):
                DistributedAssembler(doomed, self.N_NODES).assemble(
                    md.store_path)
        assert [e.kind for e in plan.events] == [NODE_CRASH] * self.N_NODES

    def test_failing_run_closes_the_store_it_opened(self, chaos_data, config,
                                                    monkeypatch):
        md, _ = chaos_data
        opened = []
        real_open = PackedReadStore.open

        def spy(cls, path, meter=None):
            opened.append(real_open(path, meter))
            return opened[-1]

        monkeypatch.setattr(PackedReadStore, "open", classmethod(spy))
        doomed, plan = self._lose_every_node(config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with inject(plan), pytest.raises(DistributedProtocolError,
                                             match="no surviving nodes"):
                DistributedAssembler(doomed, self.N_NODES).assemble(
                    md.store_path)
            with pytest.raises(ValueError, match="closed file"):
                opened[0].read_packed_slice(0, 1)
            del opened[:]
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestPlanArmedMidStream:
    """A plan armed after a stream opened sees the stream as it is.

    RunWriter coalesces small appends in a tail buffer and RunReader reads
    with ``np.fromfile``, armed or not; the buffered tail reaches the fault
    site as one ordinary write when it drains, and every read passes the
    read filter.
    """

    @pytest.mark.parametrize("drain", ["close", "64KB"])
    def test_buffered_tail_is_one_injectable_write(self, tmp_path, drain):
        dtype = kv_dtype(1)
        records = make_records(np.arange(10, dtype=np.uint64),
                               np.zeros(10, dtype=np.uint32))
        path = tmp_path / "x.run"
        writer = RunWriter(path, dtype)
        writer.append(records)  # coalesced: nothing OS-visible yet
        assert path.stat().st_size == 0
        plan = FaultPlan([Fault(TORN, site=WRITE, offset=4)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                if drain == "close":
                    writer.close()
                else:
                    # Below the coalescing size on its own, past it with
                    # the buffered tail: the append drains the tail.
                    n = _COALESCE_BYTES // dtype.itemsize - 1
                    writer.append(make_records(
                        np.arange(n, dtype=np.uint64),
                        np.zeros(n, dtype=np.uint32)))
        assert [e.kind for e in plan.events] == [TORN]
        writer.close()
        # The tail was cleared before delivery, so neither the unwind nor
        # a later close re-delivers it: exactly the torn prefix is on disk.
        assert path.stat().st_size == 4
        RunWriter(path, dtype).close()  # the path was released

    def test_armed_plan_routes_reads_through_filter(self, tmp_path):
        dtype = kv_dtype(1)
        path = tmp_path / "x.run"
        keys = np.arange(20, dtype=np.uint64)
        with RunWriter(path, dtype) as writer:
            writer.append(make_records(keys, np.zeros(20, dtype=np.uint32)))
        with RunReader(path, dtype) as reader:
            first = reader.read(5)  # no plan armed
            assert np.array_equal(first["key"], keys[:5])
            plan = FaultPlan([Fault(BITFLIP, site=READ, offset=3)])
            with inject(plan):
                flipped = reader.read(5)
            # The scheduled corruption fired on a read the stream had
            # opened before the plan was armed.
            assert [e.kind for e in plan.events] == [BITFLIP]
            assert not np.array_equal(flipped["key"], keys[5:10])
            rest = reader.read_all()  # disarmed: read untouched
            assert np.array_equal(rest["key"], keys[10:])
