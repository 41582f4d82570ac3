"""The hybrid two-level external sort."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import MemoryPool, SimClock, VirtualGPU
from repro.errors import ConfigError, HostMemoryError
from repro.extmem import (ExternalSorter, IOAccountant, RunReader, RunWriter,
                          merge_rounds_for)
from repro.extmem.records import VAL_FIELD, kv_dtype, make_records
from repro.model.sorting import predicted_sort_passes


def _make_sorter(host_capacity=200_000, device_capacity=20_000, lanes=1,
                 accountant=None, merge_fanout=2):
    dtype = kv_dtype(lanes)
    gpu = VirtualGPU("K40", capacity_bytes=device_capacity, clock=SimClock())
    host_pool = MemoryPool("host", host_capacity, HostMemoryError)
    m_h = int(host_capacity * 0.85) // dtype.itemsize
    m_d = int(device_capacity * 0.85) // dtype.itemsize
    sorter = ExternalSorter(gpu=gpu, host_pool=host_pool, accountant=accountant,
                            dtype=dtype, host_block_pairs=m_h,
                            device_block_pairs=m_d, merge_fanout=merge_fanout)
    return sorter, gpu, host_pool


def _write_run(path, records, accountant=None):
    with RunWriter(path, records.dtype, accountant) as writer:
        writer.append(records)


def _read_run(path, dtype, accountant=None):
    with RunReader(path, dtype, accountant) as reader:
        return reader.read_all()


class TestSortFile:
    @given(st.integers(0, 20_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_sorts_any_size(self, tmp_path_factory, n, seed):
        tmp_path = tmp_path_factory.mktemp("sort")
        rng = np.random.default_rng(seed)
        records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32))
        sorter, _, _ = _make_sorter()
        _write_run(tmp_path / "in", records)
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert report.n_records == n
        out = _read_run(tmp_path / "out", records.dtype)
        assert np.array_equal(out["key"], np.sort(records["key"]))
        assert sorted(out["val"].tolist()) == sorted(records["val"].tolist())

    def test_empty_input(self, tmp_path):
        sorter, _, _ = _make_sorter()
        (tmp_path / "in").write_bytes(b"")
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert report.n_records == 0 and report.disk_passes == 0
        assert (tmp_path / "out").stat().st_size == 0

    def test_budgets_respected(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 60_000, dtype=np.uint64),
                               np.arange(60_000, dtype=np.uint32))
        sorter, gpu, host_pool = _make_sorter()
        _write_run(tmp_path / "in", records)
        sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert gpu.pool.lifetime_peak_bytes <= gpu.pool.capacity_bytes
        assert host_pool.lifetime_peak_bytes <= host_pool.capacity_bytes

    def test_pass_counts_scale_with_memory(self, tmp_path, rng):
        """Halving host memory adds merge rounds — the Table II/III effect."""
        records = make_records(rng.integers(0, 2**62, 40_000, dtype=np.uint64),
                               np.arange(40_000, dtype=np.uint32))
        passes = {}
        for name, host_capacity in (("big", 2_000_000), ("small", 250_000)):
            sorter, _, _ = _make_sorter(host_capacity=host_capacity)
            _write_run(tmp_path / f"in_{name}", records)
            report = sorter.sort_file(tmp_path / f"in_{name}",
                                      tmp_path / f"out_{name}")
            passes[name] = report.disk_passes
        assert passes["big"] == 1
        assert passes["small"] > passes["big"]

    def test_single_block_single_pass(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 1000, dtype=np.uint64),
                               np.arange(1000, dtype=np.uint32))
        sorter, _, _ = _make_sorter()
        _write_run(tmp_path / "in", records)
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert report.initial_runs == 1
        assert report.merge_rounds == 0
        assert report.disk_passes == 1

    def test_disk_bytes_match_passes(self, tmp_path, rng):
        accountant = IOAccountant()
        records = make_records(rng.integers(0, 2**62, 30_000, dtype=np.uint64),
                               np.arange(30_000, dtype=np.uint32))
        sorter, _, _ = _make_sorter(accountant=accountant)
        _write_run(tmp_path / "in", records, accountant)
        written_before = accountant.write_bytes
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        sorted_writes = accountant.write_bytes - written_before
        # Run formation writes everything once; each merge round rewrites at
        # most everything (an odd carried-over run is not rewritten).
        assert records.nbytes <= sorted_writes <= report.disk_passes * records.nbytes

    def test_two_lane_records(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 5000, dtype=np.uint64),
                               np.arange(5000, dtype=np.uint32),
                               aux=rng.integers(0, 2**62, 5000, dtype=np.uint64))
        sorter, _, _ = _make_sorter(lanes=2)
        _write_run(tmp_path / "in", records)
        sorter.sort_file(tmp_path / "in", tmp_path / "out")
        out = _read_run(tmp_path / "out", records.dtype)
        order = np.argsort(records["key"], kind="stable")
        assert np.array_equal(out["key"], records["key"][order])
        # aux stays glued to its record
        pairs = set(zip(records["key"].tolist(), records["aux"].tolist()))
        assert set(zip(out["key"].tolist(), out["aux"].tolist())) == pairs

    def test_scratch_cleaned_up(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 20_000, dtype=np.uint64),
                               np.arange(20_000, dtype=np.uint32))
        sorter, _, _ = _make_sorter()
        _write_run(tmp_path / "in", records)
        sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert list(tmp_path.glob("out.scratch*")) == []

    def test_filtered_sort_under_a_trace_function(self, tmp_path, rng):
        """A trace function (pdb, coverage, ``sys.settrace``) holds extra
        references to a frame's locals: the filtered single-run sort must
        not depend on refcounts."""
        records = make_records(rng.integers(0, 2**62, 1000, dtype=np.uint64),
                               np.arange(1000, dtype=np.uint32))
        _write_run(tmp_path / "in", records)

        def keep(piece):
            return piece["val"] % 3 != 0

        plain, _, _ = _make_sorter()
        expected = plain.sort_file(tmp_path / "in", tmp_path / "plain",
                                   keep=keep)
        traced, _, _ = _make_sorter()
        previous = sys.gettrace()
        sys.settrace(lambda *args: None)
        try:
            report = traced.sort_file(tmp_path / "in", tmp_path / "traced",
                                      keep=keep)
        finally:
            sys.settrace(previous)
        assert report == expected and report.n_records == 666
        assert (tmp_path / "traced").read_bytes() \
            == (tmp_path / "plain").read_bytes()


class TestHeldRuns:
    """``hold`` is offered a one-piece run before it is written: a run it
    keeps never reaches the disk, and is the bytes the file would have
    held."""

    @staticmethod
    def _sort(sorter, tmp_path, name, keeps, keep=None):
        kept = {}

        def hold(records):
            kept["run"] = records.copy()
            return keeps

        report = sorter.sort_file(tmp_path / "in", tmp_path / name,
                                  keep=keep, hold=hold)
        return report, kept["run"]

    @pytest.mark.parametrize("shape", ("one-block", "filtered-full-block"))
    def test_a_held_run_is_never_written(self, tmp_path, rng, shape):
        accountant = IOAccountant()
        sorter, _, host_pool = _make_sorter(accountant=accountant)
        block = sorter.host_block
        n = block // 2 if shape == "one-block" else 3 * block
        records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32))
        _write_run(tmp_path / "in", records)
        # A full first block, then pieces the filter empties: the block
        # is written before the reader shows it was the only one.
        keep = None if shape == "one-block" \
            else (lambda piece: piece[VAL_FIELD] < block)
        held, run = self._sort(sorter, tmp_path, "held.run", True, keep)
        assert not (tmp_path / "held.run").exists()
        assert not (tmp_path / "held.run.scratch").exists()
        assert (accountant.write_bytes == 0) == (shape == "one-block")
        # Declined, the same run is written: the bytes hold kept.
        written, _ = self._sort(sorter, tmp_path, "written.run", False, keep)
        assert held == written and held.initial_runs == 1
        assert (tmp_path / "written.run").read_bytes() == run.tobytes()
        assert host_pool.used_bytes == 0


class TestMergeFanout:
    @given(n=st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1),
           host_capacity=st.integers(60_000, 400_000),
           device_capacity=st.integers(4_000, 40_000),
           fanout=st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=16, deadline=None)
    def test_sorted_output_and_pass_formula(self, tmp_path_factory, n, seed,
                                            host_capacity, device_capacity,
                                            fanout):
        """For any (m_h, m_d, k) split the output equals np.sort by key and
        ``disk_passes == 1 + ⌈log_k R⌉`` — the analytic model agrees."""
        tmp_path = tmp_path_factory.mktemp("kway")
        rng = np.random.default_rng(seed)
        records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32))
        sorter, gpu, host_pool = _make_sorter(
            host_capacity=host_capacity,
            device_capacity=min(device_capacity, host_capacity),
            merge_fanout=fanout)
        _write_run(tmp_path / "in", records)
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        out = _read_run(tmp_path / "out", records.dtype)
        assert np.array_equal(out["key"], np.sort(records["key"]))
        assert sorted(out["val"].tolist()) == sorted(records["val"].tolist())
        assert report.fanout == fanout
        if n:
            assert report.merge_rounds == merge_rounds_for(report.initial_runs,
                                                           fanout)
            if report.initial_runs > 1:
                # 1 + ceil(log_k R), computed away from float-log rounding.
                log_k = math.log(report.initial_runs) / math.log(fanout)
                assert report.disk_passes == 1 + math.ceil(round(log_k, 9))
            else:
                assert report.disk_passes == 1
            assert report.disk_passes == predicted_sort_passes(
                n, sorter.m_h, merge_fanout=fanout)
        assert gpu.pool.lifetime_peak_bytes <= gpu.pool.capacity_bytes
        assert host_pool.lifetime_peak_bytes <= host_pool.capacity_bytes

    def test_fanout_cuts_passes_and_disk_bytes(self, tmp_path, rng):
        """With >= 8 initial runs, k=4 drops ``1+⌈log₂R⌉`` to ``1+⌈log₄R⌉``
        and the measured disk traffic shrinks with the pass count."""
        records = make_records(rng.integers(0, 2**62, 60_000, dtype=np.uint64),
                               np.arange(60_000, dtype=np.uint32))
        measured = {}
        for fanout in (2, 4):
            accountant = IOAccountant()
            sorter, _, _ = _make_sorter(host_capacity=120_000,
                                        accountant=accountant,
                                        merge_fanout=fanout)
            _write_run(tmp_path / f"in{fanout}", records)
            before = accountant.total_bytes
            report = sorter.sort_file(tmp_path / f"in{fanout}",
                                      tmp_path / f"out{fanout}")
            measured[fanout] = (report, accountant.total_bytes - before)
        report2, bytes2 = measured[2]
        report4, bytes4 = measured[4]
        runs = report2.initial_runs
        assert runs >= 8
        assert report2.disk_passes == 1 + math.ceil(math.log2(runs))
        assert report4.disk_passes == 1 + math.ceil(math.log(runs, 4))
        assert report4.disk_passes < report2.disk_passes
        assert bytes4 < bytes2

    def test_fanout_validated(self):
        with pytest.raises(ConfigError, match="merge_fanout"):
            _make_sorter(merge_fanout=1)
        with pytest.raises(ConfigError, match="merge_fanout"):
            _make_sorter(merge_fanout=-3)
        with pytest.raises(ConfigError, match="merge_fanout"):
            _make_sorter(merge_fanout=0)

    @pytest.mark.parametrize("fanout", (2, 3, 4, 8))
    def test_one_device_trip_per_record_per_merge(self, tmp_path, fanout):
        """Every merge is k-way Algorithm 1 through the device, at both
        levels: a record is uploaded once to be sorted, once per level-2
        round inside its host block and once per disk merge round, as
        :mod:`repro.model.sorting` charges, whatever the fanout."""
        rng = np.random.default_rng(5)
        n = 40_000
        records = make_records(rng.integers(0, 2**62, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32))
        dtype = records.dtype
        gpu = VirtualGPU("K40", capacity_bytes=1 << 22, clock=SimClock())
        sorter = ExternalSorter(
            gpu=gpu, host_pool=MemoryPool("host", 1 << 24, HostMemoryError),
            accountant=None, dtype=dtype, host_block_pairs=8000,
            device_block_pairs=600, merge_fanout=fanout)
        uploaded = [0]
        to_device, merge_k = gpu.to_device, gpu.merge_records_device_k

        def counted_to_device(array, **kwargs):
            uploaded[0] += array.nbytes
            return to_device(array, **kwargs)

        def counted_merge_k(parts, **kwargs):
            uploaded[0] += sum(part.nbytes for part in parts)
            return merge_k(parts, **kwargs)

        gpu.to_device = counted_to_device
        gpu.merge_records_device_k = counted_merge_k
        _write_run(tmp_path / "in", records)
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        out = _read_run(tmp_path / "out", dtype)
        assert np.array_equal(out["key"], np.sort(records["key"]))
        chunks_per_block = math.ceil(sorter.host_block / sorter.device_chunk)
        level2_rounds = merge_rounds_for(chunks_per_block, fanout)
        # Several device chunks a host block, several runs, a merge round.
        assert level2_rounds >= 2 and report.initial_runs >= 8
        assert uploaded[0] / records.nbytes \
            <= 1 + level2_rounds + report.merge_rounds


class TestCrashSafety:
    def test_failing_merge_leaves_no_scratch(self, tmp_path, rng):
        """An exception mid-merge must tear the .scratch directory down and
        must not have produced any output file."""
        records = make_records(rng.integers(0, 2**62, 60_000, dtype=np.uint64),
                               np.arange(60_000, dtype=np.uint32))
        sorter, _, _ = _make_sorter(host_capacity=120_000)
        sorter.merge_windows = lambda parts, out=None: (_ for _ in ()).throw(
            RuntimeError("injected merge failure"))
        _write_run(tmp_path / "in", records)
        with pytest.raises(RuntimeError, match="injected"):
            sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert not (tmp_path / "out.scratch").exists()
        assert not (tmp_path / "out").exists()
        assert list(tmp_path.glob("*.scratch*")) == []

    def test_failing_run_formation_leaves_no_scratch(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 30_000, dtype=np.uint64),
                               np.arange(30_000, dtype=np.uint32))
        sorter, _, _ = _make_sorter()
        calls = {"n": 0}
        original = sorter.sort_block_in_host

        def fail_second(block):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("injected sort failure")
            return original(block)

        sorter.sort_block_in_host = fail_second
        _write_run(tmp_path / "in", records)
        with pytest.raises(RuntimeError, match="injected"):
            sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert not (tmp_path / "out.scratch").exists()
        assert not (tmp_path / "out").exists()

    def test_success_is_atomic_and_clean(self, tmp_path, rng):
        records = make_records(rng.integers(0, 2**62, 5_000, dtype=np.uint64),
                               np.arange(5_000, dtype=np.uint32))
        sorter, _, _ = _make_sorter()
        _write_run(tmp_path / "in", records)
        sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert (tmp_path / "out").exists()
        assert not (tmp_path / "out.scratch").exists()


class TestConfigValidation:
    def test_block_sizes_validated(self):
        gpu = VirtualGPU("K40", capacity_bytes=1000)
        pool = MemoryPool("host", 1000, HostMemoryError)
        with pytest.raises(ConfigError):
            ExternalSorter(gpu=gpu, host_pool=pool, accountant=None,
                           dtype=kv_dtype(1), host_block_pairs=1,
                           device_block_pairs=10)

    def test_device_block_clamped(self):
        gpu = VirtualGPU("K40", capacity_bytes=100_000)
        pool = MemoryPool("host", 100_000, HostMemoryError)
        sorter = ExternalSorter(gpu=gpu, host_pool=pool, accountant=None,
                                dtype=kv_dtype(1), host_block_pairs=10,
                                device_block_pairs=1000)
        assert sorter.m_d <= sorter.m_h


class TestPinnedGolden:
    """6,000 two-lane records, keys drawn from 1,500 values (ties within
    and across runs): 2 initial runs of 11 and 10 device chunks, so three
    level-2 merge levels at fanout 3 (four at fanout 2), and one level-1
    merge whose host windows exceed the device budget and are streamed
    through the device in device-sized windows.

    The fanout-2 values were computed on f2d7c5c, where an over-budget
    window went through a pairwise tournament; at fanout 2 that tournament
    is the k-way streaming merge, window for window, so they may not move.
    The fanout-3 disk counters, disk clocks and peaks were computed on afb504b,
    before the fused merge launch, the view windows and the byte-view
    copies. Its sha256, ``device_allocs`` and ``kernel`` / ``h2d`` /
    ``d2h`` clocks were re-pinned when the level-1 merge stopped folding a
    3-way window pairwise (two device trips a record) and streamed it
    3-way (one trip, windows of ``m_d / 6`` records, not ``m_d / 4``):
    more, smaller launches, and a different order among equal keys.
    """

    DISK_READ = "0x1.9f0fb38a94d24p-6"
    DISK_WRITE = "0x1.a36e2eb1c432cp-10"
    GOLDEN = {
        2: {"sha256": "c12d98824b133f1350bb9204af69e635"
                      "a93f025b5c459fdfdf894359a0a28e78",
            "device_allocs": 318.0, "device_peak": 17920,
            "clock": {"kernel": "0x1.e40aafe807cf3p-16",
                      "h2d": "0x1.ddb074d264e7ep-14",
                      "d2h": "0x1.ddb074d264e72p-14"},
            "disk": {"disk_read_bytes": 240000.0,
                     "disk_write_bytes": 240000.0, "disk_read_ops": 6.0,
                     "disk_write_ops": 4.0, "disk_seeks": 3.0}},
        3: {"sha256": "8fdacacafd022556b3d6fd9683300e55"
                      "67ce441194356265c1185fbc57e9b1a7",
            "device_allocs": 388.0, "device_peak": 17840,
            "clock": {"kernel": "0x1.04a34b06c920dp-15",
                      "h2d": "0x1.994ee2add1500p-14",
                      "d2h": "0x1.994ee2add1509p-14"},
            "disk": {"disk_read_bytes": 240000.0,
                     "disk_write_bytes": 240000.0, "disk_read_ops": 9.0,
                     "disk_write_ops": 7.0, "disk_seeks": 3.0}},
    }

    def _check(self, tmp_path, fanout):
        golden = self.GOLDEN[fanout]
        rng = np.random.default_rng(20260927)
        n = 6000
        dtype = kv_dtype(2)
        records = make_records(rng.integers(0, 1500, n, dtype=np.uint64),
                               np.arange(n, dtype=np.uint32),
                               rng.integers(0, 2**62, n, dtype=np.uint64))
        clock = SimClock()
        gpu = VirtualGPU("K40", capacity_bytes=900 * dtype.itemsize, clock=clock)
        host_pool = MemoryPool("host", 6400 * dtype.itemsize, HostMemoryError)
        accountant = IOAccountant(clock=clock)
        sorter = ExternalSorter(
            gpu=gpu, host_pool=host_pool, accountant=accountant,
            dtype=dtype, host_block_pairs=6400, device_block_pairs=900,
            merge_fanout=fanout)
        _write_run(tmp_path / "in", records)
        report = sorter.sort_file(tmp_path / "in", tmp_path / "out")
        assert (report.initial_runs, report.merge_rounds) == (2, 1)
        assert hashlib.sha256(
            (tmp_path / "out").read_bytes()).hexdigest() == golden["sha256"]
        assert gpu.pool.counters()["device_allocs"] == golden["device_allocs"]
        assert gpu.pool.lifetime_peak_bytes == golden["device_peak"]
        assert gpu.pool.used_bytes == 0
        assert host_pool.lifetime_peak_bytes == 128000
        # _write_run above is unmetered; the accountant saw the sort only.
        assert dict(accountant.counters()) == golden["disk"]
        clocks = dict(golden["clock"], disk_read=self.DISK_READ,
                      disk_write=self.DISK_WRITE)
        for category, pinned in clocks.items():
            assert clock.seconds(category).hex() == pinned, category

    def test_two_lane_partition(self, tmp_path):
        self._check(tmp_path, 3)

    def test_two_lane_partition_pairwise(self, tmp_path):
        self._check(tmp_path, 2)
