"""Packed read store: 2-bit codec and on-disk format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import MemoryPool
from repro.errors import DatasetError, HostMemoryError, StreamProtocolError
from repro.extmem import IOAccountant
from repro.faults import BITFLIP, READ, Fault, FaultPlan, inject
from repro.seq.packing import PackedReadStore, pack_codes, unpack_codes
from repro.seq.records import ReadBatch


class TestCodec:
    def test_pack_width(self):
        packed = pack_codes(np.zeros((3, 10), dtype=np.uint8))
        assert packed.shape == (3, 3)  # ceil(10/4)

    def test_roundtrip_known(self):
        codes = np.array([[0, 1, 2, 3, 0, 1]], dtype=np.uint8)
        assert np.array_equal(unpack_codes(pack_codes(codes), 6), codes)

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_roundtrip_property(self, length, n, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, (n, length), dtype=np.uint8)
        assert np.array_equal(unpack_codes(pack_codes(codes), length), codes)

    def test_packing_is_dense(self):
        """4 bases per byte — the 13x FASTQ shrink the paper relies on."""
        codes = np.zeros((1, 100), dtype=np.uint8)
        assert pack_codes(codes).nbytes == 25


class TestStore:
    def test_write_read_roundtrip(self, tmp_path, rng):
        codes = rng.integers(0, 4, (100, 33), dtype=np.uint8)
        path = tmp_path / "reads.lsgr"
        with PackedReadStore.create(path, 33) as store:
            store.append_batch(ReadBatch(codes[:60]))
            store.append_batch(ReadBatch(codes[60:]))
        with PackedReadStore.open(path) as store:
            assert store.n_reads == 100
            assert store.read_length == 33
            out = store.read_slice(0, 100)
            assert np.array_equal(out.codes, codes)

    def test_read_slice_ids(self, tmp_path, rng):
        codes = rng.integers(0, 4, (10, 8), dtype=np.uint8)
        path = tmp_path / "r.lsgr"
        with PackedReadStore.create(path, 8) as store:
            store.append_batch(ReadBatch(codes))
        with PackedReadStore.open(path) as store:
            chunk = store.read_slice(4, 7)
            assert chunk.start_id == 4
            assert np.array_equal(chunk.codes, codes[4:7])

    def test_iter_batches(self, tmp_path, rng):
        codes = rng.integers(0, 4, (25, 5), dtype=np.uint8)
        path = tmp_path / "r.lsgr"
        with PackedReadStore.create(path, 5) as store:
            store.append_batch(ReadBatch(codes))
        with PackedReadStore.open(path) as store:
            sizes = [b.n_reads for b in store.iter_batches(10)]
            assert sizes == [10, 10, 5]

    def test_mode_enforcement(self, tmp_path):
        path = tmp_path / "r.lsgr"
        writer = PackedReadStore.create(path, 4)
        with pytest.raises(StreamProtocolError):
            writer.read_slice(0, 0)
        writer.close()
        reader = PackedReadStore.open(path)
        with pytest.raises(StreamProtocolError):
            reader.append_batch(ReadBatch.from_strings(["ACGT"]))
        reader.close()

    def test_length_mismatch_rejected(self, tmp_path):
        with PackedReadStore.create(tmp_path / "r.lsgr", 4) as store:
            with pytest.raises(DatasetError):
                store.append_batch(ReadBatch.from_strings(["ACGTA"]))

    def test_slice_bounds_checked(self, tmp_path):
        path = tmp_path / "r.lsgr"
        with PackedReadStore.create(path, 4) as store:
            store.append_batch(ReadBatch.from_strings(["ACGT"]))
        with PackedReadStore.open(path) as store:
            with pytest.raises(DatasetError):
                store.read_slice(0, 2)

    def test_open_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a store, definitely")
        with pytest.raises(DatasetError, match="not a packed read store"):
            PackedReadStore.open(path)

    def test_open_rejects_truncated(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"xy")
        with pytest.raises(DatasetError, match="truncated"):
            PackedReadStore.open(path)

    def test_meter_counts_bytes(self, tmp_path, rng):
        class Meter:
            reads = writes = 0

            def add_read(self, n):
                Meter.reads += n

            def add_write(self, n):
                Meter.writes += n

        codes = rng.integers(0, 4, (8, 8), dtype=np.uint8)
        path = tmp_path / "r.lsgr"
        with PackedReadStore.create(path, 8, Meter()) as store:
            store.append_batch(ReadBatch(codes))
        assert Meter.writes == 8 * 2  # 8 reads x 2 packed bytes
        with PackedReadStore.open(path, Meter()) as store:
            store.read_slice(0, 8)
        assert Meter.reads == 16


class TestHeldStore:
    """A held store reads its payload off the disk once, on the first walk,
    and from host memory after; each read still passes the ``READ`` hook."""

    @pytest.fixture()
    def stored(self, tmp_path, rng):
        codes = rng.integers(0, 4, (40, 10), dtype=np.uint8)
        path = tmp_path / "r.lsgr"
        with PackedReadStore.create(path, 10) as store:
            store.append_batch(ReadBatch(codes))
        return path, codes

    def test_later_walks_read_host_memory(self, stored):
        path, codes = stored
        accountant = IOAccountant()
        pool = MemoryPool("host", 1 << 20, HostMemoryError)
        plan = FaultPlan()
        with inject(plan), PackedReadStore.open(path, accountant) as store:
            store.hold(pool, [(0, store.n_reads)])
            assert pool.used_bytes == store.nbytes
            for _ in range(3):
                walked = np.concatenate([store.read_slice(start, start + 16).codes
                                         for start in (0, 16)]
                                        + [store.read_slice(32, 40).codes])
                assert np.array_equal(walked, codes)
            assert accountant.read_bytes == store.nbytes
        assert pool.used_bytes == 0
        assert [point.site for point in plan.trace] == [READ] * 9
        assert {point.path for point in plan.trace} == {str(path)}

    def test_a_corrupted_read_corrupts_that_read_alone(self, stored):
        path, codes = stored
        pool = MemoryPool("host", 1 << 20, HostMemoryError)
        plan = FaultPlan([Fault(BITFLIP, site=READ, at_op=0, offset=0)])
        with inject(plan), PackedReadStore.open(path) as store:
            store.hold(pool, [(0, store.n_reads)])
            assert not np.array_equal(store.read_slice(0, 40).codes, codes)
            assert np.array_equal(store.read_slice(0, 40).codes, codes)
        assert plan.events

    def test_a_store_that_raises_gives_its_memory_back(self, stored):
        path, _ = stored
        pool = MemoryPool("host", 1 << 20, HostMemoryError)
        with pytest.raises(RuntimeError, match="boom"):
            with PackedReadStore.open(path) as store:
                store.hold(pool, [(0, store.n_reads)])
                store.read_slice(0, 8)
                raise RuntimeError("boom")
        assert pool.used_bytes == 0

    def test_ranges_are_held_alone(self, stored):
        """Held ranges (a cluster node's read blocks) are read off the disk
        on their first walk and from host memory after; a read outside
        them always reads the disk. A range held again reserves nothing."""
        path, codes = stored
        accountant = IOAccountant()
        pool = MemoryPool("host", 1 << 20, HostMemoryError)
        plan = FaultPlan()
        blocks = [(0, 10), (20, 30)]
        with inject(plan), PackedReadStore.open(path, accountant) as store:
            per_read = store.nbytes // store.n_reads
            assert store.hold(pool, blocks) is not None
            assert store.hold(pool, blocks[1:]) is None
            assert pool.used_bytes == 20 * per_read
            for _ in range(3):
                for start, stop in blocks + [(10, 20), (30, 40)]:
                    assert np.array_equal(store.read_slice(start, stop).codes,
                                          codes[start:stop])
            assert accountant.read_bytes == (20 + 3 * 20) * per_read
        assert pool.used_bytes == 0
        assert [point.site for point in plan.trace] == [READ] * 12

    def test_a_walk_cut_short_fills_on_from_the_disk(self, stored):
        """A range's copy fills from its start: a read that starts past the
        reads filled so far reads the disk and fills nothing, and the
        next walk reads the disk from where the copy ends."""
        path, codes = stored
        accountant = IOAccountant()
        pool = MemoryPool("host", 1 << 20, HostMemoryError)
        with PackedReadStore.open(path, accountant) as store:
            per_read = store.nbytes // store.n_reads
            store.hold(pool, [(0, 40)])
            store.read_slice(0, 10)
            store.read_slice(20, 30)  # past the copy: not held
            for _ in range(2):
                for start in range(0, 40, 10):
                    assert np.array_equal(
                        store.read_slice(start, start + 10).codes,
                        codes[start:start + 10])
            assert accountant.read_bytes == (10 + 10 + 30) * per_read
