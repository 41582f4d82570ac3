"""Run streams: sequential access contracts and accounting."""

import numpy as np
import pytest

from repro.errors import StreamProtocolError
from repro.extmem import IOAccountant, RunReader, RunWriter
from repro.extmem.records import kv_dtype, make_records


@pytest.fixture()
def records(rng):
    return make_records(rng.integers(0, 100, 50, dtype=np.uint64),
                        np.arange(50, dtype=np.uint32))


class TestRoundtrip:
    def test_write_then_read(self, tmp_path, records):
        path = tmp_path / "run"
        with RunWriter(path, records.dtype) as writer:
            writer.append(records[:30])
            writer.append(records[30:])
        with RunReader(path, records.dtype) as reader:
            assert reader.total_records == 50
            out = reader.read_all()
        assert np.array_equal(out, records)

    def test_partial_reads(self, tmp_path, records):
        path = tmp_path / "run"
        with RunWriter(path, records.dtype) as writer:
            writer.append(records)
        with RunReader(path, records.dtype) as reader:
            first = reader.read(20)
            assert first.shape[0] == 20 and reader.remaining == 30
            rest = reader.read(1000)
            assert rest.shape[0] == 30
            assert reader.exhausted
            assert reader.read(10).shape[0] == 0

    def test_read_copy_is_owned(self, tmp_path, records):
        path = tmp_path / "run"
        with RunWriter(path, records.dtype) as writer:
            writer.append(records)
        with RunReader(path, records.dtype) as reader:
            chunk = reader.read(5)
            chunk["val"][:] = 0  # must not raise (writable copy)


class TestContracts:
    def test_exclusive_open(self, tmp_path, records):
        path = tmp_path / "run"
        writer = RunWriter(path, records.dtype)
        with pytest.raises(StreamProtocolError, match="already open"):
            RunReader(path, records.dtype)
        writer.close()
        reader = RunReader(path, records.dtype)
        with pytest.raises(StreamProtocolError, match="already open"):
            RunWriter(path, records.dtype)
        reader.close()

    def test_dtype_mismatch(self, tmp_path, records):
        path = tmp_path / "run"
        with RunWriter(path, records.dtype) as writer:
            with pytest.raises(StreamProtocolError, match="dtype mismatch"):
                writer.append(np.zeros(3, dtype=kv_dtype(2)))

    def test_append_after_close(self, tmp_path, records):
        writer = RunWriter(tmp_path / "run", records.dtype)
        writer.close()
        with pytest.raises(StreamProtocolError):
            writer.append(records)

    def test_size_must_be_record_multiple(self, tmp_path, records):
        path = tmp_path / "bad"
        path.write_bytes(b"\x00" * (records.dtype.itemsize + 1))
        with pytest.raises(StreamProtocolError, match="multiple"):
            RunReader(path, records.dtype)

    def test_failed_reader_open_leaves_no_stale_registration(self, tmp_path,
                                                             records):
        """A reader that never got a handle must not poison the path: the
        next open (either mode) has to succeed, not raise 'already open'."""
        path = tmp_path / "missing"
        with pytest.raises(FileNotFoundError):
            RunReader(path, records.dtype)
        with RunWriter(path, records.dtype) as writer:  # must not raise
            writer.append(records)
        with RunReader(path, records.dtype) as reader:
            assert reader.total_records == records.shape[0]

    def test_failed_writer_open_leaves_no_stale_registration(self, tmp_path,
                                                             records):
        path = tmp_path / "blocked"
        path.mkdir()  # open(..., "wb") on a directory raises IsADirectoryError
        with pytest.raises(OSError):
            RunWriter(path, records.dtype)
        path.rmdir()
        with RunWriter(path, records.dtype) as writer:  # must not raise
            writer.append(records)

    def test_bad_size_reader_leaves_no_stale_registration(self, tmp_path,
                                                          records):
        path = tmp_path / "bad"
        path.write_bytes(b"\x00" * (records.dtype.itemsize + 1))
        with pytest.raises(StreamProtocolError, match="multiple"):
            RunReader(path, records.dtype)
        path.unlink()
        with RunWriter(path, records.dtype) as writer:
            writer.append(records)


class TestAccounting:
    def test_bytes_and_seeks(self, tmp_path, records):
        accountant = IOAccountant()
        path = tmp_path / "run"
        with RunWriter(path, records.dtype, accountant) as writer:
            writer.append(records)
        assert accountant.write_bytes == records.nbytes
        with RunReader(path, records.dtype, accountant) as reader:
            reader.read(10)
            reader.read(10)
        assert accountant.read_bytes == 20 * records.dtype.itemsize
        counters = accountant.counters()
        assert counters["disk_seeks"] == 1.0  # reader positioning only
        assert counters["disk_read_ops"] == 2.0

    def test_clock_charged(self, tmp_path, records):
        from repro.device import SimClock
        from repro.device.specs import DiskSpec

        clock = SimClock()
        accountant = IOAccountant(DiskSpec(read_bandwidth=1e6, write_bandwidth=1e6,
                                           seek_seconds=0.0), clock)
        with RunWriter(tmp_path / "run", records.dtype, accountant) as writer:
            writer.append(records)
        assert clock.seconds("disk_write") == pytest.approx(records.nbytes / 1e6)
