"""KV record layout and the partition store."""

import numpy as np
import pytest

from repro.errors import ConfigError, StreamProtocolError
from repro.extmem import IOAccountant, PartitionStore
from repro.extmem.records import kv_dtype, make_records, record_fields


class TestRecords:
    def test_widths(self):
        assert kv_dtype(1).itemsize == 12
        assert kv_dtype(2).itemsize == 20  # the paper's 128-bit + 32-bit pair

    def test_lanes_validation(self):
        with pytest.raises(ConfigError):
            kv_dtype(3)

    def test_make_and_split_single_lane(self):
        records = make_records(np.array([5, 6], dtype=np.uint64),
                               np.array([1, 2], dtype=np.uint32))
        keys, vals, aux = record_fields(records)
        assert keys.tolist() == [5, 6]
        assert vals.tolist() == [1, 2]
        assert aux is None

    def test_make_and_split_two_lanes(self):
        records = make_records(np.array([5], dtype=np.uint64),
                               np.array([1], dtype=np.uint32),
                               aux=np.array([9], dtype=np.uint64))
        _, _, aux = record_fields(records)
        assert aux.tolist() == [9]


class TestPartitionStore:
    def _records(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return make_records(rng.integers(0, 99, n, dtype=np.uint64),
                            np.arange(n, dtype=np.uint32))

    def test_append_and_read(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1))
        store.append("S", 30, self._records(10))
        store.append("S", 30, self._records(5, seed=1))
        store.append("P", 30, self._records(7))
        store.append("S", 31, self._records(3))
        store.finalize()
        assert store.lengths() == [30, 31]
        assert store.records_in("S", 30) == 15
        assert store.records_in("P", 30) == 7
        assert store.records_in("P", 31) == 0
        with store.open_run("S", 30) as reader:
            assert reader.total_records == 15

    def test_side_validation(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1))
        with pytest.raises(ConfigError):
            store.append("Q", 30, self._records(1))

    def test_lengths_requires_finalize(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1))
        store.append("S", 30, self._records(1))
        with pytest.raises(StreamProtocolError, match="finalize"):
            store.lengths()
        store.finalize()  # closes the writer the append opened

    def test_sorted_path_distinct(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1))
        assert store.path("S", 30) != store.path("S", 30, sorted_run=True)

    def test_delete(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1))
        store.append("S", 30, self._records(4))
        store.finalize()
        store.delete("S", 30)
        assert store.records_in("S", 30) == 0
        store.delete("S", 30)  # idempotent

    def test_total_bytes(self, tmp_path):
        store = PartitionStore(tmp_path, kv_dtype(1), IOAccountant())
        store.append("S", 30, self._records(10))
        store.finalize()
        assert store.total_bytes() == 10 * 12

    def test_context_manager_finalizes(self, tmp_path):
        with PartitionStore(tmp_path, kv_dtype(1)) as store:
            store.append("P", 40, self._records(2))
        assert store.lengths() == [40]
