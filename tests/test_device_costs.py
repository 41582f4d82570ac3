"""Cost model: monotonicity and hardware-ordering properties."""

import pytest
from hypothesis import given, strategies as st

from repro.config import MemoryConfig
from repro.device import SimClock, costs
from repro.device.specs import DiskSpec, HostSpec, get_device_spec
from repro.extmem import IOAccountant
from repro.model import Workload, model_phase_seconds
from repro.seq.datasets import dataset_registry

K40 = get_device_spec("K40")
V100 = get_device_spec("V100")


class TestKernelCosts:
    def test_sort_linear_in_n(self):
        t1 = costs.sort_pairs_seconds(K40, 10**6, 8, 4)
        t2 = costs.sort_pairs_seconds(K40, 2 * 10**6, 8, 4)
        assert t2 == pytest.approx(2 * t1)

    def test_sort_scales_with_key_width(self):
        """16-byte (128-bit) keys need twice the radix passes of 8-byte keys."""
        t8 = costs.sort_pairs_seconds(K40, 10**6, 8, 4)
        t16 = costs.sort_pairs_seconds(K40, 10**6, 16, 4)
        assert t16 > t8

    def test_bandwidth_ordering(self):
        for fn in (lambda s: costs.sort_pairs_seconds(s, 10**6, 8, 4),
                   lambda s: costs.merge_pairs_seconds(s, 10**6, 8, 4),
                   lambda s: costs.scan_seconds(s, 10**4, 100)):
            assert fn(V100) < fn(K40)

    def test_zero_work_is_free(self):
        assert costs.sort_pairs_seconds(K40, 0, 8, 4) == 0.0
        assert costs.search_seconds(K40, 0, 100) == 0.0
        assert costs.scan_seconds(K40, 0, 100) == 0.0
        assert costs.transfer_seconds(K40, 0) == 0.0

    def test_search_logarithmic_in_haystack(self):
        small = costs.search_seconds(K40, 1000, 2**10)
        large = costs.search_seconds(K40, 1000, 2**20)
        assert large == pytest.approx(2 * small, rel=0.01)


class TestSeededScan:
    """The banded map's kernel: a seed up to ``lo``, then the window."""

    @given(st.integers(1, 10**9), st.integers(1, 10**4))
    def test_seed_free_window_is_the_whole_row_scan(self, n_rows, width):
        seeded = costs.scan_seconds(K40, n_rows, width, lo=1)
        assert seeded == costs.scan_seconds(K40, n_rows, width)

    def test_seed_and_window_terms(self):
        """``P_L`` alone (``lo = hi = 100``) is one pass over one column
        plus the 99-column seed; the ``{79..94}`` band scans 16 columns in
        four passes beside a 78-column seed."""
        unit = costs.scan_seconds(K40, 1000, 1)
        assert costs.scan_seconds(K40, 1000, 100, lo=100) \
            == pytest.approx(unit * (1 + 99))
        assert costs.scan_seconds(K40, 1000, 94, lo=79) \
            == pytest.approx(unit * (4 * 16 + 78))

    def test_paper_schedule_map_is_pinned(self):
        """The paper-scale map of H.Genome on K40 charges the whole-read
        scan; its float does not move with the banded map's kernel."""
        hgenome = Workload.from_spec(dataset_registry()["hgenome_sim"])
        phases = model_phase_seconds(hgenome, MemoryConfig.preset("qb2"), "K40")
        assert phases["map"] == 12945.30753567498
        assert costs.scan_seconds(K40, hgenome.n_reads, hgenome.read_length) \
            == 88.20837115151515


class TestTransferAndDisk:
    def test_pcie_bandwidth(self):
        assert costs.transfer_seconds(K40, int(6e9)) == pytest.approx(1.0)

    def test_disk_rates(self):
        disk = DiskSpec(read_bandwidth=100e6, write_bandwidth=50e6, seek_seconds=0.01)
        assert costs.disk_read_seconds(disk, int(100e6)) == pytest.approx(1.0)
        writes = IOAccountant(disk, SimClock())
        writes.add_write(int(100e6))  # no seek: through the write-behind cache
        assert writes.clock.seconds("disk_write") == pytest.approx(2.0)
        assert costs.disk_read_seconds(disk, 0, seeks=3) == pytest.approx(0.03)

    def test_host_work(self):
        host = HostSpec()
        assert costs.host_work_seconds(host, 10**9) > 0
        assert costs.host_work_seconds(host, 0) == 0.0
