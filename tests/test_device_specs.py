"""Device catalog and hardware specs."""

import pytest

from repro.device import DeviceSpec, DiskSpec, HostSpec, device_catalog, get_device_spec
from repro.errors import ConfigError
from repro.units import parse_size


class TestCatalog:
    def test_all_paper_gpus_present(self):
        assert set(device_catalog()) == {"K20X", "K40", "P40", "P100", "V100"}

    def test_published_capacities(self):
        assert get_device_spec("K40").mem_bytes == parse_size("12 GB")
        assert get_device_spec("K20X").mem_bytes == parse_size("6 GB")
        assert get_device_spec("P40").mem_bytes == parse_size("24 GB")

    def test_fig9_bandwidth_inversion(self):
        """P40 has more cores but far less bandwidth than P100 (Fig. 9)."""
        p40, p100 = get_device_spec("P40"), get_device_spec("P100")
        assert p40.cores > p100.cores
        assert p40.mem_bandwidth < p100.mem_bandwidth

    def test_v100_is_fastest_memory(self):
        bandwidths = {name: spec.mem_bandwidth
                      for name, spec in device_catalog().items()}
        assert max(bandwidths, key=bandwidths.get) == "V100"

    def test_case_insensitive_lookup(self):
        assert get_device_spec("v100").name == "V100"

    def test_unknown_device(self):
        with pytest.raises(ConfigError, match="unknown device"):
            get_device_spec("H100")


class TestOtherSpecs:
    def test_disk_defaults(self):
        disk = DiskSpec()
        assert disk.read_bandwidth > 0 and disk.write_bandwidth > 0

    def test_ssd_faster(self):
        assert DiskSpec.ssd().read_bandwidth > DiskSpec().read_bandwidth
        assert DiskSpec.ssd().seek_seconds < DiskSpec().seek_seconds

    def test_host_defaults(self):
        host = HostSpec()
        assert host.cores == 20  # dual 10-core Xeons of the paper's nodes
