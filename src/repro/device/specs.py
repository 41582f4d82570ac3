"""Hardware specifications used by the timing model.

The GPU entries carry the published numbers the paper cites when explaining
Fig. 9 (core counts, boost clocks, memory bandwidths, device memory sizes).
The timing model is bandwidth-dominated — which is exactly why the paper
observes P100 beating P40 despite fewer cores, and why all GPUs converge
once sorting becomes disk-bound. A run's machine is named in its
:class:`~repro.config.AssemblyConfig`: ``device_name``, ``disk`` and
``network`` (the host is :data:`HOST`, one node class).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import parse_size


@dataclass(frozen=True)
class DeviceSpec:
    """One GPU model: capacity and throughput characteristics."""

    name: str
    mem_bytes: int
    mem_bandwidth: float  #: bytes/second
    cores: int
    clock_hz: float
    pcie_bandwidth: float  #: host<->device bytes/second


@dataclass(frozen=True)
class HostSpec:
    """Host CPU/memory characteristics (QueenBee II / SuperMIC class node)."""

    name: str = "xeon-node"
    mem_bandwidth: float = 60e9
    cores: int = 20
    clock_hz: float = 2.8e9


#: The modeled host: one node class for every run and for the paper-scale
#: model (QB2 and SuperMIC differ in their budgets, which
#: ``config.memory`` carries).
HOST = HostSpec()


@dataclass(frozen=True)
class DiskSpec:
    """Storage characteristics for the disk tier of the streaming model."""

    name: str = "hdd-raid"
    read_bandwidth: float = 180e6
    write_bandwidth: float = 150e6
    seek_seconds: float = 8e-3

    @staticmethod
    def ssd() -> "DiskSpec":
        """A SATA-SSD class device (the paper notes LaSAGNA benefits from SSDs)."""
        return DiskSpec(name="ssd", read_bandwidth=500e6, write_bandwidth=450e6,
                        seek_seconds=1e-4)


#: Payload of one heartbeat probe (a liveness ping carries no data).
HEARTBEAT_BYTES = 64


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point network characteristics.

    Defaults model the paper's SuperMIC interconnect: 56 Gb/s FDR
    InfiniBand (≈ 7 GB/s payload bandwidth) with microsecond-scale latency.
    """

    name: str = "infiniband-fdr"
    bandwidth: float = 7e9  #: bytes/second point-to-point
    latency_seconds: float = 2e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency_seconds < 0:
            raise ConfigError("invalid network parameters")

    def transfer_seconds(self, nbytes: int) -> float:
        """Modeled time to move ``nbytes`` between two nodes."""
        return self.latency_seconds + max(0, nbytes) / self.bandwidth

    def heartbeat_seconds(self) -> float:
        """Modeled cost of one supervisor heartbeat probe (tiny payload)."""
        return self.transfer_seconds(HEARTBEAT_BYTES)

    @staticmethod
    def ethernet_10g() -> "NetworkSpec":
        """A slower 10 GbE alternative for sensitivity studies."""
        return NetworkSpec(name="10gbe", bandwidth=1.1e9, latency_seconds=3e-5)


def _catalog() -> dict[str, DeviceSpec]:
    gb = parse_size
    return {
        spec.name: spec
        for spec in (
            # Kepler. PCIe gen2-era deployments in the paper's clusters.
            DeviceSpec("K20X", gb("6 GB"), 250e9, 2688, 732e6, 6e9),
            DeviceSpec("K40", gb("12 GB"), 288e9, 2880, 745e6, 6e9),
            # Pascal. P40 has more cores but far less bandwidth than P100 —
            # the Fig. 9 inversion.
            DeviceSpec("P40", gb("24 GB"), 346e9, 3840, 1303e6, 12e9),
            DeviceSpec("P100", gb("16 GB"), 732e9, 3584, 1328e6, 12e9),
            # Volta.
            DeviceSpec("V100", gb("16 GB"), 900e9, 5120, 1530e6, 12e9),
        )
    }


_CATALOG = _catalog()


def device_catalog() -> dict[str, DeviceSpec]:
    """All known GPU specs keyed by model name."""
    return dict(_CATALOG)


def get_device_spec(name: str) -> DeviceSpec:
    """Look up a GPU model (case-insensitive)."""
    try:
        return _CATALOG[name.upper()]
    except KeyError:
        raise ConfigError(f"unknown device {name!r}; options: {sorted(_CATALOG)}") from None
