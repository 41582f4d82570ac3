"""The machine a run models is named once, in its config.

``AssemblyConfig.disk`` is the disk every :class:`RunContext` charges (a
single node's, every cluster node's, a restarted node's, the eager
composition's) and ``AssemblyConfig.network`` the interconnect every
cluster charge crosses. Neither moves a byte of the assembly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core.context import RunContext
from repro.core.pipeline import eager_composition
from repro.device.specs import DiskSpec, NetworkSpec
from repro.distributed import ActiveMessageLayer, DistributedAssembler
from repro.faults import NODE, NODE_CRASH, Fault, FaultPlan, inject
from repro.seq.datasets import tiny_dataset


MIN_OVERLAP = 24
#: 40 kB of host: partitions, pieces and sorted runs are files, so every
#: context has disk traffic to charge.
CRAMPED = MemoryConfig(40_000, 16_000, name="cramped")
SSD = DiskSpec.ssd()
TEN_GBE = NetworkSpec.ethernet_10g()


@pytest.fixture(scope="module")
def machine_data(tmp_path_factory):
    md, _ = tiny_dataset(tmp_path_factory.mktemp("machine-data"),
                         genome_length=600, read_length=36, coverage=8.0,
                         min_overlap=MIN_OVERLAP, seed=7)
    return md


@pytest.fixture()
def base() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, memory=CRAMPED)


@pytest.fixture()
def machine(base) -> AssemblyConfig:
    return replace(base, disk=SSD, network=TEN_GBE)


@pytest.fixture()
def built(monkeypatch):
    """Every context and message layer built, and every network a transfer
    was charged on, while the test runs."""
    built = {"contexts": [], "layers": [], "charged": []}
    for cls, key in ((RunContext, "contexts"), (ActiveMessageLayer, "layers")):
        def spy(self, *args, _init=cls.__init__, _key=key, **kwargs):
            _init(self, *args, **kwargs)
            built[_key].append(self)

        monkeypatch.setattr(cls, "__init__", spy)

    def transfer(self, nbytes, _transfer=NetworkSpec.transfer_seconds):
        built["charged"].append(self)
        return _transfer(self, nbytes)

    monkeypatch.setattr(NetworkSpec, "transfer_seconds", transfer)
    return built


def _contigs(result) -> tuple[bytes, bytes]:
    return (result.contigs.flat_codes.tobytes(),
            result.contigs.offsets.tobytes())


def _charges_the_ssd(ctx: RunContext) -> None:
    """``ctx`` meters, and its clock is charged, the SSD's bandwidths."""
    assert ctx.accountant.disk == SSD
    io, sim = ctx.accountant.counters(), ctx.clock.counters()
    assert io["disk_write_bytes"] > 0
    assert sim["sim_disk_write_seconds"] == pytest.approx(
        io["disk_write_bytes"] / SSD.write_bandwidth)
    assert sim.get("sim_disk_read_seconds", 0.0) == pytest.approx(
        io["disk_read_bytes"] / SSD.read_bandwidth
        + io["disk_seeks"] * SSD.seek_seconds)


def test_the_single_node_context_models_the_configs_disk(
        machine_data, base, machine, built):
    default = Assembler(base).assemble(machine_data.store_path)
    built["contexts"].clear()
    result = Assembler(machine).assemble(machine_data.store_path)
    [ctx] = built["contexts"]
    _charges_the_ssd(ctx)
    assert result.telemetry.total_sim_seconds() \
        < default.telemetry.total_sim_seconds()
    assert _contigs(result) == _contigs(default)


def test_every_cluster_node_and_a_restarted_one_model_the_configs_machine(
        machine_data, base, machine, built):
    """Two nodes, node01 restarted by a crash in its sort: all three
    contexts charge the SSD, every network charge is 10 GbE's, and the
    shuffle is slower than on InfiniBand with the same disk and crash."""

    def crashed(config):
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="node01:sort")])
        with inject(plan):
            result = DistributedAssembler(config, 2).assemble(
                machine_data.store_path)
        assert [event.kind for event in plan.events] == [NODE_CRASH]
        assert result.notes["node_restarts"] == 1
        return result

    clean = DistributedAssembler(base, 2).assemble(machine_data.store_path)
    infiniband = crashed(replace(machine, network=NetworkSpec()))
    built["contexts"].clear()
    built["charged"].clear()
    result = crashed(machine)
    assert len(built["contexts"]) == 3
    # A node's clock also rises to the slowest one's at every barrier, so
    # its disk seconds are not its own bytes': the accountant is checked.
    for ctx in built["contexts"]:
        assert ctx.accountant.disk == SSD
        assert ctx.accountant.counters()["disk_write_bytes"] > 0
    assert built["layers"][-1].network == TEN_GBE
    assert built["charged"] and all(network == TEN_GBE
                                    for network in built["charged"])
    assert result.phase_seconds["shuffle"] \
        > infiniband.phase_seconds["shuffle"]
    assert _contigs(result) == _contigs(infiniband) == _contigs(clean)


def test_the_eager_composition_models_the_configs_disk(
        machine_data, machine, built, tmp_path):
    eager_composition(machine, machine_data.store_path, tmp_path)
    [ctx] = built["contexts"]
    _charges_the_ssd(ctx)
