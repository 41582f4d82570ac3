"""Distributed sensitivity: interconnect speed and load balance."""

from dataclasses import replace

import pytest

from repro import AssemblyConfig
from repro.distributed import DistributedAssembler, NetworkSpec
from repro.model import Workload, model_distributed_seconds
from repro.config import MemoryConfig
from repro.seq.datasets import get_dataset


class TestNetworkSensitivity:
    def test_slower_network_inflates_shuffle_only(self, tmp_path):
        from repro.seq.datasets import tiny_dataset

        md, _ = tiny_dataset(tmp_path, genome_length=1500, read_length=50,
                             coverage=15.0, min_overlap=25, seed=91)
        config = AssemblyConfig(min_overlap=25)
        fast = DistributedAssembler(config, 4).assemble(md.store_path)
        slow = DistributedAssembler(
            replace(config, network=NetworkSpec.ethernet_10g()),
            4).assemble(md.store_path)
        assert slow.phase_seconds["shuffle"] > fast.phase_seconds["shuffle"]
        # compute-bound phases unchanged
        assert slow.phase_seconds["map"] == pytest.approx(
            fast.phase_seconds["map"], rel=0.02)
        assert slow.phase_seconds["sort"] == pytest.approx(
            fast.phase_seconds["sort"], rel=0.02)
        assert slow.edges == fast.edges

    def test_model_shuffle_grows_on_ethernet(self):
        workload = Workload.from_spec(get_dataset("hgenome_sim"))
        config = AssemblyConfig(memory=MemoryConfig.preset("supermic"),
                                device_name="K20X")
        infiniband = model_distributed_seconds(workload, config, 8)
        ethernet = model_distributed_seconds(
            workload, replace(config, network=NetworkSpec.ethernet_10g()), 8)
        assert ethernet["shuffle"] > infiniband["shuffle"]
        assert ethernet["total"] > infiniband["total"]
        # the paper's IB keeps shuffle subdominant to sort
        assert infiniband["shuffle"] < infiniband["sort"]
