"""Model extensions: component decomposition and multi-GPU saturation."""

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.model import (Workload, model_distributed_seconds,
                         model_multi_gpu_seconds, model_phase_components,
                         model_phase_seconds)
from repro.seq.datasets import get_dataset

SUPERMIC = MemoryConfig.preset("supermic")
SUPERMIC_K20X = AssemblyConfig(memory=SUPERMIC, device_name="K20X")


@pytest.fixture(scope="module")
def hgenome() -> Workload:
    return Workload.from_spec(get_dataset("hgenome_sim"))


class TestComponents:
    def test_components_sum_to_phases(self, hgenome):
        components = model_phase_components(hgenome, SUPERMIC, "K20X")
        phases = model_phase_seconds(hgenome, SUPERMIC, "K20X")
        for phase, parts in components.items():
            assert sum(parts.values()) == pytest.approx(phases[phase])

    def test_disk_dominates(self, hgenome):
        """The paper's central claim: the pipeline is I/O-bound."""
        components = model_phase_components(hgenome, SUPERMIC, "K20X")
        disk = sum(parts["disk"] for parts in components.values())
        device = sum(parts["device"] for parts in components.values())
        assert disk > 3 * device

    def test_load_compress_have_no_device_work(self, hgenome):
        components = model_phase_components(hgenome, SUPERMIC, "K20X")
        assert components["load"]["device"] == 0.0
        assert components["compress"]["device"] == 0.0


class TestMultiGPU:
    def test_monotone_but_saturating(self, hgenome):
        totals = [model_multi_gpu_seconds(hgenome, SUPERMIC, "K20X", n)["total"]
                  for n in (1, 2, 4, 8, 64)]
        assert totals == sorted(totals, reverse=True)
        # saturation: 64 GPUs gain little beyond 8
        assert totals[4] > 0.95 * totals[3]

    def test_one_gpu_matches_single_node_model(self, hgenome):
        single = model_phase_seconds(hgenome, SUPERMIC, "K20X")["total"]
        multi = model_multi_gpu_seconds(hgenome, SUPERMIC, "K20X", 1)["total"]
        assert multi == pytest.approx(single)

    def test_floor_is_disk_time(self, hgenome):
        components = model_phase_components(hgenome, SUPERMIC, "K20X")
        disk = sum(parts["disk"] for parts in components.values())
        many = model_multi_gpu_seconds(hgenome, SUPERMIC, "K20X", 10_000)["total"]
        assert many == pytest.approx(disk, rel=0.02)

    def test_nodes_beat_gpus(self, hgenome):
        """Scale-out divides the disk stream; scale-up does not (§III.E)."""
        gpus8 = model_multi_gpu_seconds(hgenome, SUPERMIC, "K20X", 8)["total"]
        nodes8 = model_distributed_seconds(hgenome, SUPERMIC_K20X, 8)["total"]
        assert nodes8 < 0.5 * gpus8

    def test_validation(self, hgenome):
        with pytest.raises(ValueError):
            model_multi_gpu_seconds(hgenome, SUPERMIC, "K20X", 0)
