"""Analytic paper-scale model: shape assertions against the published data.

These tests pin the *qualitative* claims of the evaluation (who dominates,
what scales, where the crossovers are); absolute agreement is recorded in
EXPERIMENTS.md instead.
"""

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.device.specs import device_catalog
from repro.extmem.sort import DEVICE_SORT_FOOTPRINT, HOST_SORT_FOOTPRINT
from repro.model import (Workload, model_distributed_seconds, model_memory_peaks,
                         model_partition_sort_seconds, model_phase_components,
                         model_phase_seconds, model_sga_seconds)
from repro.model.comparison import model_lasagna_comparable_seconds
from repro.model.paper_values import (DATASET_ORDER, FIG9_GPU_ORDER_FAST_TO_SLOW,
                                      FIG10_TOTAL_HOURS, TABLE1, TABLE2_K40,
                                      TABLE3_K20, TABLE6_SGA)
from repro.seq.datasets import dataset_registry

NAME_BY_PAPER = {"H.Chr 14": "hchr14_sim", "Bumblebee": "bumblebee_sim",
                 "Parakeet": "parakeet_sim", "H.Genome": "hgenome_sim"}
QB2 = MemoryConfig.preset("qb2")
SUPERMIC = MemoryConfig.preset("supermic")
SUPERMIC_K20X = AssemblyConfig(memory=SUPERMIC, device_name="K20X")


def workload(paper_name: str) -> Workload:
    return Workload.from_spec(dataset_registry()[NAME_BY_PAPER[paper_name]])


class TestWorkload:
    def test_partition_sizes(self):
        w = workload("H.Genome")
        assert w.records_per_partition == 2 * TABLE1["H.Genome"]["reads"]
        assert w.n_partition_lengths == 100 - 63
        assert w.partition_nbytes == w.records_per_partition * 20

    def test_total_tuple_volume_is_terabytes(self):
        w = workload("H.Genome")
        assert 3e12 < w.total_tuple_nbytes < 4.5e12  # ~3.7 TB

    def test_packed_store_much_smaller_than_fastq(self):
        w = workload("H.Genome")
        assert w.packed_store_nbytes < w.fastq_bytes / 10


class TestTable2Shapes:
    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    def test_sort_dominates(self, dataset):
        phases = model_phase_seconds(workload(dataset), QB2, "K40")
        assert phases["sort"] > 0.4 * phases["total"]
        assert phases["sort"] > phases["map"] > phases["reduce"] * 0.3
        assert phases["compress"] < 0.01 * phases["total"]

    def test_totals_ordered_by_dataset_size(self):
        totals = [model_phase_seconds(workload(d), QB2, "K40")["total"]
                  for d in DATASET_ORDER]
        assert totals == sorted(totals)

    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    def test_within_3x_of_paper(self, dataset):
        phases = model_phase_seconds(workload(dataset), QB2, "K40")
        for phase in ("map", "sort", "reduce", "total"):
            ratio = phases[phase] / TABLE2_K40[dataset][phase]
            assert 1 / 3 < ratio < 3, (phase, ratio)


class TestTable3Shapes:
    def test_extra_pass_only_for_hgenome(self):
        """64 GB slows sort only where the partition stops fitting (Table II
        vs III): H.Genome gains a merge pass, the rest do not."""
        for dataset in DATASET_ORDER:
            w = workload(dataset)
            big = model_phase_seconds(w, QB2, "K20X")["sort"]
            small = model_phase_seconds(w, SUPERMIC, "K20X")["sort"]
            ratio = small / big
            if dataset == "H.Genome":
                assert ratio > 1.3
            else:
                assert ratio < 1.1

    def test_non_sort_phases_insensitive_to_host_memory(self):
        w = workload("H.Genome")
        big = model_phase_seconds(w, QB2, "K20X")
        small = model_phase_seconds(w, SUPERMIC, "K20X")
        for phase in ("map", "reduce", "compress", "load"):
            assert small[phase] == pytest.approx(big[phase], rel=0.05)

    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    def test_within_3x_of_paper(self, dataset):
        phases = model_phase_seconds(workload(dataset), SUPERMIC, "K20X")
        for phase in ("map", "sort", "reduce", "total"):
            ratio = phases[phase] / TABLE3_K20[dataset][phase]
            assert 1 / 3 < ratio < 3, (phase, ratio)


class TestMemoryPeaks:
    def test_device_constant_across_datasets(self):
        """Tables IV/V: device peaks are data-size independent."""
        peaks = [model_memory_peaks(workload(d), QB2, "K40")["device"]
                 for d in DATASET_ORDER]
        assert all(p == peaks[0] for p in peaks)

    def test_host_sort_grows_and_saturates(self):
        sort_peaks = [model_memory_peaks(workload(d), QB2, "K40")["host"]["sort"]
                      for d in DATASET_ORDER]
        assert sort_peaks == sorted(sort_peaks)
        assert sort_peaks[-1] <= QB2.host_bytes

    def test_device_fractions_match_table4(self):
        peaks = model_memory_peaks(workload("H.Genome"), QB2, "K40")["device"]
        assert peaks["map"] / 12e9 == pytest.approx(10.73e9 / 12e9, rel=0.1)
        assert peaks["sort"] / 12e9 == pytest.approx(9.02e9 / 12e9, rel=0.1)
        assert peaks["reduce"] / 12e9 == pytest.approx(4.92e9 / 12e9, rel=0.15)


class TestFig8:
    def test_host_block_dominates(self):
        """Bigger host blocks help a lot; device blocks much less (Fig. 8)."""
        host_effect = model_partition_sort_seconds(160_000_000, 20_000_000) \
            / model_partition_sort_seconds(2_560_000_000, 20_000_000)
        device_effect = model_partition_sort_seconds(640_000_000, 5_000_000) \
            / model_partition_sort_seconds(640_000_000, 40_000_000)
        assert host_effect > 2.0
        assert device_effect < 1.5
        assert host_effect > 1.5 * device_effect

    def test_flat_beyond_single_pass(self):
        """No gain past the host block that holds a whole partition (a hair
        slower, if anything: one extra in-host device merge round)."""
        single = model_partition_sort_seconds(2_560_000_000, 20_000_000)
        beyond = model_partition_sort_seconds(5_120_000_000, 20_000_000)
        assert beyond >= single
        assert beyond == pytest.approx(single, rel=0.05)

    def test_monotone_in_host_block(self):
        times = [model_partition_sort_seconds(m_h, 20_000_000)
                 for m_h in (40e6, 160e6, 640e6, 2560e6)]
        assert times == sorted(times, reverse=True)

    def test_fanout_cuts_modeled_time_when_merge_bound(self):
        """k-way merging removes disk passes, the dominant cost: the model
        must get faster with fanout whenever R > 2, and agree with the
        1 + ceil(log_k R) pass structure."""
        from repro.model.sorting import predicted_sort_passes

        pairwise = model_partition_sort_seconds(40_000_000, 20_000_000)
        kway = model_partition_sort_seconds(40_000_000, 20_000_000,
                                            merge_fanout=8)
        assert kway < pairwise
        assert predicted_sort_passes(1_000, 256) \
            > predicted_sort_passes(1_000, 256, merge_fanout=4)
        # pairwise default reproduces the paper's formula
        assert predicted_sort_passes(1_000, 2_000) == 1
        assert predicted_sort_passes(0, 2_000) == 0


class TestFig9:
    def test_gpu_ordering(self):
        times = {gpu: model_partition_sort_seconds(2_560_000_000, 20_000_000, gpu)
                 for gpu in FIG9_GPU_ORDER_FAST_TO_SLOW}
        ordered = sorted(times, key=times.get)
        assert tuple(ordered) == FIG9_GPU_ORDER_FAST_TO_SLOW

    def test_convergence_when_io_bound(self):
        """Relative GPU spread shrinks as host blocks shrink (disk dominates)."""
        def spread(m_h):
            times = [model_partition_sort_seconds(m_h, 20_000_000, gpu)
                     for gpu in FIG9_GPU_ORDER_FAST_TO_SLOW]
            return (max(times) - min(times)) / min(times)

        assert spread(40_000_000) < spread(2_560_000_000) / 2


class TestOneSortFormula:
    @pytest.mark.parametrize("memory", [QB2, SUPERMIC], ids=["qb2", "supermic"])
    @pytest.mark.parametrize("dataset", sorted(dataset_registry()))
    def test_table_sort_is_the_figure_partition_sort_per_partition(
            self, dataset, memory):
        """Tables II–V charge every partition what Figs. 8–9 model for one."""
        w = Workload.from_spec(dataset_registry()[dataset])
        rec = w.record_nbytes
        host_block = max(2, memory.host_pairs(rec) // HOST_SORT_FOOTPRINT)
        device_chunk = max(2, memory.device_pairs(rec) // DEVICE_SORT_FOOTPRINT)
        for gpu in device_catalog():
            sort = model_phase_components(w, memory, gpu)["sort"]
            one = model_partition_sort_seconds(
                host_block, device_chunk, gpu,
                partition_records=w.records_per_partition, record_nbytes=rec)
            assert sort["disk"] + sort["device"] == pytest.approx(
                2 * w.n_partition_lengths * one, rel=1e-12)


class TestTable6:
    def test_lasagna_wins_everywhere(self):
        for dataset in DATASET_ORDER:
            w = workload(dataset)
            for memory, device in ((QB2, "K40"), (SUPERMIC, "K20X")):
                sga = model_sga_seconds(w, memory.host_bytes)
                ours = model_lasagna_comparable_seconds(w, memory, device)
                if sga is not None:
                    assert sga / ours > 1.2, dataset

    def test_oom_pattern(self):
        for dataset in DATASET_ORDER:
            sga64 = model_sga_seconds(workload(dataset), SUPERMIC.host_bytes)
            expected_oom = TABLE6_SGA[dataset]["sga_64"] is None
            assert (sga64 is None) is expected_oom

    def test_sga_model_tracks_published_times(self):
        for dataset in DATASET_ORDER:
            published = TABLE6_SGA[dataset]["sga_128"]
            modeled = model_sga_seconds(workload(dataset), QB2.host_bytes)
            assert 1 / 2 < modeled / published < 2, dataset


class TestFig10:
    def test_monotone_scaling_and_headline(self):
        w = workload("H.Genome")
        totals = {n: model_distributed_seconds(w, SUPERMIC_K20X, n)["total"]
                  for n in (1, 2, 4, 8)}
        assert totals[8] < totals[4] < totals[2]
        # the paper's headline: "a little over 5 hours" at 8 nodes
        assert totals[8] / 3600 == pytest.approx(FIG10_TOTAL_HOURS[8], rel=0.35)

    def test_shuffle_overhead_structure(self):
        w = workload("H.Genome")
        one = model_distributed_seconds(w, SUPERMIC_K20X, 1)
        two = model_distributed_seconds(w, SUPERMIC_K20X, 2)
        assert one["shuffle"] == 0.0
        assert two["shuffle"] > 0.0

    def test_reduce_saturates(self):
        """The t_o·p/n + t_g·p law: gains flatten at high node counts."""
        w = workload("H.Genome")
        reduce_times = [model_distributed_seconds(w, SUPERMIC_K20X, n)["reduce"]
                        for n in (1, 2, 4, 8, 16, 64)]
        assert reduce_times == sorted(reduce_times, reverse=True)
        floor = model_distributed_seconds(w, SUPERMIC_K20X, 4096)["reduce"]
        assert reduce_times[-1] < 2.5 * floor

    def test_kept_fraction_scales_what_the_filter_touches(self):
        """Rounds drop closed records before the wire: written, sent,
        sorted and matched bytes shrink; the read of the map pieces, the
        map itself and the token's edge insertions do not."""
        w = workload("H.Genome")
        eager = model_distributed_seconds(w, SUPERMIC_K20X, 4)
        assert eager == model_distributed_seconds(w, SUPERMIC_K20X, 4,
                                                  kept_fraction=1.0)
        kept = model_distributed_seconds(w, SUPERMIC_K20X, 4,
                                         kept_fraction=0.2)
        for phase in ("load", "map", "compress"):
            assert kept[phase] == eager[phase]
        assert kept["sort"] == pytest.approx(0.2 * eager["sort"])
        assert 0.2 * eager["shuffle"] < kept["shuffle"] < eager["shuffle"]
        floor = model_distributed_seconds(w, SUPERMIC_K20X, 4096)["reduce"]
        assert floor < kept["reduce"] < eager["reduce"]
        none = model_distributed_seconds(w, SUPERMIC_K20X, 4,
                                         kept_fraction=0.0)
        assert none["reduce"] == pytest.approx(floor, rel=1e-2)


class TestPaperValuesConsistency:
    @pytest.mark.parametrize("table", [TABLE2_K40, TABLE3_K20])
    def test_totals_equal_phase_sums(self, table):
        for dataset, phases in table.items():
            total = sum(v for k, v in phases.items() if k != "total")
            assert total == pytest.approx(phases["total"], abs=2), dataset

    def test_speedup_range_matches_cells(self):
        ratios = []
        for dataset, row in TABLE6_SGA.items():
            for memory in ("64", "128"):
                sga, ours = row[f"sga_{memory}"], row[f"lasagna_{memory}"]
                if sga is not None:
                    ratios.append(sga / ours)
        assert min(ratios) == pytest.approx(1.89, abs=0.01)
        assert max(ratios) == pytest.approx(3.05, abs=0.01)
