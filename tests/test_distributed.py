"""Distributed runtime: messages, network, and the cluster assembler."""

import numpy as np
import pytest

from repro import AssemblyConfig
from repro.analysis import contig_accuracy
from repro.device import SimClock
from repro.distributed import (ActiveMessageLayer, DistributedAssembler,
                               NetworkSpec)
from repro.errors import ConfigError, DistributedProtocolError


class TestNetworkSpec:
    def test_transfer_model(self):
        network = NetworkSpec(bandwidth=1e9, latency_seconds=1e-6)
        assert network.transfer_seconds(10**9) == pytest.approx(1.0, rel=1e-3)
        assert network.transfer_seconds(0) == pytest.approx(1e-6)

    def test_defaults_are_infiniband_class(self):
        assert NetworkSpec().bandwidth > 5e9

    def test_ethernet_slower(self):
        assert NetworkSpec.ethernet_10g().bandwidth < NetworkSpec().bandwidth

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkSpec(bandwidth=0)


class TestActiveMessages:
    def _layer(self):
        layer = ActiveMessageLayer(NetworkSpec(bandwidth=1e6, latency_seconds=0.0))
        clocks = {0: SimClock(), 1: SimClock()}
        for node_id, clock in clocks.items():
            layer.register_node(node_id, clock)
        return layer, clocks

    def test_request_response(self):
        layer, clocks = self._layer()
        layer.register_handler(1, "echo", lambda x: (x * 2, 8))
        assert layer.request(0, 1, "echo", 21) == 42
        assert layer.messages_sent == 1
        assert clocks[0].seconds("network") > 0
        assert layer.bytes_by_pair[(0, 1)] == 64 + 8

    def test_local_request_free(self):
        layer, clocks = self._layer()
        layer.register_handler(0, "echo", lambda x: (x, 4))
        layer.request(0, 0, "echo", 1)
        assert clocks[0].seconds("network") == 0.0
        assert layer.total_bytes == 0

    def test_unknown_handler(self):
        layer, _ = self._layer()
        with pytest.raises(DistributedProtocolError, match="no handler"):
            layer.request(0, 1, "nope")

    def test_unregistered_source(self):
        layer, _ = self._layer()
        layer.register_handler(1, "echo", lambda: (None, 0))
        with pytest.raises(DistributedProtocolError, match="unregistered"):
            layer.request(9, 1, "echo")


@pytest.fixture(scope="module")
def dist_results(tmp_path_factory):
    from repro.seq.datasets import tiny_dataset

    root = tmp_path_factory.mktemp("dist")
    md, _ = tiny_dataset(root, genome_length=1800, read_length=50,
                         coverage=18.0, min_overlap=25, seed=31)
    config = AssemblyConfig(min_overlap=25)
    results = {n: DistributedAssembler(config, n).assemble(md.store_path)
               for n in (1, 2, 4)}
    return md, results


@pytest.fixture(scope="module")
def scaling_results(tmp_path_factory):
    """``dist_results``' runs on a 4,000 bp genome: 1,440 reads."""
    from repro.seq.datasets import tiny_dataset

    root = tmp_path_factory.mktemp("dist-scaling")
    md, _ = tiny_dataset(root, genome_length=4000, read_length=50,
                         coverage=18.0, min_overlap=25, seed=31)
    config = AssemblyConfig(min_overlap=25)
    return {n: DistributedAssembler(config, n).assemble(md.store_path)
            for n in (1, 2, 4)}


class TestCluster:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DistributedAssembler(AssemblyConfig(), 0)

    def test_edges_invariant_across_node_counts(self, dist_results):
        _, results = dist_results
        edge_counts = {n: r.edges for n, r in results.items()}
        assert len(set(edge_counts.values())) == 1

    def test_contigs_valid_everywhere(self, dist_results):
        md, results = dist_results
        for result in results.values():
            accuracy = contig_accuracy(result.contigs, md.genome())
            assert accuracy["incorrect"] == 0

    def test_shuffle_only_beyond_one_node(self, dist_results):
        _, results = dist_results
        assert results[1].phase_seconds["shuffle"] == 0.0
        assert results[1].shuffle_bytes == 0
        assert results[2].phase_seconds["shuffle"] > 0.0
        assert results[2].shuffle_bytes > 0

    def test_map_and_sort_scale(self, dist_results):
        _, results = dist_results
        for phase in ("map", "sort"):
            assert results[4].phase_seconds[phase] \
                < results[2].phase_seconds[phase] \
                < results[1].phase_seconds[phase]

    def test_reduce_scales_sublinearly(self, scaling_results):
        """Overlap finding parallelizes; the token serializes the rest.

        On reads enough that a partition's overlap finding outweighs one
        hop of the token (``scaling_results``): with the duplicates closed
        first, the 648 reads of ``dist_results`` leave each length a few
        microseconds of finding, less than the bit-vector's network
        latency, and there the token's hops decide."""
        results = scaling_results
        assert results[4].phase_seconds["reduce"] \
            <= results[2].phase_seconds["reduce"] \
            <= results[1].phase_seconds["reduce"]

    def test_shuffle_bytes_grow_with_nodes(self, dist_results):
        _, results = dist_results
        assert results[4].shuffle_bytes > results[2].shuffle_bytes

    def test_rounds_are_one_length_per_node(self, dist_results):
        """25 overlap lengths: the whole-read length's round, then
        ceil(25 / n) rounds, and wider rounds pull under an older
        bit-vector, so they let more records through."""
        _, results = dist_results
        assert {n: r.notes["rounds"] for n, r in results.items()} \
            == {1: 26, 2: 14, 4: 8}
        kept = [results[n].notes["records_shuffled"] for n in (1, 2, 4)]
        assert kept == sorted(kept) and kept[0] < kept[-1]
        # A round maps only what its snapshot leaves open, and with no
        # candidates dropped its partitions hold all of it: less than the
        # eager map's records.
        assert results[4].degraded is None
        eager = 2 * results[4].n_reads * (2 * 25 + 1)
        assert kept[-1] < results[4].notes["records_eager"] == eager
        candidates = [results[n].reduce_report.candidates for n in (1, 2, 4)]
        assert candidates == sorted(candidates)

    def test_per_node_balance(self, dist_results):
        """Master load-balancing: no node does more than ~2x the mean map work."""
        _, results = dist_results
        per_node = results[4].per_node_seconds["map"]
        assert max(per_node) <= 2.5 * (sum(per_node) / len(per_node))

    def test_stats_and_total(self, dist_results):
        _, results = dist_results
        result = results[2]
        assert result.total_seconds == pytest.approx(
            sum(result.phase_seconds.values()))
        assert result.stats()["n_contigs"] == result.contigs.n_contigs
        assert result.notes["am_messages"] > 0
