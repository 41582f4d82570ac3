"""WorkerNode internals: map accumulation, partition serving, shuffle."""

import numpy as np
import pytest

from repro import AssemblyConfig
from repro.distributed import ActiveMessageLayer, NetworkSpec, WorkerNode
from repro.distributed.node import FETCH_PARTITION
from repro.graph.bitvector import PackedBitVector
from repro.seq.packing import PackedReadStore


@pytest.fixture()
def cluster_pair(tmp_path, tiny_md):
    config = AssemblyConfig(min_overlap=25)
    messages = ActiveMessageLayer(NetworkSpec())
    nodes = [WorkerNode(i, config, tmp_path, messages) for i in range(2)]
    store = PackedReadStore.open(tiny_md.store_path)
    yield nodes, store, messages
    store.close()


class TestMapBlocks:
    def test_blocks_accumulate(self, cluster_pair):
        nodes, store, _ = cluster_pair
        node = nodes[0]
        half = store.n_reads // 2
        node.map_block(store, 0, half)
        node.map_block(store, half, store.n_reads)
        node.finish_map()
        assert node.mapped_reads == store.n_reads
        length = 25
        assert node.map_partitions.records_in("S", length) == 2 * store.n_reads

    def test_private_workdirs(self, cluster_pair):
        nodes, _, _ = cluster_pair
        assert nodes[0].ctx.workdir != nodes[1].ctx.workdir


class TestServing:
    def test_fetch_partition_roundtrip(self, cluster_pair):
        nodes, store, messages = cluster_pair
        nodes[0].map_block(store, 0, 20)
        nodes[0].finish_map()
        records = messages.request(1, 0, FETCH_PARTITION, 0, "S", 25)
        assert records.shape[0] == 2 * 20
        assert nodes[1].ctx.clock.seconds("network") > 0

    def test_fetch_missing_partition_is_empty(self, cluster_pair):
        nodes, _, messages = cluster_pair
        nodes[0].finish_map()
        records = messages.request(1, 0, FETCH_PARTITION, 0, "S", 30)
        assert records.shape[0] == 0


def _map_halves(nodes, store) -> int:
    """Node 0 maps the first half of the reads, node 1 the rest."""
    half = store.n_reads // 2
    nodes[0].map_block(store, 0, half)
    nodes[1].map_block(store, half, store.n_reads)
    for node in nodes:
        node.finish_map()
    return half


class TestShuffle:
    def test_pull_aggregates_all_peers(self, cluster_pair):
        nodes, store, _ = cluster_pair
        _map_halves(nodes, store)
        pulled = nodes[0].pull_partitions([0, 1], [25, 27])
        assert pulled > 0
        assert nodes[0].shuffled.records_in("S", 25) == 2 * store.n_reads
        assert nodes[0].shuffled.records_in("P", 27) == 2 * store.n_reads

    def test_vertex_ids_globally_consistent(self, cluster_pair):
        """Blocks mapped on different nodes carry their global read-ids."""
        nodes, store, _ = cluster_pair
        _map_halves(nodes, store)
        nodes[0].pull_partitions([0, 1], [25])
        with nodes[0].shuffled.open_run("S", 25) as reader:
            vertices = reader.read_all()["val"]
        read_ids = np.unique(vertices >> 1)
        assert read_ids.min() == 0
        assert read_ids.max() == store.n_reads - 1
        assert read_ids.shape[0] == store.n_reads

    def test_drop_map_partitions(self, cluster_pair):
        nodes, store, _ = cluster_pair
        nodes[0].map_block(store, 0, 10)
        nodes[0].finish_map()
        nodes[0].drop_map_partitions()
        assert list(nodes[0].map_partitions.root.glob("*.run")) == []


class TestAdoption:
    def test_an_adopted_piece_is_the_piece_its_producer_served(self,
                                                                 cluster_pair):
        """Node 1 maps node 0's block again and serves node 0's pieces: the
        same records, through the same snapshot filter, as node 0 would
        have sent, and a pull from the adopter is the pull from both."""
        nodes, store, messages = cluster_pair
        half = _map_halves(nodes, store)
        closed = PackedBitVector(2 * store.n_reads)
        closed.set(np.arange(0, 2 * store.n_reads, 3, dtype=np.int64))
        for node in nodes:
            node.closed = closed
        live = {side: messages.request(1, 0, FETCH_PARTITION, 0, side, 25)
                for side in ("S", "P")}
        nodes[0].pull_partitions([0, 1], [25])
        pulled = {side: nodes[0].shuffled.path(side, 25).read_bytes()
                  for side in ("S", "P")}

        nodes[1].adopt(store, {0: [(0, half)]}, frozenset({25, 26}))
        assert sorted(nodes[1].adopted) == [0]
        for side in ("S", "P"):
            adopted = messages.request(0, 1, FETCH_PARTITION, 0, side, 25)
            assert 0 < adopted.shape[0] < 2 * half
            assert adopted.tobytes() == live[side].tobytes()
        nodes[1].pull_partitions([1, 1], [25])
        for side in ("S", "P"):
            assert nodes[1].shuffled.path(side, 25).read_bytes() == pulled[side]
        # Only the lengths still to be reduced were derived.
        assert not nodes[1].adopted[0].path("S", 27).exists()

        nodes[1].drop_map_partitions()
        assert nodes[1].adopted == {}
        assert not (nodes[1].ctx.workdir / "adopted").exists()
