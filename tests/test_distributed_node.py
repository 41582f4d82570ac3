"""WorkerNode internals: round maps, piece serving, shuffle."""

import numpy as np
import pytest

from repro import AssemblyConfig
from repro.config import MemoryConfig
from repro.core.map_phase import run_map
from repro.core.sort_phase import _open_claims
from repro.distributed import ActiveMessageLayer, NetworkSpec, WorkerNode
from repro.distributed.node import FETCH_PARTITION
from repro.errors import StreamProtocolError
from repro.extmem import PartitionStore
from repro.graph.bitvector import PackedBitVector
from repro.seq.packing import PackedReadStore

#: The lengths the tests map: two overlap lengths of ``tiny_md``.
LENGTHS = (25, 27)


@pytest.fixture()
def cluster_pair(tmp_path, tiny_md):
    config = AssemblyConfig(min_overlap=25)
    messages = ActiveMessageLayer(NetworkSpec())
    store = PackedReadStore.open(tiny_md.store_path)
    nodes = [WorkerNode(i, config, tmp_path, messages, store) for i in range(2)]
    yield nodes, store, messages
    for node in nodes:
        node.abandon()
    store.close()


def _every_third(store) -> PackedBitVector:
    """A snapshot that has closed every third vertex."""
    closed = PackedBitVector(2 * store.n_reads)
    closed.set(np.arange(0, 2 * store.n_reads, 3, dtype=np.int64))
    return closed


class TestMapBlocks:
    def test_blocks_accumulate(self, cluster_pair):
        """A producer's blocks land in one piece, in order."""
        nodes, store, _ = cluster_pair
        node = nodes[0]
        half = store.n_reads // 2
        node.map_pieces({0: [(0, half), (half, store.n_reads)]}, LENGTHS)
        for length in LENGTHS:
            for side in ("S", "P"):
                assert node.pieces[0].records_in(side, length) \
                    == 2 * store.n_reads
        assert node.pieces[0].records_in("S", 26) == 0

    def test_private_workdirs(self, cluster_pair):
        nodes, _, _ = cluster_pair
        assert nodes[0].ctx.workdir != nodes[1].ctx.workdir


class TestServing:
    def test_fetch_partition_roundtrip(self, cluster_pair):
        nodes, store, messages = cluster_pair
        nodes[0].map_pieces({0: [(0, 20)]}, LENGTHS)
        records = messages.request(1, 0, FETCH_PARTITION, 0, "S", 25)
        assert records.shape[0] == 2 * 20
        assert nodes[1].ctx.clock.seconds("network") > 0

    def test_fetch_missing_partition_is_empty(self, cluster_pair):
        nodes, store, messages = cluster_pair
        nodes[0].map_pieces({0: []}, LENGTHS)
        records = messages.request(1, 0, FETCH_PARTITION, 0, "S", 30)
        assert records.shape[0] == 0

    def test_a_length_no_block_wrote_reads_empty(self, cluster_pair):
        """A piece with no records is empty, not missing: read as often as
        asked, and served once, empty."""
        nodes, store, messages = cluster_pair
        nodes[0].map_pieces({0: []}, LENGTHS)
        for _ in range(2):
            assert nodes[0].read_piece(0, "S", 25).shape[0] == 0
        assert messages.request(1, 0, FETCH_PARTITION, 0, "S", 25).shape[0] \
            == 0

    @pytest.mark.parametrize("memory", [None, MemoryConfig(40_000, 16_000,
                                                           name="cramped")],
                             ids=["in-core", "cramped"])
    def test_a_served_piece_is_let_go_and_never_served_again(
            self, tmp_path, tiny_md, memory):
        """Serving hands a piece over: its room and host reservation go
        (in-core), or its file (cramped), and the node records it. Asked
        again, it is not answered as empty: the error names the producer,
        the side and the length. The other side stays until it is
        served."""
        config = AssemblyConfig(min_overlap=25, **({} if memory is None
                                                   else {"memory": memory}))
        messages = ActiveMessageLayer(NetworkSpec())
        with PackedReadStore.open(tiny_md.store_path) as store:
            nodes = [WorkerNode(i, config, tmp_path, messages, store)
                     for i in range(2)]
            nodes[0].map_pieces({0: [(0, 20)]}, LENGTHS)
            pieces = nodes[0].pieces[0]
            path = pieces.path("S", 25)
            assert pieces.kept("S", 25) == (memory is None)
            assert path.exists() == (memory is not None)
            used = nodes[0].ctx.host_pool.used_bytes
            served = messages.request(1, 0, FETCH_PARTITION, 0, "S", 25)
            assert served.shape[0] == 2 * 20
            assert not pieces.kept("S", 25) and not path.exists()
            assert nodes[0].ctx.host_pool.used_bytes \
                == used - (served.nbytes if memory is None else 0)
            assert nodes[0].served == {(0, "S", 25)}
            assert not nodes[0].holds(0, 25) and nodes[0].holds(0, 27)
            with pytest.raises(StreamProtocolError,
                               match=r"producer 0's piece \(S, 25\)"):
                messages.request(1, 0, FETCH_PARTITION, 0, "S", 25)
            with pytest.raises(StreamProtocolError, match="was served"):
                nodes[0].read_piece(0, "S", 25)
            assert nodes[0].read_piece(0, "P", 25).shape[0] == 2 * 20
            for node in nodes:
                node.abandon()


def _map_halves(nodes, store) -> int:
    """Node 0 maps the first half of the reads, node 1 the rest."""
    half = store.n_reads // 2
    nodes[0].map_pieces({0: [(0, half)]}, LENGTHS)
    nodes[1].map_pieces({1: [(half, store.n_reads)]}, LENGTHS)
    return half


class TestShuffle:
    def test_pull_aggregates_all_peers(self, cluster_pair):
        nodes, store, _ = cluster_pair
        _map_halves(nodes, store)
        pulled = nodes[0].pull_partitions(store, [0, 1], [25, 27])
        assert pulled > 0
        assert nodes[0].shuffled.records_in("S", 25) == 2 * store.n_reads
        assert nodes[0].shuffled.records_in("P", 27) == 2 * store.n_reads

    def test_vertex_ids_globally_consistent(self, cluster_pair):
        """Blocks mapped on different nodes carry their global read-ids."""
        nodes, store, _ = cluster_pair
        _map_halves(nodes, store)
        nodes[0].pull_partitions(store, [0, 1], [25])
        with nodes[0].shuffled.open_run("S", 25) as reader:
            vertices = reader.read_all()["val"]
        read_ids = np.unique(vertices >> 1)
        assert read_ids.min() == 0
        assert read_ids.max() == store.n_reads - 1
        assert read_ids.shape[0] == store.n_reads

    def test_drop_pieces(self, cluster_pair):
        nodes, store, _ = cluster_pair
        nodes[0].map_pieces({0: [(0, 10)]}, LENGTHS)
        nodes[0].drop_pieces()
        assert nodes[0].pieces == {}
        assert not (nodes[0].ctx.workdir / "map_parts").exists()


class TestAdoption:
    def test_an_adopted_piece_is_the_piece_its_producer_served(self,
                                                                 cluster_pair):
        """Node 1 maps node 0's block under the same snapshot and serves it
        as producer 0's piece: the records node 0 serves from a separate
        map of the same block, and a pull from node 1 alone is the pull
        from both."""
        nodes, store, messages = cluster_pair
        half = store.n_reads // 2
        closed = _every_third(store)
        for node in nodes:
            node.closed = closed
        nodes[0].map_pieces({0: [(0, half)]}, LENGTHS)
        nodes[1].map_pieces({1: [(half, store.n_reads)]}, LENGTHS)
        nodes[0].pull_partitions(store, [0, 1], [25])
        pulled = {}
        for side in ("S", "P"):
            with nodes[0].shuffled.open_run(side, 25) as reader:
                pulled[side] = reader.read_all().tobytes()
        nodes[0].map_pieces({0: [(0, half)]}, LENGTHS)
        live = {side: messages.request(1, 0, FETCH_PARTITION, 0, side, 25)
                for side in ("S", "P")}

        nodes[1].map_pieces({0: [(0, half)]}, LENGTHS)
        assert sorted(nodes[1].pieces) == [0, 1]
        for side in ("S", "P"):
            adopted = messages.request(0, 1, FETCH_PARTITION, 0, side, 25)
            assert 0 < adopted.shape[0] < 2 * half
            assert adopted.tobytes() == live[side].tobytes()
        # Both of node 1's pieces of 25 are served: mapped again for 25
        # alone, as a rebuild maps them.
        nodes[1].map_pieces({0: [(0, half)], 1: [(half, store.n_reads)]},
                            [25])
        nodes[1].pull_partitions(store, [1, 1], [25])
        for side in ("S", "P"):
            with nodes[1].shuffled.open_run(side, 25) as reader:
                assert reader.read_all().tobytes() == pulled[side]
        # Only the round's lengths were mapped, and 27 is still held.
        assert nodes[1].pieces[0].records_in("S", 26) == 0
        assert nodes[1].holds(0, 27) and not nodes[1].holds(0, 25)


class TestRoundMap:
    @pytest.mark.parametrize("memory", [None, MemoryConfig(40_000, 16_000,
                                                           name="cramped")],
                             ids=["in-core", "cramped"])
    def test_a_round_mapped_piece_is_the_eager_piece_filtered(
            self, tmp_path, tiny_md, memory):
        """The oracle: a piece mapped under a snapshot is the eager map's
        piece of the same blocks with the records ``_open_claims`` refuses
        taken out, in the same order. In-core pieces stay in host memory;
        on the cramped budget they are files."""
        config = AssemblyConfig(min_overlap=25, **({} if memory is None
                                                   else {"memory": memory}))
        blocks = [(0, 13), (40, 71)]
        with PackedReadStore.open(tiny_md.store_path) as store:
            node = WorkerNode(0, config, tmp_path,
                              ActiveMessageLayer(NetworkSpec()), store)
            node.closed = closed = _every_third(store)
            node.map_pieces({3: blocks}, LENGTHS)
            eager = PartitionStore(tmp_path / "eager", node.dtype)
            for start, stop in blocks:
                run_map(node.ctx, store, eager, read_range=(start, stop),
                        only_lengths=frozenset(LENGTHS))
            eager.finalize()
        for length in LENGTHS:
            for side in ("S", "P"):
                assert node.pieces[3].kept(side, length) == (memory is None)
                with eager.open_run(side, length) as reader:
                    records = reader.read_all()
                keep = _open_claims(node.ctx, closed, side)(records)
                assert 0 < keep.sum() < records.shape[0]
                assert node.read_piece(3, side, length).tobytes() \
                    == records[keep].tobytes()
        node.abandon()
