"""The cluster's rounds: map what can still win, just before the pull.

Map, shuffle, sort and reduce run in rounds, longest first: the
whole-read length alone (it closes the duplicate reads), then ``n_nodes``
overlap lengths a round; each round's map pieces are mapped at its start,
minus the records the out-degree bit-vector of the rounds before has
closed. The graph must be the single-node ``Assembler``'s for every node
count, the wire must carry less than the one-round (eager) schedule's,
and a crash inside a later round must recover every sorted partition byte
for byte: the snapshot a round was mapped under is re-sent to a restarted
node, which maps its pieces again, and a lost node's blocks are mapped,
under the same snapshot, by the survivor that takes its id. An in-core
run holds its sorted runs and writes none, so the partitions the token
read are taken from the runs held (``conftest.spy_held_runs``) where no
file was written.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.distributed import DistributedAssembler, cluster, node, resilience
from repro.distributed.resilience import BLOCKS_PER_NODE
from repro.extmem.partitions import partition_sides
from repro.faults import NODE, NODE_CRASH, WRITE, Fault, FaultPlan, inject
from repro.seq.datasets import tiny_dataset

from .conftest import spy_held_runs


class OneRound(DistributedAssembler):
    """The eager schedule: every length in one round, nothing filtered."""

    def _rounds(self, lengths):
        return [sorted(lengths, reverse=True)]


@pytest.fixture()
def final_graph(monkeypatch):
    """The graph arrays of the next distributed run, as compress saw them."""
    seen = {}
    compress = cluster.run_compress

    def spy(ctx, graph, store, **kwargs):
        seen.update(target=graph.target.copy(), overlap=graph.overlap.copy(),
                    out_bits=graph.out_bits.to_bytes())
        return compress(ctx, graph, store, **kwargs)

    monkeypatch.setattr(cluster, "run_compress", spy)
    return seen


# -- (a) the graph is the single node's, whatever the round size --------------

#: One eager round (``OneRound``, 40 nodes) on the dataset below: the
#: parent commit's 698,400 B plus the pieces of ``P_L``, and its
#: candidates (the duplicates' are offered, and refused).
EAGER_SHUFFLE_BYTES = 707_840
EAGER_CANDIDATES = 2_984


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """37 overlap lengths (25..61), and the single-node run of them."""
    root = tmp_path_factory.mktemp("rounds-wide")
    md, _ = tiny_dataset(root, genome_length=1500, read_length=62,
                         coverage=10.0, min_overlap=25, seed=17)
    config = AssemblyConfig(min_overlap=25, fingerprint_lanes=2)
    single = Assembler(config).assemble(md.store_path, workdir=root / "single",
                                        resume=True)
    return md, config, single, np.load(root / "single" / "graph.npz")


@pytest.mark.parametrize("n_nodes", (1, 2, 3, 4, 5, 8, 40))
def test_graph_and_contigs_equal_the_single_node_run(wide, final_graph, n_nodes):
    md, config, single, archive = wide
    result = DistributedAssembler(config, n_nodes).assemble(md.store_path)
    for name in ("target", "overlap"):
        assert np.array_equal(final_graph[name], archive[name]), name
    assert final_graph["out_bits"] == archive["out_bits"].tobytes()
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
    assert result.notes["rounds"] == 1 + -(-37 // n_nodes)
    assert result.total_seconds == sum(result.phase_seconds.values())
    assert sum(1 for hop in result.token_trace if hop["ok"]) == 37 + 1
    assert result.reduce_report.per_length_edges \
        == single.reduce_report.per_length_edges
    if n_nodes == 1:
        # One length a round, mapped into place, never pulled: the
        # single-node lazy schedule. The lone node maps under the bits of
        # every length, the single node under those of each band's first,
        # so its sort reads no more than the single node's.
        assert result.shuffle_bytes == 0
        assert result.phase_seconds["shuffle"] == 0.0
        assert result.reduce_report.candidates == single.reduce_report.candidates
        assert result.notes["records_shuffled"] == single.sort_report.total_records
        assert result.phase_seconds["sort"] \
            <= single.telemetry["sort"].sim_seconds
        assert result.phase_seconds["reduce"] == pytest.approx(
            single.telemetry["reduce"].sim_seconds)
    elif n_nodes == 40:
        # The whole-read round, then one round of every overlap length:
        # only the duplicates are closed when it is mapped. The eager
        # schedule less the duplicates' records, to the byte, and the map
        # writes no more than that.
        assert result.shuffle_bytes == 632_720 < EAGER_SHUFFLE_BYTES
        assert result.reduce_report.candidates == 2_356 < EAGER_CANDIDATES
        eager = 2 * result.n_reads * (2 * 37 + 1)
        assert result.notes["records_eager"] == eager
        assert result.degraded is None  # no candidates dropped
        assert result.notes["records_shuffled"] \
            == eager - 2 * 2 * 37 * result.reduce_report.reads_closed
    else:
        assert result.shuffle_bytes < EAGER_SHUFFLE_BYTES
        assert single.reduce_report.candidates \
            <= result.reduce_report.candidates < EAGER_CANDIDATES


def test_records_shuffled_counts_held_and_written_runs(wide):
    """The records the token's partitions held, from what their sorts
    kept: the same whether the runs are held (in-core) or written
    (``cramped``)."""
    md, config, single, _ = wide
    cramped = AssemblyConfig(min_overlap=25, fingerprint_lanes=2,
                             memory=MemoryConfig(40_000, 16_000,
                                                 name="cramped"))
    in_core = DistributedAssembler(config, 4).assemble(md.store_path)
    on_disk = DistributedAssembler(cramped, 4).assemble(md.store_path)
    assert in_core.notes["records_shuffled"] \
        == on_disk.notes["records_shuffled"] > 0
    assert in_core.degraded is None and on_disk.degraded is None
    assert np.array_equal(in_core.contigs.flat_codes,
                          on_disk.contigs.flat_codes)


# -- (b) what crosses the wire -------------------------------------------------


@pytest.mark.parametrize("n_nodes, shuffle_bytes, candidates", [
    (2, 58_320, 1_216),
    (4, 114_168, 1_598),
])
def test_shuffle_bytes_and_candidates_pinned(tmp_path, n_nodes, shuffle_bytes,
                                             candidates):
    md, _ = tiny_dataset(tmp_path, genome_length=1800, read_length=50,
                         coverage=18.0, min_overlap=25, seed=31)
    config = AssemblyConfig(min_overlap=25)
    rounds = DistributedAssembler(config, n_nodes).assemble(md.store_path)
    eager = OneRound(config, n_nodes).assemble(md.store_path)
    assert (rounds.shuffle_bytes, rounds.reduce_report.candidates) \
        == (shuffle_bytes, candidates)
    assert rounds.shuffle_bytes < eager.shuffle_bytes
    assert rounds.reduce_report.candidates < eager.reduce_report.candidates
    assert eager.notes["rounds"] == 1
    assert rounds.edges == eager.edges
    assert np.array_equal(rounds.contigs.flat_codes, eager.contigs.flat_codes)
    # The token's path does not change: one hop a partition, longest first.
    assert [hop["length"] for hop in rounds.token_trace] \
        == [hop["length"] for hop in eager.token_trace]


# -- (c) recovery inside a later round ------------------------------------------

MIN_OVERLAP = 24
N_NODES = 3
SWEEP_SEED = 7


def _kind(point) -> str:
    return point.path.split(":", 1)[1].split("[", 1)[0]


def _rounds_of(node_ops) -> list[list]:
    """The node ops of a probe trace before compress, by round: every
    round's maps, pulls, sorts and reduces."""
    rounds, previous = [], "reduce"
    for point in node_ops:
        kind = _kind(point)
        if kind == "compress":
            continue
        if previous == "reduce" and kind != "reduce":
            rounds.append([])
        rounds[-1].append(point)
        previous = kind
    return rounds


def _dealt(n_reads: int) -> dict[int, list]:
    """The read blocks each node maps, in order, by node id: block ``i``
    of ``N_NODES * BLOCKS_PER_NODE`` is node ``i mod N_NODES``'s."""
    size = -(-n_reads // (N_NODES * BLOCKS_PER_NODE))
    blocks: dict[int, list[tuple[int, int]]] = {}
    for i, start in enumerate(range(0, n_reads, size)):
        blocks.setdefault(i % N_NODES, []).append(
            (start, min(start + size, n_reads)))
    return blocks


def _sorted_partitions(result, workdir, held) -> dict[str, bytes]:
    """The sorted runs the token read, by name: the file, else the run
    last held for it (``held``, :func:`spy_held_runs`)."""
    runs = {}
    for hop in result.token_trace:
        if hop["ok"]:
            for side in partition_sides(hop["length"], result.read_length):
                name = f"{side}_{hop['length']:05d}.sorted.run"
                path = workdir / f"node{hop['node']:02d}" / "partitions" / name
                runs[name] = path.read_bytes() if path.exists() else held[path]
    return runs


@pytest.fixture()
def held(monkeypatch) -> dict:
    """The runs the next runs hold, by the path their file would have."""
    return spy_held_runs(monkeypatch)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("rounds-golden")
    md, _ = tiny_dataset(root / "data", genome_length=600, read_length=36,
                         coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)
    plan = FaultPlan()
    with pytest.MonkeyPatch.context() as patch, inject(plan):
        held = spy_held_runs(patch)
        result = DistributedAssembler(config, N_NODES).assemble(
            md.store_path, workdir=root / "golden")
    assert not list((root / "golden").glob("node*/partitions/*.sorted.run"))
    node_ops = [t for t in plan.trace if t.site == NODE]
    return md, result, _sorted_partitions(result, root / "golden", held), \
        _rounds_of(node_ops), _dealt(result.n_reads)


@pytest.fixture()
def mapped(monkeypatch):
    """``(read range, lengths)`` of every block the next runs map, in order."""
    calls = []
    run_map = node.run_map

    def spy(ctx, store, partitions=None, **kwargs):
        calls.append((kwargs["read_range"], tuple(sorted(kwargs["only_lengths"]))))
        return run_map(ctx, store, partitions, **kwargs)

    monkeypatch.setattr(node, "run_map", spy)
    return calls


@pytest.mark.parametrize("node_restarts", (1, 0), ids=("restart", "lost-peer"))
def test_crash_in_a_later_round_recovers_every_sorted_byte(golden, tmp_path,
                                                           mapped, held,
                                                           node_restarts):
    """Every node op of one seeded round >= 1: map, pull, sort and reduce.

    With a restart budget the replacement gets the round's snapshot
    re-sent and only that round is rebuilt; without one the node is lost,
    and one survivor maps its blocks with its own from then on.
    """
    md, clean, clean_files, rounds, blocks = golden
    DistributedAssembler(AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7),
                         N_NODES).assemble(md.store_path)
    clean_maps = Counter(mapped)
    assert len(rounds) == 5 and len(clean_files) == 2 * 12 + 1
    victim = random.Random(SWEEP_SEED).randrange(1, len(rounds))
    points = rounds[victim]
    lengths = {int(point.path.split("[")[1][:-1]) for point in points
               if _kind(point) == "reduce"}
    assert {"map-round", "pull", "sort", "reduce"} \
        <= {_kind(point) for point in points}
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                            node_restarts=node_restarts)
    for point in points:
        workdir = tmp_path / f"op{point.op}"
        mapped.clear()
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
        with inject(plan):
            recovered = DistributedAssembler(config, N_NODES).assemble(
                md.store_path, workdir=workdir)
        assert [e.kind for e in plan.events] == [NODE_CRASH], point.path
        assert recovered.degraded is None, point.path
        assert recovered.notes.get("node_restarts", 0) == node_restarts
        assert recovered.notes.get("nodes_lost", 0) == 1 - node_restarts
        assert _sorted_partitions(recovered, workdir, held) == clean_files, \
            point.path
        assert recovered.contigs.flat_codes.tobytes() \
            == clean.contigs.flat_codes.tobytes()
        assert recovered.reduce_report.candidates \
            >= clean.reduce_report.candidates  # replays re-offer, never lose
        # A restart re-pulls on top of the clean run's bytes; a lost peer's
        # pieces leave the survivor holding them instead (often to itself),
        # other bytes.
        if node_restarts:
            assert recovered.shuffle_bytes >= clean.shuffle_bytes
        # A piece is let go when its owner pulls it. Before the pull, what
        # the crashed node held of its round is mapped again at most once,
        # by itself or by the survivor that took its id, for the lengths no
        # pull had taken. After the pull, the rebuilt partition's pieces
        # are mapped again: every producer's blocks, once, for that length
        # alone. One ``pieces_remapped`` a producer and length.
        again = Counter(mapped) - clean_maps
        remapped = recovered.notes.get("pieces_remapped", 0)
        crashed = int(point.path[len("node"):][:2])
        (owned,) = [hop["length"] for hop in clean.token_trace
                    if hop["node"] == crashed and hop["length"] in lengths]
        if _kind(point) in ("sort", "reduce"):
            assert sorted(again.elements()) == sorted(
                (block, (owned,)) for dealt in blocks.values()
                for block in dealt), point.path
            assert remapped == N_NODES, point.path
        else:
            assert sorted(block for block, _ in again.elements()) \
                in ([], sorted(blocks[crashed])), point.path
            if again:
                (need,) = {need for _, need in again}
                assert owned in need and remapped == len(need), point.path
            else:  # the map ran again, or a survivor mapped the whole round
                assert remapped in (0, len(lengths)), point.path


@pytest.mark.parametrize("kind", ("pull", "sort", "reduce"))
def test_a_restart_rebuilds_the_current_round_only(golden, tmp_path, held,
                                                   kind):
    """A node restarted in the last round rebuilds nothing the token has
    consumed: the restart does no work, and only the sort or reduce
    attempt that runs again checks a partition it owns this round against
    what its pull wrote; the round before's were reduced. The run is
    in-core, so a partition pulled but not yet reduced (unsorted, or
    sorted and held: a held run is never written) died with the node and
    is pulled again by that operation."""
    md, clean, clean_files, rounds, _ = golden
    point = next(p for p in rounds[-1] if _kind(p) == kind)
    plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
    with inject(plan):
        recovered = DistributedAssembler(
            AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7), N_NODES).assemble(
                md.store_path, workdir=tmp_path / "w")
    assert recovered.notes["node_restarts"] == 1
    assert recovered.notes.get("partitions_rebuilt", 0) \
        == (kind in ("sort", "reduce"))
    assert _sorted_partitions(recovered, tmp_path / "w", held) == clean_files


# -- (d) the held path: in-core rounds stay in host memory ----------------------


def test_an_in_core_run_writes_nothing(wide, tmp_path, held):
    """4 nodes, in-core: every round's pieces and pulled partitions stay
    in host memory, the whole-read round's ``P_L`` pieces and partition
    too, and every sorted run is held for its reduce: nothing is written
    to the disk."""
    md, config, single, _ = wide
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, 4).assemble(
            md.store_path, workdir=tmp_path)
    assert [point.path for point in plan.trace if point.site == WRITE] == []
    assert len(held) == 2 * 37 + 1
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)


def _pieces_left(monkeypatch) -> tuple[list, list]:
    """After each round's shuffle of the next runs, every piece of a pulled
    length a holder still has (a run in host memory or a file); and each
    run's supervisor."""
    left, supervisors = [], []
    shuffle_phase = resilience.ClusterSupervisor.shuffle_phase

    def spy(self, lengths):
        pulled = shuffle_phase(self, lengths)
        if self not in supervisors:
            supervisors.append(self)
        left.extend((holder.node_id, producer, side, length)
                    for holder in self.alive()
                    for producer, pieces in holder.pieces.items()
                    for length in lengths for side in partition_sides(
                        length, self.store.read_length)
                    if pieces.kept(side, length)
                    or pieces.path(side, length).exists())
        return pulled

    monkeypatch.setattr(resilience.ClusterSupervisor, "shuffle_phase", spy)
    return left, supervisors


def test_a_pulled_piece_is_let_go_by_its_holder(wide, monkeypatch):
    """4 nodes, in-core: after each round's shuffle no holder keeps a
    piece of a pulled length, in host memory or as a file. Against the
    same run with every piece kept until the round's end (a serve that
    only reads), no node's modeled host-pool peak is higher and one is
    lower, and the contigs and modeled seconds are the same."""
    md, config, single, _ = wide
    left, supervisors = _pieces_left(monkeypatch)
    handed = DistributedAssembler(config, 4).assemble(md.store_path)
    assert left == [] and len(supervisors) == 1

    def serve_and_keep(self, producer, side, length):
        records = self.read_piece(producer, side, length)
        return records, records.nbytes

    monkeypatch.setattr(node.WorkerNode, "_serve_partition", serve_and_keep)
    kept = DistributedAssembler(config, 4).assemble(md.store_path)
    assert len(left) > 0 and len(supervisors) == 2
    peaks = [[worker.ctx.host_pool.lifetime_peak_bytes
              for worker in supervisor.nodes] for supervisor in supervisors]
    assert all(a <= b for a, b in zip(*peaks)) and peaks[0] != peaks[1]
    assert handed.total_seconds == kept.total_seconds
    assert handed.phase_seconds == kept.phase_seconds
    assert np.array_equal(handed.contigs.flat_codes, kept.contigs.flat_codes)
    assert np.array_equal(handed.contigs.flat_codes, single.contigs.flat_codes)
    assert handed.notes.get("pieces_remapped", 0) == 0


@pytest.fixture()
def piece_maps(monkeypatch):
    """``(holder, producers, lengths)`` of every piece map, in order."""
    calls = []
    map_pieces = node.WorkerNode.map_pieces

    def spy(self, lineage, lengths, **kwargs):
        calls.append((self.node_id, tuple(sorted(lineage)), tuple(lengths)))
        return map_pieces(self, lineage, lengths, **kwargs)

    monkeypatch.setattr(node.WorkerNode, "map_pieces", spy)
    return calls


def _crash_at(golden, tmp_path, path: str, round_index: int, **knobs):
    """The run with ``path``'s node op of round ``round_index`` crashed."""
    md, _, _, rounds, _ = golden
    point = next(p for p in rounds[round_index] if p.path == path)
    plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
    with inject(plan):
        result = DistributedAssembler(
            AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, **knobs),
            N_NODES).assemble(md.store_path, workdir=tmp_path)
    assert [e.kind for e in plan.events] == [NODE_CRASH]
    assert result.degraded is None
    return result


def _maps_again(golden, piece_maps, recovered_maps) -> Counter:
    """The piece maps a faulted run made beyond the clean run's."""
    md = golden[0]
    piece_maps.clear()
    DistributedAssembler(AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7),
                         N_NODES).assemble(md.store_path)
    return Counter(recovered_maps) - Counter(piece_maps)


def test_a_crash_at_a_later_pull_maps_the_held_pieces_again(
        golden, tmp_path, piece_maps, held):
    """node01 dies at its round-2 pull, its pieces held in host memory:
    they died with it. The replacement maps again, once, those no pull has
    taken yet, and every sorted byte is the clean run's."""
    _, clean, clean_files, rounds, _ = golden
    recovered = _crash_at(golden, tmp_path, "node01:pull", 2)
    maps = list(piece_maps)
    assert recovered.notes["node_restarts"] == 1
    assert "partitions_rebuilt" not in recovered.notes
    round_lengths = next(lengths for holder, _, lengths in maps[6:9]
                         if holder == 1)
    # node00 pulled its length first: the lengths no pull has taken yet.
    pulled = next(hop["length"] for hop in clean.token_trace
                  if hop["node"] == 0 and hop["length"] in round_lengths)
    untaken = tuple(length for length in round_lengths if length != pulled)
    assert _maps_again(golden, piece_maps, maps) \
        == Counter({(1, (1,), untaken): 1})
    assert recovered.notes["pieces_remapped"] == len(untaken) == 2
    assert _sorted_partitions(recovered, tmp_path, held) == clean_files
    assert recovered.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()


def test_an_owner_crash_between_pull_and_sort_pulls_its_partition_again(
        golden, tmp_path, held):
    """node02 dies at its round-3 sort, with the partition it pulled held
    in host memory: the replacement finds it missing and pulls it again
    from the pieces the round's holders still hold."""
    _, clean, clean_files, _, _ = golden
    recovered = _crash_at(golden, tmp_path, "node02:sort", 3)
    assert recovered.notes["node_restarts"] == 1
    assert recovered.notes["partitions_rebuilt"] == 1
    assert recovered.shuffle_bytes == clean.shuffle_bytes
    assert _sorted_partitions(recovered, tmp_path, held) == clean_files
    assert recovered.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()


def test_a_node_lost_mid_run_is_mapped_by_a_survivor_every_round(
        golden, tmp_path, piece_maps, held):
    """node00 is lost at its round-1 pull: one survivor takes its id, maps
    its blocks for that round at once and for every later round beside
    its own, and the sorted runs and contigs are the clean run's."""
    _, clean, clean_files, rounds, _ = golden
    recovered = _crash_at(golden, tmp_path, "node00:pull", 1, node_restarts=0)
    assert recovered.notes["nodes_lost"] == 1
    taken = [(holder, producers) for holder, producers, _ in piece_maps
             if 0 in producers]
    # Rounds 0 and 1: node00 itself, then in round 1 the survivor at the
    # loss; rounds 2-4: the survivor, with its own id.
    survivor = taken[2][0]
    assert survivor != 0
    assert recovered.lost_nodes == (0,)
    assert taken == [(0, (0,)), (0, (0,)), (survivor, (0,))] \
        + [(survivor, tuple(sorted((0, survivor))))] * (len(rounds) - 2)
    assert _sorted_partitions(recovered, tmp_path, held) == clean_files
    assert recovered.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()


# -- (e) round 0 deals its read blocks and maps like every later round --------


@pytest.fixture()
def deals(monkeypatch):
    """``block_ranges`` as each map phase of the next runs starts."""
    seen = []
    map_phase = resilience.ClusterSupervisor.map_phase

    def spy(self):
        seen.append({producer: list(blocks)
                     for producer, blocks in self.block_ranges.items()})
        return map_phase(self)

    monkeypatch.setattr(resilience.ClusterSupervisor, "map_phase", spy)
    return seen


@pytest.mark.parametrize("node_restarts", (None, 1, 0),
                         ids=("clean", "restart", "lost"))
def test_round_0_deals_its_blocks_round_robin(golden, tmp_path, deals,
                                              piece_maps, node_restarts):
    """133 reads in 12 blocks of 12 (the last of one read), dealt before
    anything is mapped: block ``i`` to node ``i mod 3``. Round 0 maps them
    as every later round does, and the contigs are ``Assembler``'s; also
    with node01 crashed at round 0's map, restarted or lost. A lost node01's
    blocks are mapped by the survivor that takes its id."""
    md, clean, _, rounds, _ = golden
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)
    single = Assembler(config).assemble(md.store_path,
                                        workdir=tmp_path / "single")
    faults = []
    if node_restarts is not None:
        config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                node_restarts=node_restarts)
        point = next(p for p in rounds[0] if p.path == "node01:map-round")
        faults = [Fault(NODE_CRASH, site=NODE, at_op=point.op)]
    plan = FaultPlan(faults)
    with inject(plan):
        result = DistributedAssembler(config, N_NODES).assemble(
            md.store_path, workdir=tmp_path / "cluster")
    assert [e.kind for e in plan.events] == [NODE_CRASH] * len(faults)
    assert result.n_reads == 133
    assert deals[0] == {
        0: [(0, 12), (36, 48), (72, 84), (108, 120)],
        1: [(12, 24), (48, 60), (84, 96), (120, 132)],
        2: [(24, 36), (60, 72), (96, 108), (132, 133)]} == _dealt(133)
    assert all(deal == deals[0] for deal in deals)  # never moved
    assert result.degraded is None
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
    whole = (result.read_length,)
    round_0 = [(holder, producers) for holder, producers, lengths in piece_maps
               if lengths == whole]
    if node_restarts == 0:
        assert result.lost_nodes == (1,)
        assert result.notes["nodes_lost"] == 1
        survivor = next(holder for holder, producers in round_0
                        if 1 in producers)
        assert survivor != 1
        assert (1, (1,)) not in round_0
    else:
        assert result.lost_nodes == ()
        assert result.notes.get("node_restarts", 0) == (node_restarts or 0)
        assert round_0 == [(0, (0,)), (1, (1,)), (2, (2,))]
