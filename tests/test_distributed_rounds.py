"""The cluster's rounds: filter before the wire.

Shuffle, sort and reduce run in rounds of ``n_nodes`` overlap lengths,
longest first; each round's map pieces leave their producers minus the
records the out-degree bit-vector of the rounds before has closed. The
graph must be the single-node ``Assembler``'s for every node count, the
wire must carry less than the one-round (eager) schedule's, and a crash
inside a later round must recover every sorted partition byte for byte:
the snapshot a round was pulled under is re-sent to a restarted node and
applied to recomputed pieces of a lost one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.distributed import DistributedAssembler, cluster
from repro.faults import NODE, NODE_CRASH, Fault, FaultPlan, inject
from repro.seq.datasets import tiny_dataset


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
                    in_degree=graph.in_degree.copy(),
                    out_bits=graph.out_bits.to_bytes())
        return compress(ctx, graph, store, **kwargs)

    monkeypatch.setattr(cluster, "run_compress", spy)
    return seen


# -- (a) the graph is the single node's, whatever the round size --------------

#: Parent commit, 40 nodes (one eager round) on the dataset below.
EAGER_SHUFFLE_BYTES = 698_400
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
    for name in ("target", "overlap", "in_degree"):
        assert np.array_equal(final_graph[name], archive[name]), name
    assert final_graph["out_bits"] == archive["out_bits"].tobytes()
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
    assert result.notes["rounds"] == -(-37 // n_nodes)
    assert result.total_seconds == sum(result.phase_seconds.values())
    assert sum(1 for hop in result.token_trace if hop["ok"]) == 37
    assert result.reduce_report.per_length_edges \
        == single.reduce_report.per_length_edges
    if n_nodes == 1:
        # One length a round, renamed not pulled, filtered by the sort:
        # the single-node lazy schedule.
        assert result.shuffle_bytes == 0
        assert result.phase_seconds["shuffle"] == 0.0
        assert result.reduce_report.candidates == single.reduce_report.candidates
        assert result.notes["records_shuffled"] == single.sort_report.total_records
        assert result.phase_seconds["sort"] == pytest.approx(
            single.telemetry["sort"].sim_seconds)
        assert result.phase_seconds["reduce"] == pytest.approx(
            single.telemetry["reduce"].sim_seconds)
    elif n_nodes == 40:
        # One round: nothing is closed when it is pulled. Today's eager
        # schedule, to the byte.
        assert result.shuffle_bytes == EAGER_SHUFFLE_BYTES
        assert result.reduce_report.candidates == EAGER_CANDIDATES
        assert result.notes["records_shuffled"] == result.notes["records_mapped"]
    else:
        assert result.shuffle_bytes < EAGER_SHUFFLE_BYTES
        assert single.reduce_report.candidates \
            <= result.reduce_report.candidates < EAGER_CANDIDATES


# -- (b) what crosses the wire -------------------------------------------------


@pytest.mark.parametrize("n_nodes, shuffle_bytes, candidates", [
    (2, 90_888, 1_850),
    (4, 165_408, 2_402),
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
    """The shuffle / sort / reduce node ops of a probe trace, by round."""
    rounds, previous = [], None
    for point in node_ops:
        kind = _kind(point)
        if kind in ("map", "seal-map"):
            continue
        if kind == "pull" and previous not in ("pull", "ledger-shuffle"):
            rounds.append([])
        rounds[-1].append(point)
        previous = kind
    return rounds


def _sorted_partitions(result, workdir) -> dict[str, bytes]:
    """The sorted files the token read, by name."""
    files = {}
    for hop in result.token_trace:
        if hop["ok"]:
            for side in ("S", "P"):
                name = f"{side}_{hop['length']:05d}.sorted.run"
                files[name] = (workdir / f"node{hop['node']:02d}" / "partitions"
                               / name).read_bytes()
    return files


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("rounds-golden")
    md, _ = tiny_dataset(root / "data", genome_length=600, read_length=36,
                         coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, N_NODES).assemble(
            md.store_path, workdir=root / "golden")
    node_ops = [t for t in plan.trace if t.site == NODE]
    return md, result, _sorted_partitions(result, root / "golden"), \
        _rounds_of(node_ops)


@pytest.mark.parametrize("node_restarts", (1, 0), ids=("restart", "lost-peer"))
def test_crash_in_a_later_round_recovers_every_sorted_byte(golden, tmp_path,
                                                           node_restarts):
    """Every node op of one seeded round >= 1: pull, sort and reduce alike.

    With a restart budget the replacement gets the round's snapshot
    re-sent and replays only that round; without one the node is lost and
    the survivors recompute its map pieces, filtered like the served ones.
    """
    md, clean, clean_files, rounds = golden
    assert len(rounds) == 4 and len(clean_files) == 2 * 12
    victim = random.Random(SWEEP_SEED).randrange(1, len(rounds))
    points = rounds[victim]
    assert {"pull", "sort", "reduce"} <= {_kind(point) for point in points}
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                            node_restarts=node_restarts)
    for point in points:
        workdir = tmp_path / f"op{point.op}"
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
        with inject(plan):
            recovered = DistributedAssembler(config, N_NODES).assemble(
                md.store_path, workdir=workdir)
        assert [e.kind for e in plan.events] == [NODE_CRASH], point.path
        assert recovered.degraded is None, point.path
        assert recovered.notes.get("node_restarts", 0) == node_restarts
        assert recovered.notes.get("nodes_lost", 0) == 1 - node_restarts
        assert _sorted_partitions(recovered, workdir) == clean_files, point.path
        assert recovered.contigs.flat_codes.tobytes() \
            == clean.contigs.flat_codes.tobytes()
        assert recovered.reduce_report.candidates \
            >= clean.reduce_report.candidates  # replays re-offer, never lose
        # Lost peers' pieces never crossed the wire; the rest did, the same.
        if node_restarts:
            assert recovered.shuffle_bytes >= clean.shuffle_bytes


@pytest.mark.parametrize("kind", ("pull", "sort", "reduce"))
def test_restart_replays_the_current_round_only(golden, tmp_path, kind):
    """A node restarted in the last round rebuilds nothing the token has
    consumed: its ledger's ``shuffle`` / ``sort`` records name one round's
    files, and the round before's are no longer its own."""
    md, clean, clean_files, rounds = golden
    point = next(p for p in rounds[-1] if _kind(p) == kind)
    plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
    with inject(plan):
        recovered = DistributedAssembler(
            AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7), N_NODES).assemble(
                md.store_path, workdir=tmp_path / "w")
    assert recovered.notes["node_restarts"] == 1
    assert "partitions_rebuilt" not in recovered.notes
    assert _sorted_partitions(recovered, tmp_path / "w") == clean_files
