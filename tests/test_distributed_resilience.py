"""Distributed resilience: heartbeats, recovery, degraded mode.

The property at the center: a seeded node-crash run that fully recovers is
*byte-identical* to the clean run — same contigs, same offsets, same edge
set — because a restarted node redoes, from retained lineage and in the
original byte order, whatever no longer has the size that lineage
implies. Degraded runs (recovery exhausted) complete on the survivors and
report the drop instead of raising.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.device import SimClock
from repro.distributed import (ActiveMessageLayer, ClusterSupervisor,
                               DistributedAssembler, NetworkSpec, WorkerNode,
                               node_scope)
from repro.errors import ConfigError, FaultInjected
from repro.extmem import PartitionStore
from repro.extmem.partitions import SIDES
from repro.faults import (CRASH, FSYNC_LOSS, MESSAGE, NODE, NODE_CRASH, READ,
                          WRITE, Fault, FaultPlan, inject, scoped)
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore
from repro.trace import EVENTS_FILE, check_balanced, load_events

from .conftest import spans_by_name

MIN_OVERLAP = 24
N_NODES = 3
#: 40 kB of host: every round's pieces and pulled partitions are files. The
#: default budget is in-core, and keeps them in host memory.
CRAMPED = MemoryConfig(40_000, 16_000, name="cramped")


@pytest.fixture(scope="module")
def resilience_data(tmp_path_factory):
    """A dataset small enough that a ~15-run crash sweep stays fast."""
    root = tmp_path_factory.mktemp("resilience-data")
    md, _ = tiny_dataset(root, genome_length=600, read_length=36,
                         coverage=8.0, min_overlap=MIN_OVERLAP, seed=7)
    return md


@pytest.fixture()
def config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)


@pytest.fixture(scope="module")
def clean_run(resilience_data):
    """The golden distributed result plus the node-op probe trace."""
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, N_NODES).assemble(
            resilience_data.store_path)
    node_ops = [t for t in plan.trace if t.site == NODE]
    return result, node_ops


def _identity(result) -> tuple:
    return (result.contigs.flat_codes.tobytes(),
            result.contigs.offsets.tobytes(), result.edges)


# -- per-scope crash bookkeeping ----------------------------------------------


class TestScopedCrashes:
    def test_clear_crash_is_per_scope(self):
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="node00:*"),
                          Fault(NODE_CRASH, site=NODE, match="node01:*")])
        with inject(plan):
            with pytest.raises(FaultInjected):
                plan.node_op("node00", "sort")
            with pytest.raises(FaultInjected):
                plan.node_op("node01", "sort")
            assert plan.crashed_scopes == ("node00", "node01")
            plan.clear_crash(scope="node00")
            assert plan.crashed_scopes == ("node01",)
            plan.clear_crash(scope="node00")  # idempotent
            assert plan.crashed_scopes == ("node01",)
            plan.clear_crash()  # bare call: everything
            assert plan.crashed_scopes == ()

    def test_a_lost_write_kills_the_scope_that_wrote_it(self, tmp_path):
        """The crash an ``fsync-loss`` arms may fire in another node's
        operation; it is still the writer's page cache that died."""
        path = tmp_path / "piece.run"
        plan = FaultPlan([Fault(FSYNC_LOSS, site=WRITE)])
        with inject(plan), open(path, "wb") as handle:
            with scoped("node00"):
                plan.deliver_write(path, b"records", handle)
            handle.flush()
            plan.node_op("node01", "pull")
            with scoped("node01"), pytest.raises(FaultInjected) as died:
                plan.node_op("node01", "sort")
        assert died.value.kind == FSYNC_LOSS and died.value.scope == "node00"
        assert plan.crashed_scopes == ("node00",)
        assert path.read_bytes() == b""

    def test_node_op_match_is_scope_and_op_specific(self):
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="node02:reduce*")])
        with inject(plan):
            plan.node_op("node02", "sort")        # wrong op: no fire
            plan.node_op("node00", "reduce[30]")  # wrong scope: no fire
            with pytest.raises(FaultInjected):
                plan.node_op("node02", "reduce[30]")
        assert [e.kind for e in plan.events] == [NODE_CRASH]


# -- message-layer faults ------------------------------------------------------


class TestMessageFaults:
    def _layer(self):
        layer = ActiveMessageLayer(NetworkSpec(bandwidth=1e6,
                                               latency_seconds=0.0))
        clocks = {0: SimClock(), 1: SimClock()}
        for node_id, clock in clocks.items():
            layer.register_node(node_id, clock)
        layer.register_handler(1, "echo", lambda x: (x, 8))
        return layer, clocks

    def test_a_request_after_its_destination_died_goes_through(self):
        layer, clocks = self._layer()
        plan = FaultPlan([Fault(NODE_CRASH, site=MESSAGE, match="*echo")])
        with inject(plan):
            with pytest.raises(FaultInjected):
                layer.request(0, 1, "echo", 7)
            assert clocks[0].seconds("network") == 0  # nothing crossed
            assert layer.request(0, 1, "echo", 7) == 7  # once-fault disarmed
        assert layer.messages_sent == 1

    def test_node_crash_in_flight_kills_destination(self):
        layer, _ = self._layer()
        plan = FaultPlan([Fault(NODE_CRASH, site=MESSAGE)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                layer.request(0, 1, "echo", 7)
            assert plan.crashed_scopes == (node_scope(1),)
        assert layer.messages_sent == 0


# -- the byte-identity property ------------------------------------------------


class TestRecoveryByteIdentity:
    def _crash_ops(self, node_ops) -> list[int]:
        """Every reduce-boundary op, plus one op of each other kind."""
        ops, seen_kinds = [], set()
        for point in node_ops:
            op_name = point.path.split(":", 1)[1]
            kind = op_name.split("[", 1)[0]
            if kind == "reduce":
                ops.append(point.op)
            elif kind not in seen_kinds:
                seen_kinds.add(kind)
                ops.append(point.op)
        return ops

    def test_node_crash_at_every_reduce_boundary_recovers(
            self, resilience_data, config, clean_run):
        clean, node_ops = clean_run
        crash_ops = self._crash_ops(node_ops)
        assert sum(1 for p in node_ops
                   if ":reduce[" in p.path and p.op in crash_ops) >= 3
        for op in crash_ops:
            plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=op)])
            with inject(plan):
                recovered = DistributedAssembler(config, N_NODES).assemble(
                    resilience_data.store_path)
            assert [e.kind for e in plan.events] == [NODE_CRASH], \
                f"crash at op {op} did not fire"
            assert recovered.degraded is None, f"crash at op {op} degraded"
            assert _identity(recovered) == _identity(clean), \
                f"crash at op {op} changed the output"
            assert recovered.notes["node_restarts"] >= 1

    def test_shuffle_node_crash_in_flight_is_byte_identical(
            self, resilience_data, config, clean_run):
        """The destination of a pull's fetch dies: it restarts, and the
        pull runs again on its own node, which is not restarted."""
        clean, _ = clean_run
        plan = FaultPlan([Fault(NODE_CRASH, site=MESSAGE,
                                match="*fetch_partition")])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert [event.kind for event in plan.events] == [NODE_CRASH]
        assert result.notes["node_restarts"] == 1
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_same_seed_same_fault_identical_timeline(self, resilience_data,
                                                     config, clean_run):
        _, node_ops = clean_run
        reduce_op = next(p.op for p in node_ops if ":reduce[" in p.path)
        runs = []
        for _ in range(2):
            plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=reduce_op)])
            with inject(plan):
                runs.append(DistributedAssembler(config, N_NODES).assemble(
                    resilience_data.store_path))
        assert runs[0].token_trace == runs[1].token_trace
        assert runs[0].phase_seconds == runs[1].phase_seconds
        assert runs[0].notes == runs[1].notes


# -- the token timeline --------------------------------------------------------


class TestTokenTimeline:
    def test_clean_run_first_attempts_only(self, clean_run):
        clean, _ = clean_run
        assert clean.token_trace
        assert all(e["ok"] and e["attempt"] == 0 for e in clean.token_trace)
        for knob in ("wasted_s", "node_restarts", "failovers"):
            assert knob not in clean.notes

    def test_token_time_monotone_under_faults(self, resilience_data, config,
                                              clean_run):
        _, node_ops = clean_run
        reduce_op = next(p.op for p in node_ops if ":reduce[" in p.path)
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=reduce_op)])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        failures = [e for e in result.token_trace if not e["ok"]]
        assert failures and all(e["wasted_s"] >= 0 for e in failures)
        hops = [e for e in result.token_trace if e["ok"]]
        last = 0.0
        for hop in hops:
            assert hop["sim0"] >= last, "token went backward"
            assert hop["sim1"] >= hop["sim0"]
            last = hop["sim1"]
        # The token visited every partition exactly once despite the crash.
        ok_lengths = [e["length"] for e in hops]
        assert sorted(ok_lengths) == sorted(set(ok_lengths))


# -- degraded-mode completion --------------------------------------------------


class TestDegradedMode:
    def test_unrecoverable_partition_drops_instead_of_raising(
            self, resilience_data, config, clean_run):
        clean, _ = clean_run
        victim = clean.token_trace[len(clean.token_trace) // 2]["length"]
        # fnmatch treats "[...]" as a character class — escape the bracket.
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE,
                                match=f"*:reduce[[]{victim}]", once=False)])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        degraded = result.degraded
        assert degraded is not None
        assert degraded.dropped_lengths == (victim,)
        assert degraded.node_restarts >= 1 and degraded.lost_nodes
        assert victim not in [e["length"] for e in result.token_trace if e["ok"]]
        summary = degraded.summary()
        assert "DEGRADED RUN" in summary and str(victim) in summary
        # Contig-level impact is quantified against the clean total.
        assert degraded.candidates_dropped > 0
        assert degraded.candidates_total >= degraded.candidates_dropped
        # Every other partition still made it through.
        ok = {e["length"] for e in result.token_trace if e["ok"]}
        assert ok == {e["length"] for e in clean.token_trace} - {victim}

    def test_a_dropped_partition_holds_the_token_until_its_verdict(
            self, resilience_data, config, clean_run):
        """The token waits for the ladder to give a partition up, as it
        waits for a surviving hop's overlap finding: a run that lost two
        nodes on the way does not model a faster reduce than a clean one."""
        clean, _ = clean_run
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE,
                                match="*:reduce[[]30]", once=False)])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert result.degraded.dropped_lengths == (30,)
        assert len(result.degraded.lost_nodes) == 2
        wasted = sum(e["wasted_s"] for e in result.token_trace
                     if e["length"] == 30)
        reduce_s = result.phase_seconds["reduce"]
        assert reduce_s >= clean.phase_seconds["reduce"]
        assert reduce_s >= wasted

    def test_resilience_knob_validation(self):
        with pytest.raises(ConfigError):
            AssemblyConfig(heartbeat_interval=0.0)
        with pytest.raises(ConfigError):
            AssemblyConfig(heartbeat_interval=2.0, node_timeout=1.0)
        with pytest.raises(ConfigError):
            AssemblyConfig(node_restarts=-1)


# -- a crash inside a partition ------------------------------------------------

#: Device windows this small make a reduce partition span many reads.
MID_PARTITION_DEVICE_BLOCK = 48


@pytest.fixture(scope="module")
def busiest_reduces(resilience_data):
    """The config, its clean (probe) run, and the ``READ`` points inside
    each of the two reduce node ops with the most reads."""
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                            device_block_pairs=MID_PARTITION_DEVICE_BLOCK)
    plan = FaultPlan()
    with inject(plan):
        probe = DistributedAssembler(config, N_NODES).assemble(
            resilience_data.store_path)
    reads: dict[str, list] = {}
    op = None
    for point in plan.trace:
        if point.site == NODE:
            op = point.path if ":reduce[" in point.path else None
        elif point.site == READ and op is not None:
            reads.setdefault(op, []).append(point)
    busiest = sorted(reads.values(), key=len, reverse=True)[:2]
    assert len(busiest) == 2 and len(busiest[1]) >= 10, \
        "partitions never spanned several reads"
    return config, probe, busiest


class TestMidPartitionCrash:
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_node_crash_inside_a_partition_restarts_byte_identically(
            self, resilience_data, clean_run, busiest_reduces, rank, which):
        """The restart rung from a crash part-way through a partition: the
        restarted node replays the partition whole, and the crashed
        attempt's candidates and windows are not counted beside the
        replay's."""
        clean, _ = clean_run
        config, probe, busiest = busiest_reduces
        points = busiest[rank]
        point = {"first": points[0], "middle": points[len(points) // 2],
                 "last": points[-1]}[which]
        plan = FaultPlan([Fault(NODE_CRASH, site=READ, at_op=point.op)])
        with inject(plan):
            recovered = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert [e.kind for e in plan.events] == [NODE_CRASH], \
            f"crash at {point.path} (op {point.op}) did not fire"
        assert recovered.notes["node_restarts"] >= 1
        assert recovered.degraded is None
        assert _identity(recovered) == _identity(clean), \
            f"crash at {point.path} (op {point.op}) changed the output"
        assert recovered.reduce_report == probe.reduce_report

    @pytest.mark.parametrize("which", ["middle", "last"])
    def test_a_crash_while_closing_duplicates_counts_each_read_once(
            self, resilience_data, clean_run, busiest_reduces, which):
        """A crash part-way through the whole-read length's ``P_L``: the
        replay finds the reads the crashed attempt closed already closed,
        and the report still counts every dropped read once."""
        clean, _ = clean_run
        config, probe, _ = busiest_reduces
        plan = FaultPlan()
        with inject(plan):
            DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        whole = f":reduce[{probe.read_length}]"
        points, inside = [], False
        for point in plan.trace:
            if point.site == NODE:
                inside = point.path.endswith(whole)
            elif point.site == READ and inside:
                points.append(point)
        assert len(points) >= 3 and probe.reduce_report.reads_closed > 0
        point = points[len(points) // 2] if which == "middle" else points[-1]
        crash = FaultPlan([Fault(NODE_CRASH, site=READ, at_op=point.op)])
        with inject(crash):
            recovered = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert [e.kind for e in crash.events] == [NODE_CRASH]
        assert recovered.notes["node_restarts"] >= 1
        assert _identity(recovered) == _identity(clean)
        assert recovered.reduce_report == probe.reduce_report


# -- the failover rung ---------------------------------------------------------

#: Every kind of node operation the clean probe trace records before
#: compress; ``map`` is round 0's, the first operation of each node.
NODE_OP_KINDS = ("map", "pull", "sort", "reduce")


class TestFailoverRung:
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    @pytest.mark.parametrize("kind", NODE_OP_KINDS)
    def test_lost_node_fails_over_byte_identically(
            self, resilience_data, clean_run, kind, which):
        """No restart budget: one crash loses the node, the survivors
        adopt its work and the output does not move a byte."""
        clean, node_ops = clean_run
        points = node_ops[:N_NODES] if kind == "map" else [
            p for p in node_ops
            if p.path.split(":", 1)[1].split("[", 1)[0] == kind]
        if kind == "map":
            assert [p.path for p in points] == [
                f"node{i:02d}:map-round" for i in range(N_NODES)]
        point = {"first": points[0], "middle": points[len(points) // 2],
                 "last": points[-1]}[which]
        config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                node_restarts=0)
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, at_op=point.op)])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert [e.kind for e in plan.events] == [NODE_CRASH], \
            f"crash at {point.path} did not fire"
        assert result.notes["nodes_lost"] == 1
        assert result.lost_nodes == (int(point.path[len("node"):][:2]),)
        assert result.notes["failovers"] >= 1
        assert "node_restarts" not in result.notes
        assert result.degraded is None, f"loss at {point.path} degraded"
        assert _identity(result) == _identity(clean), \
            f"loss at {point.path} changed the output"

    def test_a_lost_master_hands_compress_to_the_next_node(
            self, resilience_data):
        """No restart budget and the master dies in compress: node01
        takes compress over, reads node00's blocks as their new holder,
        and spells the clean run's contigs."""
        config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                node_restarts=0)
        clean = DistributedAssembler(config, 2).assemble(
            resilience_data.store_path)
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE,
                                match="node00:compress")])
        with inject(plan):
            result = DistributedAssembler(config, 2).assemble(
                resilience_data.store_path)
        assert [e.kind for e in plan.events] == [NODE_CRASH]
        assert [t.path for t in plan.trace if t.site == NODE][-2:] == [
            "node00:compress", "node01:compress"]
        assert result.lost_nodes == (0,)
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_lone_node_maps_its_partitions_again_to_rebuild_one(
            self, resilience_data, tmp_path):
        """A lone node's pieces are its partitions, so a rebuild has no
        peer to pull from: the node maps its blocks again, and the rebuilt
        partition is the first one byte for byte (on the cramped budget,
        where the partition is a file)."""
        length = MIN_OVERLAP + 5
        with PackedReadStore.open(resilience_data.store_path) as store:
            supervisor = ClusterSupervisor(
                AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                               memory=CRAMPED), 1, tmp_path,
                ActiveMessageLayer(NetworkSpec()), store)
            supervisor.begin_round(None, [length])
            supervisor.map_phase()
            supervisor.shuffle_phase([length])
            lone = supervisor.nodes[0]
            mapped = [lone.shuffled.path(side, length).read_bytes()
                      for side in ("S", "P")]
            assert not (lone.ctx.workdir / "map_parts").exists()
            for _ in range(2):
                supervisor._rebuild_on(lone, [length])
                assert [lone.shuffled.path(side, length).read_bytes()
                        for side in ("S", "P")] == mapped
            supervisor.nodes[0].drop_pieces()
            supervisor.close()


# -- rebuild from lineage -------------------------------------------------------


@pytest.fixture(scope="module")
def probe_trace(resilience_data):
    """Every instrumented operation of a clean run, in order."""
    plan = FaultPlan()
    with inject(plan):
        DistributedAssembler(AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7),
                             N_NODES).assemble(resilience_data.store_path)
    return plan.trace


@pytest.fixture(scope="module")
def cramped_trace(resilience_data):
    """:func:`probe_trace` on the cramped budget, where pieces and pulled
    partitions are files."""
    plan = FaultPlan()
    with inject(plan):
        DistributedAssembler(AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                            memory=CRAMPED),
                             N_NODES).assemble(resilience_data.store_path)
    return plan.trace


@pytest.fixture()
def piece_maps(monkeypatch):
    """``(holder, producers, lengths)`` of every piece map, in order."""
    calls = []
    map_pieces = WorkerNode.map_pieces

    def spy(self, lineage, lengths, **kwargs):
        calls.append((self.node_id, tuple(sorted(lineage)), tuple(lengths)))
        return map_pieces(self, lineage, lengths, **kwargs)

    monkeypatch.setattr(WorkerNode, "map_pieces", spy)
    return calls


def _again(clean: list, faulted: list) -> list:
    """The piece maps of a faulted run that its clean run did not make."""
    return sorted((Counter(faulted) - Counter(clean)).elements())


def _next_op(trace, after: int, predicate) -> int:
    """The first operation after ``after`` that ``predicate`` accepts."""
    return next(point.op for point in trace
                if point.op > after and predicate(point))


def _lost_until(write: int, crash: int) -> Fault:
    """An ``fsync-loss`` at op ``write`` whose writer dies at op ``crash``."""
    return Fault(FSYNC_LOSS, site=WRITE, at_op=write, delay=crash - write - 1)


class TestReplayFromLineage:
    """Each rung of a restarted node's one rule: a finished piece of work
    whose output no longer has the size its lineage implies is redone, by
    the operation that needs it (the restart itself does no work)."""

    @staticmethod
    def _run(data, faults, **knobs):
        plan = FaultPlan(faults)
        with inject(plan):
            result = DistributedAssembler(
                AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, **knobs),
                N_NODES).assemble(data.store_path)
        return plan, result

    def _clean_maps(self, data, piece_maps, **knobs) -> list:
        self._run(data, [], **knobs)
        calls = list(piece_maps)
        piece_maps.clear()
        return calls

    def test_a_restarted_holder_maps_its_pieces_again(
            self, resilience_data, clean_run, cramped_trace, piece_maps):
        """node00's map piece loses a write and node00 dies at its first
        pull: its pieces of the round died with it, so the restarted node
        maps them again from its recorded blocks and serves those (on the
        cramped budget, where a piece is a file)."""
        clean, _ = clean_run
        clean_maps = self._clean_maps(resilience_data, piece_maps,
                                      memory=CRAMPED)
        write = next(point for point in cramped_trace if point.site == WRITE
                     and "/node00/map_parts/" in point.path)
        pull = _next_op(cramped_trace, write.op,
                        lambda point: point.path == "node00:pull")
        plan, result = self._run(resilience_data, [_lost_until(write.op, pull)],
                                 memory=CRAMPED)
        assert [event.op for event in plan.events] == [write.op, pull]
        assert _again(clean_maps, piece_maps) \
            == [(0, (0,), (clean.read_length,))]
        assert result.notes["node_restarts"] == 1
        assert "partitions_rebuilt" not in result.notes
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_restarted_holder_maps_its_kept_pieces_again(
            self, resilience_data, clean_run, probe_trace, piece_maps):
        """In-core, round 0's pieces stay in host memory and nothing is
        written before the first pull. node00 dies at that pull: its
        kept pieces died with it, and the restarted node maps them again
        from its recorded blocks, into host memory, and serves those."""
        clean, _ = clean_run
        clean_maps = self._clean_maps(resilience_data, piece_maps)
        pull = next(point.op for point in probe_trace
                    if point.path == "node00:pull")
        assert not [point for point in probe_trace
                    if point.site == WRITE and point.op < pull]
        plan, result = self._run(resilience_data,
                                 [Fault(NODE_CRASH, site=NODE, at_op=pull)])
        assert [event.op for event in plan.events] == [pull]
        assert _again(clean_maps, piece_maps) \
            == [(0, (0,), (clean.read_length,))]
        assert result.notes["node_restarts"] == 1
        assert "partitions_rebuilt" not in result.notes
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_restarted_survivor_maps_the_pieces_it_took_again(
            self, resilience_data, clean_run, piece_maps):
        """node02 dies at its round-0 map twice and is lost; a survivor
        takes its id and maps its blocks with its own. On the cramped
        budget a piece of a later round is a file: one of node02's loses a
        write, and the survivor dies at the next node operation. Restarted,
        it maps every piece it holds again when the round's first pull
        needs them."""
        clean, _ = clean_run
        cramped = {"memory": CRAMPED}
        lose = [Fault(NODE_CRASH, site=NODE, match="node02:map-round",
                      once=False)]
        probe, _ = self._run(resilience_data, lose, **cramped)
        write = next(point for point in probe.trace if point.site == WRITE
                     and "/map_parts/peer02/S_" in point.path)
        survivor = int(write.path.split("/map_parts/")[0][-2:])
        crash = _next_op(probe.trace, write.op,
                         lambda point: point.site == NODE)
        piece_maps.clear()
        plan, result = self._run(resilience_data,
                                 lose + [_lost_until(write.op, crash)],
                                 **cramped)
        assert plan.events[-1].op == crash
        held = [call for call in piece_maps
                if call[:2] == (survivor, tuple(sorted((survivor, 2))))]
        assert held[0] == held[1] != held[2]  # round 1 twice, then one a round
        assert result.notes["nodes_lost"] == 1
        assert result.notes["node_restarts"] == 2  # node02 once, survivor once
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_short_pulled_partition_is_pulled_again_in_the_sort(
            self, resilience_data, clean_run, cramped_trace):
        """node00's pulled partition loses a write and node00 dies at its
        sort: the unsorted file is short of what the pull wrote, so it is
        pulled again before the round's lengths are sorted (on the cramped
        budget, where a pulled partition is a file)."""
        clean, _ = clean_run
        write = next(point for point in cramped_trace if point.site == WRITE
                     and "/node00/partitions/" in point.path
                     and ".sorted" not in point.path)
        sort = _next_op(cramped_trace, write.op,
                        lambda point: point.path == "node00:sort")
        plan, result = self._run(resilience_data, [_lost_until(write.op, sort)],
                                 memory=CRAMPED)
        assert [event.op for event in plan.events] == [write.op, sort]
        assert result.notes["node_restarts"] == 1
        assert result.notes["partitions_rebuilt"] == 1
        assert "failovers" not in result.notes
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    @pytest.mark.parametrize("op", ("sort", "reduce"))
    def test_the_whole_read_owner_restarted_before_it_closes(
            self, resilience_data, clean_run, probe_trace, monkeypatch, op):
        """In-core, the owner of ``L`` keeps its pulled ``P_L`` and holds
        its one sorted run for the closing of the duplicates, never
        written. Dead at its sort, it lost the kept partition; dead at the
        closing, it lost the held run. Either way the partition is pulled
        again from the pieces and sorted, and the contigs are the clean
        run's."""
        clean, _ = clean_run
        whole = clean.read_length
        closing = next(point for point in probe_trace if point.site == NODE
                       and point.path.endswith(f":reduce[{whole}]"))
        owner = closing.path.split(":")[0]
        crash = closing.op if op == "reduce" else next(
            point.op for point in probe_trace
            if point.path == f"{owner}:sort")
        # Nothing reaches the disk before the closing.
        assert not [point.path for point in probe_trace
                    if point.site == WRITE and point.op < closing.op]
        held = []
        keep = PartitionStore.keep

        def spying(self, side, length, records, allocation=None):
            held.append((side, length))
            keep(self, side, length, records, allocation)

        monkeypatch.setattr(PartitionStore, "keep", spying)
        plan, result = self._run(resilience_data,
                                 [Fault(NODE_CRASH, site=NODE, at_op=crash)])
        assert [event.op for event in plan.events] == [crash]
        assert ("P", whole) in held
        assert result.notes["node_restarts"] == 1
        assert result.notes["partitions_rebuilt"] == 1
        assert held.count(("P", whole)) == 1 + (op == "reduce")
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_node_that_dies_again_in_the_operation_it_runs_again(
            self, resilience_data, clean_run, probe_trace):
        """node00 dies at its first sort; its replacement does no work
        until the sort runs again, which pulls the lost partition again
        and sorts it. A read inside that sort kills the replacement too:
        the death goes round the same loop, the node restarts again and
        the sort runs once more."""
        clean, _ = clean_run
        sort = next(point.op for point in probe_trace
                    if point.path == "node00:sort")
        first = [Fault(NODE_CRASH, site=NODE, at_op=sort)]
        probe, _ = self._run(resilience_data, first, node_restarts=2)
        again = _next_op(probe.trace, sort,
                         lambda point: point.site == NODE)
        assert [point.path for point in probe.trace
                if point.op == again] == ["node00:sort"]
        read = _next_op(probe.trace, again, lambda point: point.site == READ)
        assert read < _next_op(probe.trace, again,
                               lambda point: point.site == NODE), \
            "the read is not inside the sort run again"
        plan, result = self._run(
            resilience_data, first + [Fault(CRASH, site=READ, at_op=read)],
            node_restarts=2)
        assert [event.kind for event in plan.events] == [NODE_CRASH, CRASH]
        assert result.notes["node_restarts"] == 2
        assert "nodes_lost" not in result.notes
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    def test_a_restarted_owner_of_two_lengths_rebuilds_each_at_its_hop(
            self, resilience_data, clean_run, monkeypatch):
        """node02 is lost at round 0's map, so in round 1 one survivor owns
        two of the round's three lengths and holds both lengths' sorted
        runs. It dies at the first one's reduce: restarted, it rebuilds
        that length in the attempt that runs again, and the other one only
        when the token reaches it, after the first length's hop."""
        clean, _ = clean_run
        lose = [Fault(NODE_CRASH, site=NODE, match="node02:map-round",
                      once=False)]
        _, probe = self._run(resilience_data, lose)
        hops = [(hop["length"], hop["node"]) for hop in probe.token_trace
                if hop["ok"]][1:1 + N_NODES]  # round 1
        (survivor,) = [node for node in (0, 1)
                       if sum(owner == node for _, owner in hops) == 2]
        first, second = [length for length, owner in hops
                         if owner == survivor]
        events = []
        rebuild_on = ClusterSupervisor._rebuild_on
        reduce_partition = ClusterSupervisor.reduce_partition

        def rebuilding(self, node, lengths):
            events.append(("rebuild", node.node_id, tuple(lengths)))
            return rebuild_on(self, node, lengths)

        def reducing(self, length, attempt_fn):
            outcome = reduce_partition(self, length, attempt_fn)
            events.append(("hop", outcome.node, length))
            return outcome

        monkeypatch.setattr(ClusterSupervisor, "_rebuild_on", rebuilding)
        monkeypatch.setattr(ClusterSupervisor, "reduce_partition", reducing)
        plan, result = self._run(resilience_data, lose + [Fault(
            NODE_CRASH, site=NODE,
            match=f"node{survivor:02d}:reduce[[]{first}]")])
        assert plan.events[-1].path == f"node{survivor:02d}:reduce[{first}]"
        assert result.notes["nodes_lost"] == 1
        assert result.notes["node_restarts"] == 2  # node02, the survivor
        assert result.notes["partitions_rebuilt"] == 2
        rebuilt = [("rebuild", survivor, (first,)), ("hop", survivor, first),
                   ("hop", 1 - survivor, hops[1][0]),
                   ("rebuild", survivor, (second,)), ("hop", survivor, second)]
        start = events.index(rebuilt[0])
        assert events[start:start + len(rebuilt)] == rebuilt
        assert result.degraded is None
        assert _identity(result) == _identity(clean)

    @pytest.mark.parametrize("damaged", (False, True), ids=("intact", "short"))
    def test_a_lone_node_restarted_after_its_pull(self, resilience_data,
                                                  tmp_path, damaged):
        """A lone node's pieces are its partitions, and its pull moves
        nothing. Restarted before its sort, it finds an intact partition
        as its map left it; one short of a record it maps again from its
        recorded blocks, and pulls nothing (on the cramped budget, where
        the partition is a file)."""
        length = MIN_OVERLAP + 5
        config = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                memory=CRAMPED)
        sorted_runs = []
        with PackedReadStore.open(resilience_data.store_path) as store:
            for run in ("clean", "restarted"):
                supervisor = ClusterSupervisor(
                    config, 1, tmp_path / run,
                    ActiveMessageLayer(NetworkSpec()), store)
                supervisor.begin_round(None, [length])
                supervisor.map_phase()
                supervisor.shuffle_phase([length])
                plan = FaultPlan()
                if run == "restarted":
                    plan = FaultPlan([Fault(NODE_CRASH, site=NODE,
                                            match="node00:sort")])
                    if damaged:
                        lone = supervisor.nodes[0]
                        path = lone.shuffled.path("S", length)
                        path.write_bytes(
                            path.read_bytes()[:-lone.dtype.itemsize])
                with inject(plan):
                    supervisor.sort_phase()
                lone = supervisor.nodes[0]
                runs = []
                for side in SIDES:
                    # Held in host memory, or off the disk.
                    with lone.shuffled.open_run(side, length,
                                                sorted_run=True) as run:
                        runs.append(run.read_all().tobytes())
                sorted_runs.append(runs)
                supervisor.nodes[0].drop_pieces()
                supervisor.close()
        counters = supervisor.meter.counters()
        assert counters["node_restarts"] == 1
        assert counters.get("partitions_rebuilt", 0) == int(damaged)
        assert sorted_runs[1] == sorted_runs[0]


def test_a_clean_run_keeps_no_node_ledger(resilience_data, config, tmp_path):
    DistributedAssembler(config, N_NODES).assemble(resilience_data.store_path,
                                                   workdir=tmp_path)
    assert len(list(tmp_path.glob("node*/partitions"))) == N_NODES
    assert not list(tmp_path.rglob("state.json"))


# -- tracing -------------------------------------------------------------------


class TestTracedResilience:
    def test_chaos_run_trace_is_balanced_and_counted(self, resilience_data,
                                                     tmp_path):
        trace_dir = tmp_path / "trace"
        traced = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                trace=str(trace_dir))
        # A peer that dies mid-fetch in the shuffle (node01) plus a node
        # crash at the first reduce boundary (node00, the owner of the
        # whole-read length): a restart each, and the operation runs again.
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="*:reduce[[]*"),
                          Fault(NODE_CRASH, site=MESSAGE,
                                match="*->node01:fetch_partition")])
        with inject(plan):
            result = DistributedAssembler(traced, N_NODES).assemble(
                resilience_data.store_path)
        events = load_events(trace_dir / EVENTS_FILE)
        check_balanced(events)
        # Every rung left on the timeline what its meter counted.
        traced = spans_by_name(events)
        restarts = [span for span in traced["failover"]
                    if span["args"]["action"] == "restart"]
        assert len(restarts) == result.notes["node_restarts"] >= 1
        assert len(traced["heartbeat-miss"]) \
            == result.notes["heartbeat_misses"] >= 1
        assert len(traced["token-retry"]) >= 1
        assert not traced["node-lost"] and not traced["partition-dropped"]
        assert "nodes_lost" not in result.notes
        assert "partitions_dropped" not in result.notes

    def test_clean_run_emits_no_resilience_events(self, resilience_data,
                                                  tmp_path):
        trace_dir = tmp_path / "trace"
        traced = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                trace=str(trace_dir))
        DistributedAssembler(traced, 2).assemble(resilience_data.store_path)
        traced = spans_by_name(load_events(trace_dir / EVENTS_FILE))
        assert not any(span["cat"] == "resilience"
                       for spans in traced.values() for span in spans)
        assert not traced["token-retry"]
