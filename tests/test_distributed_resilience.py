"""Distributed resilience: retry policy, heartbeats, recovery, degraded mode.

The property at the center: a seeded node-crash run that fully recovers is
*byte-identical* to the clean run — same contigs, same offsets, same edge
set — because restarts replay ledger-damaged partitions from retained
lineage in their original byte order. Degraded runs (recovery exhausted)
complete on the survivors and report the drop instead of raising.
"""

from __future__ import annotations

import pytest

from repro.config import AssemblyConfig
from repro.device import SimClock
from repro.distributed import (ActiveMessageLayer, ClusterSupervisor,
                               DistributedAssembler, NetworkSpec, node_scope)
from repro.errors import (ConfigError, FaultInjected, MessageDropped,
                          RetryExhausted)
from repro.faults import (MESSAGE, MSG_DELAY, MSG_DROP, NODE, NODE_CRASH,
                          READ, Fault, FaultPlan, RetryPolicy, inject)
from repro.faults.plan import DEFAULT_MSG_DELAY_S
from repro.seq.datasets import tiny_dataset
from repro.seq.packing import PackedReadStore
from repro.trace import EVENTS_FILE, check_balanced, load_events

from .conftest import spans_by_name

MIN_OVERLAP = 24
N_NODES = 3


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


# -- RetryPolicy ---------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_a_pure_function_of_seed_key_attempt(self):
        policy = RetryPolicy(seed=3)
        assert policy.backoff_s(1, key="op") == policy.backoff_s(1, key="op")
        assert policy.backoff_s(1, key="op") != policy.backoff_s(2, key="op")
        assert policy.backoff_s(1, key="op") != policy.backoff_s(1, key="other")
        assert RetryPolicy(seed=4).backoff_s(1, key="op") \
            != policy.backoff_s(1, key="op")

    def test_backoff_grows_within_jitter_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_backoff_s=1.0,
                             backoff_multiplier=2.0, max_backoff_s=5.0,
                             jitter_fraction=0.1)
        for attempt in range(1, 8):
            raw = 1.0 * 2.0 ** (attempt - 1)
            delay = policy.backoff_s(attempt)
            assert delay <= 5.0
            if raw * 0.9 <= 5.0:
                assert 0.9 * raw <= delay <= min(1.1 * raw, 5.0)

    def test_delays_one_per_allowed_retry(self):
        def doomed(attempt: int):
            raise ValueError("persistent")

        for max_attempts, retries in ((4, 3), (1, 0)):
            backoffs = []
            with pytest.raises(RetryExhausted):
                RetryPolicy(max_attempts=max_attempts).run(
                    doomed, key="k",
                    on_backoff=lambda a, d, e: backoffs.append(a))
            assert backoffs == list(range(1, retries + 1))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_fraction=1.0)

    def test_run_retries_until_success(self):
        policy = RetryPolicy(max_attempts=3, seed=11)
        calls, backoffs = [], []

        def flaky(attempt: int) -> str:
            calls.append(attempt)
            if attempt < 2:
                raise ValueError("transient")
            return "done"

        result = policy.run(flaky, key="flaky",
                            on_backoff=lambda a, d, e: backoffs.append((a, d)))
        assert result == "done"
        assert calls == [0, 1, 2]
        assert backoffs == [(k, policy.backoff_s(k, "flaky")) for k in (1, 2)]

    def test_run_exhaustion_is_typed(self):
        policy = RetryPolicy(max_attempts=2, seed=11)
        calls = []

        def doomed(attempt: int):
            calls.append(attempt)
            raise ValueError("persistent")

        with pytest.raises(RetryExhausted, match="doomed.*2 attempts"):
            policy.run(doomed, key="doomed", retry_on=(ValueError,))
        assert calls == [0, 1]


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
            assert not plan.crashed

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

    def test_msg_drop_charges_sender_and_is_retryable(self):
        layer, clocks = self._layer()
        plan = FaultPlan([Fault(MSG_DROP, site=MESSAGE, match="*echo")])
        with inject(plan):
            with pytest.raises(MessageDropped):
                layer.request(0, 1, "echo", 7)
            assert layer.messages_dropped == 1
            assert clocks[0].seconds("network") > 0  # the attempt was paid for
            assert layer.request(0, 1, "echo", 7) == 7  # once-fault disarmed

    def test_msg_delay_adds_latency(self):
        layer, clocks = self._layer()
        plan = FaultPlan([Fault(MSG_DELAY, site=MESSAGE, seconds=0.5)])
        with inject(plan):
            baseline = clocks[0].seconds("network")
            assert layer.request(0, 1, "echo", 7) == 7
        assert layer.messages_delayed == 1
        assert clocks[0].seconds("network") - baseline >= 0.5

    def test_msg_delay_zero_means_default(self):
        layer, clocks = self._layer()
        plan = FaultPlan([Fault(MSG_DELAY, site=MESSAGE)])
        with inject(plan):
            layer.request(0, 1, "echo", 7)
        assert clocks[0].seconds("network") >= DEFAULT_MSG_DELAY_S

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

    def test_shuffle_msg_drop_retry_is_byte_identical(self, resilience_data,
                                                      config, clean_run):
        clean, _ = clean_run
        plan = FaultPlan([Fault(MSG_DROP, site=MESSAGE,
                                match="*fetch_partition")])
        with inject(plan):
            result = DistributedAssembler(config, N_NODES).assemble(
                resilience_data.store_path)
        assert result.notes["am_dropped"] == 1
        assert result.notes["retries"] >= 1
        assert result.notes["backoffs"] >= 1
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
        for knob in ("retries", "backoffs", "node_restarts", "failovers"):
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

    def test_strict_mode_covered_elsewhere(self):
        # allow_degraded=False → DistributedProtocolError("token lost") is
        # exercised in tests/test_chaos_recovery.py::TestDistributedToken.
        assert AssemblyConfig(allow_degraded=False).allow_degraded is False

    def test_resilience_knob_validation(self):
        with pytest.raises(ConfigError):
            AssemblyConfig(heartbeat_interval=0.0)
        with pytest.raises(ConfigError):
            AssemblyConfig(heartbeat_interval=2.0, node_timeout=1.0)
        with pytest.raises(ConfigError):
            AssemblyConfig(reduce_max_attempts=0)
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


# -- the failover rung ---------------------------------------------------------

#: Every kind of node operation the clean probe trace records.
NODE_OP_KINDS = ("map", "seal-map", "pull", "ledger-shuffle", "sort",
                 "ledger-sort", "reduce")


class TestFailoverRung:
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    @pytest.mark.parametrize("kind", NODE_OP_KINDS)
    def test_lost_node_fails_over_byte_identically(
            self, resilience_data, clean_run, kind, which):
        """No restart budget: one crash loses the node, the survivors
        adopt its work and the output does not move a byte."""
        clean, node_ops = clean_run
        points = [p for p in node_ops
                  if p.path.split(":", 1)[1].split("[", 1)[0] == kind]
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
        assert result.notes["failovers"] >= 1
        assert "node_restarts" not in result.notes
        assert result.degraded is None, f"loss at {point.path} degraded"
        assert _identity(result) == _identity(clean), \
            f"loss at {point.path} changed the output"

    def test_a_lone_node_adopts_itself_to_rebuild_a_renamed_partition(
            self, resilience_data, tmp_path):
        """A lone node's pull renames its pieces into place, so a rebuild
        finds none left: the node maps its own blocks again, once, and the
        rebuilt partition is the renamed one byte for byte."""
        length = MIN_OVERLAP + 5
        network = NetworkSpec()
        with PackedReadStore.open(resilience_data.store_path) as store:
            supervisor = ClusterSupervisor(
                AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7), 1, tmp_path,
                network, ActiveMessageLayer(network), store)
            supervisor.map_phase(4)
            supervisor.begin_round(None)
            supervisor.shuffle_phase([length])
            lone = supervisor.nodes[0]
            renamed = [lone.shuffled.path(side, length).read_bytes()
                       for side in ("S", "P")]
            assert not lone.map_partitions.path("S", length).exists()
            for _ in range(2):
                supervisor._rebuild_on(lone, [length])
                assert list(lone.adopted) == [0]
                assert [lone.shuffled.path(side, length).read_bytes()
                        for side in ("S", "P")] == renamed
            lone.drop_map_partitions()


# -- tracing -------------------------------------------------------------------


class TestTracedResilience:
    def test_chaos_run_trace_is_balanced_and_counted(self, resilience_data,
                                                     tmp_path):
        trace_dir = tmp_path / "trace"
        traced = AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7,
                                trace=str(trace_dir))
        # A drop in the shuffle (retried in place, with backoff) plus a node
        # crash at the first reduce boundary (restart + replay).
        plan = FaultPlan([Fault(NODE_CRASH, site=NODE, match="*:reduce[[]*"),
                          Fault(MSG_DROP, site=MESSAGE,
                                match="*fetch_partition")])
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
        assert len(traced["backoff"]) == result.notes["backoffs"] >= 1
        assert sum(span["sim1"] - span["sim0"] for span in traced["backoff"]) \
            == pytest.approx(result.notes["backoff_s"])
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
