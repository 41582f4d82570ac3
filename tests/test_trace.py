"""Span tracer, Perfetto export, analysis, and trace/telemetry agreement."""

import json
import time

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.core.pipeline import Assembler
from repro.distributed.cluster import DistributedAssembler
from repro.errors import TraceError
from repro.seq.datasets import tiny_dataset
from repro.trace import (EVENTS_FILE, MANIFEST_FILE, NULL_TRACER,
                         PERFETTO_FILE, PERFETTO_SIM_FILE, SpanTracer,
                         build_perfetto, check_balanced, load_events,
                         pair_spans, summarize, validate_perfetto)


def _config(trace: str = "") -> AssemblyConfig:
    # Cramped budgets so the external sort forms several runs and actually
    # merges.
    return AssemblyConfig(min_overlap=25,
                          memory=MemoryConfig(64 << 20, 1 << 20),
                          host_block_pairs=500, device_block_pairs=128,
                          trace=trace)


class TestSpanTracer:
    def test_span_records_balanced_pair(self):
        tracer = SpanTracer(sim_time=lambda: 1.5)
        with tracer.span("work", track="t", det=True, n=3):
            pass
        begin, end = tracer.events
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert begin["id"] == end["id"]
        assert begin["track"] == "t" and begin["det"] is True
        assert begin["args"] == {"n": 3}
        assert begin["sim"] == 1.5 and end["sim"] == 1.5
        assert end["wall"] >= begin["wall"]
        assert tracer.open_spans == 0

    def test_span_error_recorded_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("w"):
                raise ValueError("boom")
        end = tracer.events[-1]
        assert end["error"] == "ValueError: boom"

    def test_span_note_lands_on_end_event(self):
        tracer = SpanTracer()
        with tracer.span("w") as span:
            span.note(records=7)
        assert tracer.events[-1]["args"] == {"records": 7}

    def test_phase_tagging(self):
        tracer = SpanTracer()
        tracer.set_phase("sort")
        with tracer.span("inner"):
            pass
        tracer.set_phase("")
        with tracer.span("outer"):
            pass
        assert tracer.events[0]["phase"] == "sort"
        assert tracer.events[2]["phase"] == ""

    def test_complete_reuses_caller_stamps(self):
        tracer = SpanTracer()
        t0 = time.perf_counter()
        t1 = t0 + 0.125
        tracer.complete("task", t0, t1, kind="busy")
        begin, end = tracer.events
        assert end["wall"] - begin["wall"] == pytest.approx(0.125, abs=0.0)

    def test_complete_sim_override(self):
        tracer = SpanTracer(sim_time=lambda: 99.0)
        tracer.complete("token", 0.0, 1.0, sim0=2.0, sim1=3.5)
        begin, end = tracer.events
        assert begin["sim"] == 2.0 and end["sim"] == 3.5

    def test_bound_tracer_prefixes_and_composes(self):
        tracer = SpanTracer()
        node = tracer.bind(lambda: 4.0, prefix="node00/")
        assert type(node) is SpanTracer
        with node.span("e", track="pipeline"):
            pass
        assert tracer.events[0]["track"] == "node00/pipeline"
        assert tracer.events[0]["sim"] == 4.0
        # Re-binding keeps the prefix and lets a new clock take over.
        reclocked = node.bind(lambda: 8.0)
        with reclocked.span("f"):
            pass
        reclocked.instant("i")
        reclocked.complete("c", 0.0, 1.0)
        assert [e["track"] for e in tracer.events[2:]] == ["node00/main"] * 5
        assert {e["sim"] for e in tracer.events[2:]} == {8.0}
        # One log: ids, open spans and the current phase are the root's.
        assert [e["id"] for e in tracer.events if e["ph"] == "B"] == [0, 1, 2]
        handle = node.begin("open")
        assert tracer.open_spans == reclocked.open_spans == 1
        tracer.end(handle)
        assert reclocked.events == tracer.events
        # The parent's own clock and tracks are untouched by its views; a
        # phase set through any of them tags what all of them record.
        reclocked.set_phase("sort")
        tracer.instant("root")
        assert tracer.events[-1]["track"] == "main"
        assert tracer.events[-1]["sim"] == 0.0
        assert tracer.events[-1]["phase"] == "sort"

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("x") == -1
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
        assert NULL_TRACER.bind(lambda: 0.0, prefix="p/") is NULL_TRACER
        assert NULL_TRACER.bind() is NULL_TRACER
        with NULL_TRACER.span("x") as span:
            span.note(ignored=True)

    def test_write_dumps_all_files(self, tmp_path):
        tracer = SpanTracer(meta={"source": "unit"})
        with tracer.span("a", track="t"):
            pass
        tracer.instant("mark", track="t")
        files = tracer.write(tmp_path / "trace")
        for name in (EVENTS_FILE, MANIFEST_FILE, PERFETTO_FILE,
                     PERFETTO_SIM_FILE):
            assert (tmp_path / "trace" / name).exists()
        manifest = json.loads(files["manifest"].read_text())
        assert manifest["meta"] == {"source": "unit"}
        assert manifest["n_spans"] == 1 and manifest["open_spans"] == 0
        assert manifest["tracks"] == ["t"]
        events = load_events(files["events"])
        assert check_balanced(events) == 2  # the span + the instant
        for key in ("perfetto", "perfetto_sim"):
            validate_perfetto(json.loads(files[key].read_text()))


class TestAnalysis:
    def test_unbalanced_log_detected(self):
        tracer = SpanTracer()
        tracer.begin("leaked")
        with pytest.raises(TraceError, match="never ended"):
            check_balanced(tracer.events)

    def test_end_without_begin_raises(self):
        orphan = {"ph": "E", "id": 0, "name": "x", "track": "t",
                  "cat": "span", "det": False, "phase": "",
                  "wall": 0.0, "sim": 0.0}
        with pytest.raises(TraceError, match="without begin"):
            pair_spans([orphan])

    def test_load_events_rejects_malformed_line(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('{"ph": "B"}\nnot json\n')
        with pytest.raises(TraceError, match="malformed"):
            load_events(log)

    def test_build_perfetto_rejects_unknown_clock(self):
        with pytest.raises(TraceError, match="clock"):
            build_perfetto([], clock="tai")

    def test_validate_perfetto_requires_thread_names(self):
        trace = {"traceEvents": [{"ph": "X", "name": "a", "pid": 1,
                                  "tid": 1, "ts": 0.0, "dur": 1.0}]}
        with pytest.raises(TraceError, match="thread_name"):
            validate_perfetto(trace)

    def test_summarize_busy_and_overlap(self):
        tracer = SpanTracer()
        tracer.set_phase("sort")
        tracer.complete("phase-span", 0.0, 1.0, track="pipeline", cat="phase",
                        det=True)
        # Overlapping and nested spans on one track count once.
        tracer.complete("merge-round", 0.0, 0.4, track="sort")
        tracer.complete("merge-group", 0.1, 0.3, track="sort")
        tracer.complete("merge-round", 0.3, 0.6, track="sort")
        summary = summarize(tracer.events)
        assert summary.tracks["sort"].n_spans == 3
        assert summary.tracks["sort"].busy_s == pytest.approx(0.6)
        assert summary.tracks["sort"].busy_fraction == pytest.approx(0.6)


class TestTracedAssembly:
    """End-to-end: a traced run reconciles with its own telemetry, and the
    deterministic export is byte-identical from run to run."""

    def test_reconciles_and_sim_trace_is_run_invariant(self, tmp_path):
        md, _ = tiny_dataset(tmp_path / "data", genome_length=2000,
                             read_length=50, coverage=20.0, min_overlap=25,
                             seed=11)
        sim_bytes = []
        for run in (1, 2):
            trace_dir = tmp_path / f"trace-{run}"
            result = Assembler(_config(str(trace_dir))) \
                .assemble(md.store_path)
            events = load_events(trace_dir / EVENTS_FILE)
            check_balanced(events)
            # Phase spans are stamped with the very clock reads that
            # PhaseStats.wall_seconds is computed from.
            traced: dict[str, float] = {}
            for span in pair_spans(events)[0]:
                if span["cat"] == "phase":
                    traced[span["name"]] = traced.get(span["name"], 0.0) \
                        + (span["wall1"] - span["wall0"])
            assert traced == {stats.name: stats.wall_seconds
                              for stats in result.telemetry}
            validate_perfetto(
                json.loads((trace_dir / PERFETTO_FILE).read_text()))
            sim_bytes.append((trace_dir / PERFETTO_SIM_FILE).read_bytes())
            validate_perfetto(json.loads(sim_bytes[-1]))
        assert sim_bytes[0] == sim_bytes[1], \
            "deterministic sim trace differs between two runs"

    def test_disabled_tracing_records_nothing(self, tmp_path):
        md, _ = tiny_dataset(tmp_path / "data", genome_length=1000,
                             read_length=50, coverage=10.0, min_overlap=25,
                             seed=5)
        result = Assembler(_config()).assemble(md.store_path)
        assert result.telemetry.tracer.enabled is False
        assert not list(tmp_path.glob("**/events.jsonl"))


class TestTracedDistributed:
    def test_cluster_and_token_tracks(self, tmp_path):
        md, _ = tiny_dataset(tmp_path / "data", genome_length=1500,
                             read_length=50, coverage=12.0, min_overlap=25,
                             seed=13)
        trace_dir = tmp_path / "trace-dist"
        result = DistributedAssembler(_config(str(trace_dir)), 2) \
            .assemble(md.store_path)
        events = load_events(trace_dir / EVENTS_FILE)
        check_balanced(events)
        validate_perfetto(json.loads((trace_dir / PERFETTO_FILE).read_text()))
        cluster = {e["name"] for e in events
                   if e["track"] == "cluster" and e["ph"] == "B"}
        assert {"map", "shuffle", "sort", "reduce", "compress"} <= cluster
        tokens = [e for e in events
                  if e["name"] == "token" and e["ph"] == "E"]
        assert len(tokens) == result.reduce_report.partitions_processed
        assert len(tokens) == sum(1 for hop in result.token_trace if hop["ok"])
        node_tracks = {e["track"] for e in events
                       if e["track"].startswith("node")}
        assert any(track.startswith("node00/") for track in node_tracks)
        assert any(track.startswith("node01/") for track in node_tracks)
        # Cluster phase spans: one map / shuffle / sort / reduce per round
        # in that order, a later round's map preceded by the broadcast of
        # its snapshot (booked as shuffle), then compress. Each phase's
        # modeled extents add up to its reported critical-path seconds, so
        # the track still tiles ``total_seconds``.
        spans, _ = pair_spans(events)
        cluster = [s for s in spans if s["track"] == "cluster"
                   and s["cat"] == "cluster"]  # in the order they were emitted
        n_rounds = int(result.notes["rounds"])
        # The whole-read length alone, then 25 overlap lengths two a round.
        assert n_rounds == 14
        assert [s["name"] for s in cluster] == \
            ["map", "shuffle", "sort", "reduce"] \
            + ["shuffle", "map", "shuffle", "sort", "reduce"] * (n_rounds - 1) \
            + ["compress"]
        for earlier, later in zip(cluster, cluster[1:]):
            assert earlier["sim0"] <= later["sim0"] + 1e-9
        for phase in ("map", "sort", "reduce"):
            assert [s["args"]["round"] for s in cluster if s["name"] == phase] \
                == list(range(n_rounds))
        assert [s["args"]["round"] for s in cluster if s["name"] == "shuffle"] \
            == [0] + [index for index in range(1, n_rounds) for _ in (0, 1)]
        extent = {}
        for span in cluster:
            extent[span["name"]] = extent.get(span["name"], 0.0) \
                + span["sim1"] - span["sim0"]
        assert extent == pytest.approx(result.phase_seconds)
        assert sum(extent.values()) == pytest.approx(result.total_seconds)
