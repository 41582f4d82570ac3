"""The service failure ladder: retries, deadlines, cancel, failover, drain.

Every scenario here is deterministic on the simulated clock: the chaos
sweep injects crashes and ENOSPC *inside job bodies* at seeded operation
indices, and the same seed must reproduce the same statuses, errors and
counters run after run — with retried jobs converging to byte-identical
contigs via the checkpoint ledger.
"""

from __future__ import annotations

import random

import pytest

from repro.config import AssemblyConfig, MemoryConfig, ServiceConfig
from repro.faults import ENOSPC, WRITE, Fault, FaultPlan, inject, scan_residue
from repro.faults.retry import RetryPolicy
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.service import AssemblyService, JobSpec
from repro.trace import NullTracer, SpanTracer, pair_spans

from .conftest import spans_by_name

#: Seeds the chaos sweep runs; each draws its own crash/ENOSPC op index.
CHAOS_SEEDS = [11, 23, 47]

MIN_OVERLAP = 20


def _write_reads(path, seed, *, genome_length=400):
    genome = simulate_genome(genome_length, seed=seed)
    ReadSimulator(genome, 36, 6.0, seed=seed).to_fastq(path)
    return path


def _job_config(host=32 << 20, device=4 << 20):
    return AssemblyConfig(min_overlap=MIN_OVERLAP,
                          memory=MemoryConfig(host, device, name="svc-chaos"))


def _degenerate(tmp_path):
    """A readable FASTQ whose assembly always fails (the poison input)."""
    path = tmp_path / "poison.fastq"
    path.write_bytes(b"@r\nACGT\n+\nIIII\n")
    return path


@pytest.fixture()
def sources(tmp_path):
    return [_write_reads(tmp_path / f"reads{i}.fastq", seed=300 + i)
            for i in range(3)]


def _service(tmp_path, name="svc", *, tracer=None, **overrides):
    defaults = dict(workdir=str(tmp_path / name),
                    host_budget_bytes=256 << 20,
                    device_budget_bytes=32 << 20)
    defaults.update(overrides)
    return AssemblyService(ServiceConfig(**defaults), tracer=tracer)


class _Trigger(NullTracer):
    """A tracer that fires a service action at a chosen instant marker.

    The scheduler's ``job-start``/``job-done`` instants are emitted at
    deterministic points of the (serial) run, so triggering off them makes
    mid-flight cancellation and drain exactly reproducible.
    """

    def __init__(self, marker, job=None, action=None):
        self._marker = marker
        self._job = job
        self.action = action
        self.fired = False

    def instant(self, name, **kwargs):
        if (not self.fired and name == self._marker
                and (self._job is None or kwargs.get("job") == self._job)):
            self.fired = True
            self.action()


def _statuses(report):
    return [(o.spec.job_id, o.status, o.error) for o in report.outcomes]


def _goldens(report):
    return {o.spec.job_id: o.contig_bytes() for o in report.outcomes}


# -- the tentpole: seeded chaos sweep with bounded retry -----------------------


def _probe_ops(tmp_path, sources):
    """Trace of every instrumented op in the whole clean service run."""
    plan = FaultPlan()
    service = _service(tmp_path, "probe")
    config = _job_config()
    specs = [JobSpec(f"job{i}", f"t{i % 2}", src, config)
             for i, src in enumerate(sources)]
    with inject(plan):
        report = service.run_jobs(specs)
    assert report.n_done == len(specs)
    return plan.trace, _goldens(report)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("kind", ["crash", "enospc"])
def test_chaos_sweep_retries_to_byte_identical_results(
        tmp_path, sources, seed, kind):
    """A fault inside a job body is retried and converges byte-for-byte."""
    trace, goldens = _probe_ops(tmp_path, sources)
    assert len(trace) > 25
    # An ENOSPC only fires on write hooks; a crash can land on any op.
    candidates = [t.op for t in trace if kind == "crash" or t.site == WRITE]
    op = random.Random(seed).choice(candidates)
    config = _job_config()
    specs = [JobSpec(f"job{i}", f"t{i % 2}", src, config)
             for i, src in enumerate(sources)]

    def faulted_run(name):
        plan = FaultPlan.crash_at(op) if kind == "crash" else FaultPlan(
            [Fault(ENOSPC, site=WRITE, at_op=op)], seed=op)
        service = _service(tmp_path, name, job_max_attempts=3)
        with inject(plan):
            report = service.run_jobs(specs)
        assert plan.events, f"op {op} never fired"
        return report

    report = faulted_run(f"chaos-{kind}-{seed}-a")
    # The fault is once-armed: exactly one attempt dies, its retry resumes
    # from the checkpoint ledger and every job converges to the golden.
    assert report.n_done == len(specs)
    assert report.counters["job_retries"] == 1
    assert report.counters["job_attempts_failed"] == 1
    assert report.counters["retry_backoff_sim_s"] > 0
    assert _goldens(report) == goldens
    retried = [o for o in report.outcomes if o.attempts == 2]
    assert len(retried) == 1 and retried[0].error_chain
    # Same seed, fresh service: byte-identical statuses, errors, counters.
    again = faulted_run(f"chaos-{kind}-{seed}-b")
    assert _statuses(again) == _statuses(report)
    assert again.counters == report.counters
    assert _goldens(again) == goldens


def test_retry_backoff_follows_the_seeded_policy(tmp_path):
    """The metered backoff equals the shared RetryPolicy schedule exactly."""
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=4, job_retry_backoff_s=0.2)
    report = service.run_jobs([JobSpec("p", "t", poison, config)])
    policy = RetryPolicy(max_attempts=4, base_backoff_s=0.2, seed=config.seed)
    expected = sum(policy.backoff_s(attempt, key="p")
                   for attempt in (1, 2, 3))
    assert report.counters["job_retries"] == 3
    assert report.counters["retry_backoff_sim_s"] == pytest.approx(expected)


# -- quarantine ----------------------------------------------------------------


def test_poison_job_quarantines_after_exact_attempts(tmp_path, sources):
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=3)
    report = service.run_jobs([JobSpec("p", "t", poison, config),
                               JobSpec("ok", "t", sources[0], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["p"].status == "quarantined"
    assert outcomes["p"].attempts == 3
    assert len(outcomes["p"].error_chain) == 3
    assert outcomes["p"].error == outcomes["p"].error_chain[-1]
    assert outcomes["ok"].ok  # unrelated work completes
    assert report.counters["job_retries"] == 2
    assert report.counters["jobs_quarantined"] == 1
    assert report.n_quarantined == 1 and report.n_failed == 1
    (entry,) = report.quarantine
    assert entry.job_id == "p" and entry.attempts == 3
    assert len(entry.error_chain) == 3


def test_quarantined_content_never_repoisons_the_queue(tmp_path):
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=2)
    first = service.run_jobs([JobSpec("p", "t", poison, config)])
    assert first.n_quarantined == 1
    runs_before = service.meter.counters()["pipeline_runs"]
    # Same content, new job id, later run of the same service: fails fast.
    second = service.run_jobs([JobSpec("p2", "t", poison, config)])
    (outcome,) = second.outcomes
    assert outcome.status == "failed" and not outcome.executed
    assert "quarantined" in outcome.error and "p" in outcome.error
    assert service.meter.counters()["pipeline_runs"] == runs_before
    assert service.meter.counters()["quarantine_hits"] == 1
    assert second.quarantine == ()  # nothing new was quarantined


# -- deadlines and cancellation ------------------------------------------------


def test_deadline_times_out_at_a_phase_boundary(tmp_path, sources):
    config = _job_config()
    service = _service(tmp_path)
    report = service.run_jobs(
        [JobSpec("slow", "t", sources[0], config, deadline_s=1e-12),
         JobSpec("fine", "t", sources[1], config, deadline_s=1e6)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["slow"].status == "timed_out"
    assert "phase boundary" in outcomes["slow"].error
    assert outcomes["fine"].ok
    assert report.counters["jobs_timed_out"] == 1
    # Timeouts are not failures and are never retried.
    assert report.n_timed_out == 1 and report.n_failed == 0
    assert "job_retries" not in report.counters
    # Deterministic: the same seed stops at the same boundary.
    again = _service(tmp_path, "svc2").run_jobs(
        [JobSpec("slow", "t", sources[0], config, deadline_s=1e-12)])
    assert again.outcomes[0].error == outcomes["slow"].error


def test_cancel_drops_queued_job_before_execution(tmp_path, sources):
    config = _job_config()
    service = _service(tmp_path)
    service.cancel("victim")
    report = service.run_jobs([JobSpec("victim", "t", sources[0], config),
                               JobSpec("other", "t", sources[1], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["victim"].status == "cancelled"
    assert not outcomes["victim"].executed
    assert outcomes["other"].ok
    assert report.counters["jobs_cancelled"] == 1
    assert report.n_cancelled == 1 and report.n_failed == 0
    assert "pipeline_runs" not in report.counters or \
        report.counters["pipeline_runs"] == 1


def test_cancel_mid_flight_stops_at_next_boundary(tmp_path, sources):
    config = _job_config()
    trigger = _Trigger("job-start", job="victim")
    service = _service(tmp_path, tracer=trigger)
    trigger.action = lambda: service.cancel("victim")
    report = service.run_jobs([JobSpec("victim", "t", sources[0], config),
                               JobSpec("other", "t", sources[1], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert trigger.fired
    assert outcomes["victim"].status == "cancelled"
    assert outcomes["victim"].executed  # it was running when cancelled
    assert "phase boundary" in outcomes["victim"].error
    assert outcomes["other"].ok


# -- single-flight leader failover ---------------------------------------------


def test_cancelled_leader_promotes_oldest_follower(tmp_path, sources):
    config = _job_config()
    trigger = _Trigger("job-start", job="a")
    service = _service(tmp_path, tracer=trigger)
    trigger.action = lambda: service.cancel("a")
    report = service.run_jobs([JobSpec("a", "t", sources[0], config),
                               JobSpec("b", "t", sources[0], config),
                               JobSpec("c", "t", sources[0], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["a"].status == "cancelled"
    assert outcomes["b"].ok and outcomes["b"].promoted_from == "a"
    assert outcomes["b"].executed and outcomes["b"].joined is None
    # The remaining follower joins the *promoted* leader's result.
    assert outcomes["c"].ok and outcomes["c"].joined == "b"
    assert report.counters["leader_promoted"] == 1


def test_timed_out_leader_promotes_follower_with_roomier_deadline(
        tmp_path, sources):
    config = _job_config()
    service = _service(tmp_path)
    report = service.run_jobs(
        [JobSpec("a", "t", sources[0], config, deadline_s=1e-12),
         JobSpec("b", "t", sources[0], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["a"].status == "timed_out"
    assert outcomes["b"].ok and outcomes["b"].promoted_from == "a"


def test_followers_of_unpromotable_leader_carry_their_own_error(
        tmp_path, sources):
    """Admission-rejected leaders do not promote; followers get named errors."""
    service = _service(tmp_path, host_budget_bytes=16 << 20,
                       device_budget_bytes=2 << 20)
    hungry = _job_config(64 << 20, 8 << 20)
    report = service.run_jobs([JobSpec("a", "t", sources[0], hungry),
                               JobSpec("b", "t", sources[0], hungry)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["a"].status == "failed"
    assert outcomes["b"].status == "failed" and outcomes["b"].joined == "a"
    assert "leader a" in outcomes["b"].error
    assert outcomes["b"].error != outcomes["a"].error
    assert "leader_promoted" not in report.counters


# -- drain and load shedding ---------------------------------------------------


def test_drain_finishes_inflight_and_sheds_queued(tmp_path, sources):
    config = _job_config()
    trigger = _Trigger("job-done")
    service = _service(tmp_path, tracer=trigger)
    trigger.action = service.drain
    specs = [JobSpec(f"job{i}", "t", src, config)
             for i, src in enumerate(sources)]
    report = service.run_jobs(specs)
    assert report.drained
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["job0"].ok  # in-flight when drain hit: ran to completion
    for job_id in ("job1", "job2"):
        assert outcomes[job_id].status == "shed"
        assert not outcomes[job_id].executed
        assert "drain" in outcomes[job_id].error
    assert report.counters["drain_shed"] == 2
    assert report.n_shed == 2 and report.n_failed == 0
    # Zero residue: only the executed job left a workdir, and it is clean.
    jobs_root = service.config.workdir + "/jobs"
    from pathlib import Path
    dirs = sorted(p.name for p in Path(jobs_root).iterdir())
    assert dirs == ["job0"]
    assert scan_residue(Path(jobs_root)) == []


def test_drain_before_run_sheds_everything(tmp_path, sources):
    config = _job_config()
    service = _service(tmp_path)
    service.drain()
    report = service.run_jobs([JobSpec("a", "t", sources[0], config)])
    assert report.drained
    assert report.outcomes[0].status == "shed"
    assert "pipeline_runs" not in report.counters


def test_max_queued_sheds_lowest_weight_newest_first(tmp_path, sources):
    sources.append(_write_reads(tmp_path / "reads3.fastq", seed=303))
    config = _job_config()
    service = _service(tmp_path, max_queued=2,
                       tenant_weights={"vip": 4.0})
    specs = [JobSpec("v0", "vip", sources[0], config),
             JobSpec("v1", "vip", sources[1], config),
             JobSpec("l0", "low", sources[2], config),
             JobSpec("l1", "low", sources[3], config)]
    report = service.run_jobs(specs)
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["v0"].ok and outcomes["v1"].ok
    for job_id in ("l0", "l1"):
        assert outcomes[job_id].status == "shed"
        assert "admission_shed" in outcomes[job_id].error
    assert report.counters["admission_shed"] == 2
    assert report.tenants["low"].shed == 2


def test_parallel_mode_retries_and_quarantines(tmp_path, sources):
    """The ladder holds when jobs run on worker threads.

    Settlement (retry re-queueing, quarantine, promotion) happens on the
    loop thread after each worker job, and the scheduler parks on its
    release event until retried work re-enters the queue — this exercises
    that wake-up path, which serial mode never takes.
    """
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, max_parallel=3, job_max_attempts=2)
    specs = [JobSpec("p", "t", poison, config)] + [
        JobSpec(f"job{i}", "t", src, config)
        for i, src in enumerate(sources)]
    report = service.run_jobs(specs)
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["p"].status == "quarantined"
    assert outcomes["p"].attempts == 2
    assert all(outcomes[f"job{i}"].ok for i in range(len(sources)))
    assert report.counters["job_retries"] == 1
    assert report.counters["jobs_quarantined"] == 1


# -- instrumentation and accounting --------------------------------------------


def test_service_resilience_events_rolls_up_the_ladder(tmp_path, sources):
    poison = _degenerate(tmp_path)
    config = _job_config()
    tracer = SpanTracer()
    service = _service(tmp_path, job_max_attempts=2, max_queued=2,
                       tracer=tracer)
    service.cancel("gone")
    report = service.run_jobs([JobSpec("p", "t", poison, config),
                               JobSpec("gone", "t", sources[0], config),
                               JobSpec("ok", "t", sources[1], config)])
    # Every rung left on the service track what the meter counted.
    traced = spans_by_name(tracer.events)
    counters = report.counters
    assert len(traced["job-retry"]) == counters["job_retries"] == 1
    assert len(traced["quarantined"]) == counters["jobs_quarantined"] == 1
    assert len(traced["job-cancelled"]) == counters["jobs_cancelled"] == 1
    assert sum(span["args"]["backoff_s"] for span in traced["job-retry"]) \
        == pytest.approx(counters["retry_backoff_sim_s"])
    assert not any(traced[name] for name in (
        "shed", "leader-promoted", "job-timed-out", "quarantine-hit"))
    assert counters.keys().isdisjoint({
        "admission_shed", "drain_shed", "leader_promoted", "jobs_timed_out",
        "quarantine_hits"})
    assert all(span["track"] == "service"
               for name in ("job-retry", "quarantined", "job-cancelled")
               for span in traced[name])


def test_clean_run_emits_no_ladder_events(tmp_path, sources):
    tracer = SpanTracer()
    service = _service(tmp_path, tracer=tracer)
    config = _job_config()
    report = service.run_jobs([JobSpec("a", "t", sources[0], config)])
    assert report.n_done == 1
    assert {span["name"] for span in pair_spans(tracer.events)[0]
            if span["track"] == "service"} == {"job-start", "job-done"}


def test_report_summary_and_accounting_split_outcome_classes(tmp_path, sources):
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=2)
    service.cancel("gone")
    report = service.run_jobs(
        [JobSpec("p", "t", poison, config),
         JobSpec("gone", "t", sources[0], config),
         JobSpec("late", "t", sources[1], config, deadline_s=1e-12),
         JobSpec("ok", "t", sources[2], config)])
    assert (report.n_done, report.n_failed, report.n_quarantined,
            report.n_cancelled, report.n_timed_out, report.n_shed) \
        == (1, 1, 1, 1, 1, 0)
    tenant = report.tenants["t"]
    assert (tenant.jobs, tenant.quarantined, tenant.cancelled,
            tenant.timed_out, tenant.shed) == (4, 1, 1, 1, 0)
    text = report.summary()
    assert "1 cancelled" in text and "1 timed out" in text
    assert "quarantined p" in text
    assert "retries" in text
