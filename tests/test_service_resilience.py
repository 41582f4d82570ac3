"""The service failure ladder: retries, deadlines, cancel, failover, shedding.

Every scenario here is deterministic on the simulated clock. The chaos
sweep (:mod:`repro.faults.sweep`) injects one fault at one cell of a clean
service run's probe: every operation of its job bodies, with each kind
its site takes. A fault that kills an attempt is retried once, which
resumes from the checkpoint ledger; every cell must end with every job's
byte-identical contigs, and the same cell must reproduce the same
statuses, errors and counters run after run. A cell that leaves a job
failed for good is counted apart, and fails. The cells are the probe's,
taken when the module is collected. Tier-1 runs a fixed seeded sample;
``REPRO_SWEEP=full`` runs every cell.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import AssemblyConfig, MemoryConfig, ServiceConfig
from repro.faults import FSYNC_LOSS, run_cell
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.service import AssemblyService, JobSpec
from repro.trace import NullTracer, SpanTracer, pair_spans

from .conftest import (SWEEP_OUTCOMES, Probe, cell_id, named_error,
                       probe_root, spans_by_name, swept)

MIN_OVERLAP = 20
#: The tier-1 sample's share of the chaos sweep's cells.
FRACTION = 1 / 50


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
    mid-flight cancellation exactly reproducible.
    """

    def __init__(self, marker, job):
        self._marker = marker
        self._job = job
        self.action = None
        self.fired = False

    def instant(self, name, **kwargs):
        if (not self.fired and name == self._marker
                and kwargs.get("job") == self._job):
            self.fired = True
            self.action()


def _statuses(report):
    return [(o.spec.job_id, o.status, o.error) for o in report.outcomes]


def _goldens(report):
    return {o.spec.job_id: o.contig_bytes() for o in report.outcomes}


# -- the chaos sweep: a fault at every cell of the job bodies -------------------


def _chaos_specs(root):
    config = _job_config()
    return [JobSpec(f"job{i}", f"t{i % 2}",
                    _write_reads(root / f"reads{i}.fastq", seed=300 + i),
                    config)
            for i in range(3)]


def _chaos_run(workdir):
    """One run of the sweep's three jobs; an attempt a fault killed is
    retried once."""
    return _service(workdir.parent, workdir.name,
                    job_max_attempts=2).run_jobs(CHAOS_SPECS)


CHAOS_ROOT = probe_root("service-chaos-")
CHAOS_SPECS = _chaos_specs(CHAOS_ROOT)
CHAOS_PROBE = Probe(_chaos_run, CHAOS_ROOT / "probe")
CHAOS_SWEPT = swept(CHAOS_PROBE, FRACTION)


@pytest.mark.parametrize("cell", CHAOS_SWEPT,
                         ids=[cell_id(cell) for cell in CHAOS_SWEPT])
def test_chaos_sweep_retries_to_byte_identical_results(tmp_path, cell):
    """A fault inside a job body is retried and converges byte-for-byte."""
    clean = CHAOS_PROBE.clean
    assert clean.n_done == len(CHAOS_SPECS)
    plan, report, error, rerun = run_cell(cell,
                                          lambda: _chaos_run(tmp_path / "a"))
    SWEEP_OUTCOMES[__name__]["rerun"] += rerun
    assert plan.events, f"{cell.key} never fired"
    if error is None:
        # A job that failed for good: what the service made of its error.
        error = [(o.spec.job_id, o.status, o.error)
                 for o in report.outcomes if not o.ok]
    if error:
        named_error(__name__, cell, error)
    assert _goldens(report) == _goldens(clean), cell.key
    # An fsync-loss kills its writer only if the run lasts ``delay`` more
    # operations. A killed attempt is the one retry; its retry resumes
    # from the checkpoint ledger.
    killed = cell.kind != FSYNC_LOSS or len(plan.events) == 2
    counters = report.counters
    assert counters.get("job_retries", 0) == killed, cell.key
    assert counters.get("job_attempts_failed", 0) == killed, cell.key
    retried = [o for o in report.outcomes if o.attempts == 2]
    assert len(retried) == killed, cell.key
    if killed:
        assert retried[0].error_chain
    # The same cell, fresh service: byte-identical statuses, errors, counters.
    _, again, _, _ = run_cell(cell, lambda: _chaos_run(tmp_path / "b"))
    assert _statuses(again) == _statuses(report)
    assert again.counters == report.counters
    assert _goldens(again) == _goldens(clean)
    SWEEP_OUTCOMES[__name__]["clean"] += 1


# -- exhausted attempts --------------------------------------------------------


def test_poison_job_quarantines_after_exact_attempts(tmp_path, sources):
    """A job that exhausts its attempts fails, with one error an attempt."""
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=3)
    report = service.run_jobs([JobSpec("p", "t", poison, config),
                               JobSpec("ok", "t", sources[0], config)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["p"].status == "failed"
    assert outcomes["p"].attempts == 3
    assert len(outcomes["p"].error_chain) == 3
    assert outcomes["p"].error == outcomes["p"].error_chain[-1]
    assert outcomes["ok"].ok  # unrelated work completes
    assert report.counters["job_retries"] == 2
    assert report.counters["job_attempts_failed"] == 3
    assert report.n_failed == 1


def test_a_poison_cohort_shares_one_attempt_budget(tmp_path):
    """Identical poison submissions run the leader's attempts only: its
    followers are not promoted over a failure the content causes."""
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, job_max_attempts=2)
    report = service.run_jobs([JobSpec(f"p{i}", "t", poison, config)
                               for i in range(3)])
    leader, *followers = report.outcomes
    assert report.counters["pipeline_runs"] == 2
    assert leader.status == "failed" and len(leader.error_chain) == 2
    for outcome in followers:
        assert outcome.status == "failed" and not outcome.executed
        assert outcome.joined == "p0" and "leader p0" in outcome.error
    assert "leader_promoted" not in report.counters


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


# -- load shedding -------------------------------------------------------------


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
    """The ladder holds with three jobs running at once.

    Settlement (retry re-queueing, failure, promotion) happens on the
    scheduler thread as each job finishes, and with the queue empty the
    scheduler waits on the running jobs until retried work re-enters it —
    a path one worker never takes.
    """
    poison = _degenerate(tmp_path)
    config = _job_config()
    service = _service(tmp_path, max_parallel=3, job_max_attempts=2)
    specs = [JobSpec("p", "t", poison, config)] + [
        JobSpec(f"job{i}", "t", src, config)
        for i, src in enumerate(sources)]
    report = service.run_jobs(specs)
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["p"].status == "failed"
    assert outcomes["p"].attempts == 2
    assert all(outcomes[f"job{i}"].ok for i in range(len(sources)))
    assert report.counters["job_retries"] == 1
    assert report.n_failed == 1


@pytest.mark.parametrize("max_parallel", [1, 3],
                         ids=["quarantine-1", "quarantine-3"])
def test_run_jobs_leaves_no_thread_behind(tmp_path, sources, max_parallel):
    """Every worker thread a run starts has exited when ``run_jobs`` returns,
    through a job that is retried and then exhausts its attempts."""
    config = _job_config()
    specs = [JobSpec("p", "t", _degenerate(tmp_path), config)] + [
        JobSpec(f"job{i}", "t", src, config) for i, src in enumerate(sources)]
    service = _service(tmp_path, max_parallel=max_parallel,
                       job_max_attempts=2)
    before = set(threading.enumerate())
    report = service.run_jobs(specs)
    assert set(threading.enumerate()) - before == set()
    assert report.n_failed == 1
    assert report.counters["job_retries"] == 1


def test_an_interrupted_run_cancels_its_running_jobs(tmp_path, sources):
    """Ctrl-C (here: raised by the first job to finish) does not wait the
    other running job out: it is cancelled, and its worker joined.

    ``job0`` raises from its ``job-done`` while ``job1`` is held inside its
    ``job-start`` until then, so ``job1`` is running when the interrupt
    reaches the scheduler: jobs that finish together settle in submission
    order, and an interrupt from ``job1`` could come after ``job0`` had
    settled and left nothing running to cancel.
    """
    job0_done = threading.Event()

    class Interleave(NullTracer):
        def instant(self, name, **kwargs):
            if name == "job-start" and kwargs["job"] == "job1":
                assert job0_done.wait(timeout=60), "job0 never finished"
            elif name == "job-done" and kwargs["job"] == "job0":
                job0_done.set()
                raise KeyboardInterrupt

    config = _job_config()
    service = _service(tmp_path, tracer=Interleave(), max_parallel=2)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        service.run_jobs([JobSpec(f"job{i}", "t", src, config)
                          for i, src in enumerate(sources)])
    assert set(threading.enumerate()) - before == set()
    assert service.meter.counters()["cancel_requests"] == 1
    assert service.host_pool.used_bytes == 0  # every grant released


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
    assert len(traced["job-failed"]) == counters["job_attempts_failed"] == 2
    assert len(traced["job-cancelled"]) == counters["jobs_cancelled"] == 1
    assert not any(traced[name] for name in (
        "shed", "leader-promoted", "job-timed-out"))
    assert counters.keys().isdisjoint({
        "admission_shed", "leader_promoted", "jobs_timed_out"})
    assert all(span["track"] == "service"
               for name in ("job-retry", "job-failed", "job-cancelled")
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
    assert (report.n_done, report.n_failed, report.n_cancelled,
            report.n_timed_out, report.n_shed) == (1, 1, 1, 1, 0)
    tenant = report.tenants["t"]
    assert (tenant.jobs, tenant.failed, tenant.cancelled,
            tenant.timed_out, tenant.shed) == (4, 1, 1, 1, 0)
    text = report.summary()
    assert "1 failed" in text
    assert "1 cancelled" in text and "1 timed out" in text
    assert "retries" in text
