"""Multi-tenant assembly service: a job scheduler over the pipeline.

One :class:`AssemblyService` admits many concurrent assembly jobs and
arbitrates the shared (virtual) GPU and host-memory budget between tenants:

* **Weighted fair queuing** — jobs queue per tenant; the scheduler always
  serves the tenant with the smallest ``served_units / weight`` ratio, so
  over any execution prefix a tenant's share of service tracks its
  configured weight (ties break on tenant name: fully deterministic).
* **Admission control** — a job's demand is its config's host/device
  budget; it is admitted only when a :class:`~repro.device.memory.MemoryPool`
  grant for *both* succeeds, so the sum of admitted demands can never
  exceed the service budget. Blocked admissions park the scheduler until a
  running job releases its grant (strict fair order, no bypass — a large
  job cannot be starved by small ones slipping past it).
* **Single-flight dedup** — jobs submitted together whose input content
  *and* semantic configuration are identical execute once; the followers
  join the leader's result (and the content cache serves later
  re-submissions across service runs).

On top of admission sits the **service failure ladder** (the serving-layer
mirror of the cluster's ladder in :mod:`repro.distributed.resilience`),
entirely deterministic on the simulated clock:

1. **Bounded retry** — a failed job re-enters admission (its budget demand
   is re-acquired fairly, never held across the backoff) up to
   ``job_max_attempts`` times; the backoff before attempt *k* comes from
   the same seeded-jitter :class:`repro.faults.RetryPolicy` schedule the
   distributed supervisor uses, keyed by job id and charged to the
   ``retry_backoff_sim_s`` counter.
2. **Deadlines and cancellation** — ``JobSpec.deadline_s`` bounds a job's
   *modeled* seconds and :meth:`AssemblyService.cancel` requests a
   cooperative stop; both are checked at pipeline phase boundaries and
   produce the distinct ``"timed_out"`` / ``"cancelled"`` outcomes (never
   ``"failed"``).
3. **Single-flight leader failover** — when a leader dies (quarantined,
   cancelled or timed out), the oldest follower is promoted and re-runs
   the cohort's work instead of every follower inheriting the failure.
4. **Quarantine** — a job that exhausts its attempts lands in the service's
   quarantine list with its full error chain; submissions with the same
   content identity fail fast (``quarantine_hits``) and never poison the
   queue again.
5. **Drain and load shedding** — :meth:`AssemblyService.drain` stops
   admission (queued jobs are shed, in-flight jobs finish), and a
   ``max_queued`` bound sheds the lowest-weight queued jobs with a typed
   ``admission_shed`` outcome under overload.

The scheduler is one loop on the thread that calls
:meth:`AssemblyService.run_jobs`: it picks, admits and settles every job,
and a pool of ``max_parallel`` worker threads runs the pipelines. It waits
for a free worker before each pick, so ``max_parallel=1`` (the default)
runs one job at a time in strict weighted-fair order — fully
deterministic, the mode the traffic harness asserts against. With more
workers admission and fair ordering still hold, but completion
interleaving is OS-scheduled.
"""

from __future__ import annotations

import ctypes
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ThreadPoolExecutor,
                                wait)
from pathlib import Path

from ..config import ServiceConfig
from ..core.checkpoint import content_digest
from ..core.pipeline import Assembler
from ..device.memory import MemoryPool
from ..errors import (AdmissionError, JobCancelled, JobDeadlineExceeded,
                      ReproError)
from ..faults import plan as faults
from ..faults.retry import RetryPolicy
from ..telemetry import EventMeter
from .content_store import ContentStore, phase_key
from .jobs import JobOutcome, JobSpec, QuarantineEntry, ServiceReport, TenantReport

#: Leader outcomes that promote the oldest follower instead of spreading
#: to the cohort. ``"failed"`` (admission rejection) and ``"shed"`` are
#: excluded: identical content implies an identical demand or an equally
#: draining service, so a promoted re-run could only fail the same way.
_PROMOTE_ON = ("quarantined", "cancelled", "timed_out")

#: glibc ``mallopt`` parameter capping the number of malloc arenas.
_M_ARENA_MAX = -8


def _share_malloc_arena() -> None:
    """Make job threads allocate from the main heap, not one arena each.

    glibc gives every thread its own arena, and a freed phase buffer stays
    resident at the top of the arena that served it (up to twice the
    largest block the process ever freed; ``malloc_trim`` only shrinks the
    main heap). Which worker's arena ends a job holding how much depends
    on how the concurrent pipelines interleaved: after the same six jobs
    the process kept 48 to 59 MB resident, run to run. With one arena the
    workers reuse each other's freed blocks and the resident set after a
    run is the same every time. The interpreter lock already serialises
    nearly every allocation, so the arenas bought no concurrency.
    """
    try:
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    except (AttributeError, OSError):
        pass  # not glibc: the allocator has no per-thread arenas to cap


class JobQueue:
    """Per-tenant FIFO queues with weighted-fair tenant selection.

    ``pick()`` returns the tenant minimizing ``served_units / weight``
    among tenants with pending work (name-ordered tie-break); the caller
    reports what it served via ``charge()``. Weights come from
    :meth:`~repro.config.ServiceConfig.weight`.
    """

    def __init__(self, config: ServiceConfig):
        self._config = config
        self._queues: dict[str, deque[JobSpec]] = {}
        self.served: dict[str, float] = {}

    def push(self, spec: JobSpec) -> None:
        """Append a job to its tenant's queue."""
        self._queues.setdefault(spec.tenant, deque()).append(spec)
        self.served.setdefault(spec.tenant, 0.0)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def pick(self) -> str | None:
        """The tenant to serve next, or ``None`` when all queues are empty."""
        candidates = [t for t, queue in self._queues.items() if queue]
        if not candidates:
            return None
        return min(candidates, key=lambda t: (
            self.served[t] / self._config.weight(t), t))

    def pop(self, tenant: str) -> JobSpec:
        """Pop the tenant's oldest queued job."""
        return self._queues[tenant].popleft()

    def shed_lowest(self) -> JobSpec | None:
        """Pop the shedding victim: the *newest* job of the lowest-weight
        tenant with queued work (weight then name tie-break — deterministic).

        Newest-first keeps the victim the job that has waited least, so
        shedding under overload behaves like a bounded queue refusing new
        arrivals rather than starving old ones.
        """
        candidates = [t for t, queue in self._queues.items() if queue]
        if not candidates:
            return None
        tenant = min(candidates,
                     key=lambda t: (self._config.weight(t), t))
        return self._queues[tenant].pop()

    def charge(self, tenant: str, units: float) -> None:
        """Account ``units`` of service against ``tenant``'s fair share."""
        self.served[tenant] = self.served.get(tenant, 0.0) + units


class AssemblyService:
    """The multi-tenant assembly service (see the module docstring).

    Construct once, then :meth:`run_jobs` a list of :class:`JobSpec`s.
    The content cache (when configured) and the quarantine list persist
    across runs of the same service instance — a warm second run serves
    packed reads and graphs from the cache and refuses known-poison content.
    """

    def __init__(self, config: ServiceConfig | None = None, *, tracer=None):
        self.config = config if config is not None else ServiceConfig()
        if tracer is None:
            from ..trace.tracer import NULL_TRACER as tracer
        self.tracer = tracer
        #: The shared budgets admission control allocates jobs' demands
        #: from; their lifetime peaks are the oversubscription audit trail.
        self.host_pool = MemoryPool("service_host",
                                    self.config.host_budget_bytes)
        self.device_pool = MemoryPool("service_device",
                                      self.config.device_budget_bytes)
        self.meter = EventMeter()
        self.store: ContentStore | None = None
        if self.config.cache_dir:
            self.store = ContentStore(self.config.cache_dir,
                                      self.config.cache_bytes, tracer=tracer)
        #: Poison jobs that exhausted their attempts, oldest first; their
        #: content identities are barred from future admission.
        self.quarantine: list[QuarantineEntry] = []
        self._poisoned: dict[str, QuarantineEntry] = {}
        self._cancel_lock = threading.Lock()
        self._cancelled: set[str] = set()
        self._draining = False
        _share_malloc_arena()

    # -- public entry points ---------------------------------------------------

    def cancel(self, job_id: str) -> None:
        """Request cooperative cancellation of ``job_id``.

        Queued jobs are dropped before execution; a running job observes
        the request at its next pipeline phase boundary. Either way the
        outcome is ``"cancelled"`` (metered and traced distinctly from
        ``"failed"``). Unknown or already-finished ids are a no-op — the
        request simply never matches.
        """
        with self._cancel_lock:
            self._cancelled.add(job_id)
        self.meter.bump("cancel_requests")

    def drain(self) -> None:
        """Stop admission: queued jobs are shed, in-flight jobs finish.

        Thread-safe and idempotent; callable before a run (everything
        submitted is shed) or during one (from another thread or a job's
        phase hook); the scheduler observes it before its next pick or
        admission. Jobs whose admission grant was already acquired always
        run to completion — drain never sheds admitted work. The final
        :class:`ServiceReport` carries ``drained=True`` and the shed
        outcomes.
        """
        self._draining = True
        self.meter.bump("drain_requests")

    @property
    def draining(self) -> bool:
        """Whether admission has been stopped by :meth:`drain`."""
        return self._draining

    def run_jobs(self, specs: list[JobSpec]) -> ServiceReport:
        """Schedule and run ``specs`` to completion on the calling thread.

        The pipelines run on a pool of ``max_parallel`` worker threads,
        all of which are joined before this returns (or raises: an
        interrupt cancels the running jobs, which stop at their next phase
        boundary).
        """
        seen: set[str] = set()
        for spec in specs:
            if spec.job_id in seen:
                raise AdmissionError(f"duplicate job id {spec.job_id!r}")
            seen.add(spec.job_id)
        root = Path(self.config.workdir) if self.config.workdir \
            else Path(tempfile.mkdtemp(prefix="lasagna-service-"))
        root.mkdir(parents=True, exist_ok=True)
        quarantined_before = len(self.quarantine)
        start = time.perf_counter()
        # Admitted jobs in submission order, with the grants they hold.
        running: dict[Future, tuple[JobSpec, list]] = {}
        try:
            with ThreadPoolExecutor(self.config.max_parallel,
                                    thread_name_prefix="lasagna-job") as pool:
                try:
                    outcomes = self._schedule(specs, root, pool, running)
                except BaseException:
                    for spec, grants in running.values():
                        self.cancel(spec.job_id)
                        for grant in grants:
                            grant.free()
                    raise
        finally:
            if not self.config.workdir:
                shutil.rmtree(root, ignore_errors=True)
        wall = time.perf_counter() - start
        tenants: dict[str, TenantReport] = {}
        for outcome in outcomes.values():
            spec = outcome.spec
            report = tenants.setdefault(spec.tenant, TenantReport(
                spec.tenant, self.config.weight(spec.tenant)))
            report.jobs += 1
            for status, slot in (("failed", "failed"),
                                 ("quarantined", "quarantined"),
                                 ("cancelled", "cancelled"),
                                 ("timed_out", "timed_out"),
                                 ("shed", "shed")):
                if outcome.status == status:
                    setattr(report, slot, getattr(report, slot) + 1)
        for tenant, units in self._queue.served.items():
            if tenant in tenants:
                tenants[tenant].served_units = units
        return ServiceReport(
            outcomes=[outcomes[spec.job_id] for spec in specs],
            wall_seconds=wall,
            execution_order=list(self._execution_order),
            tenants=tenants,
            counters=self.meter.counters(),
            cache=self.store.stats() if self.store is not None else {},
            peak_host_bytes=self.host_pool.lifetime_peak_bytes,
            peak_device_bytes=self.device_pool.lifetime_peak_bytes,
            quarantine=tuple(self.quarantine[quarantined_before:]),
            drained=self._draining,
        )

    # -- scheduling core -------------------------------------------------------

    def _identity(self, spec: JobSpec) -> str | None:
        """Content identity of a job: what it assembles and how.

        Two jobs with equal identity produce byte-identical artifacts, so
        only one needs to run (single-flight). ``None`` (unreadable input)
        disables dedup for the job — it will fail on its own terms. The
        digest covers every byte of the input and is kept for the job's
        assembler, whose cache keys start from the same one.
        """
        digest = content_digest(Path(spec.source))
        self._source_digests[spec.job_id] = digest
        if digest is None:
            return None
        return phase_key("job", [f"reads:{digest}"], spec.config)

    def _is_cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancelled

    def _retry_policy(self, spec: JobSpec) -> RetryPolicy:
        """The job's deterministic backoff schedule (seeded by its config)."""
        return RetryPolicy(max_attempts=self.config.job_max_attempts,
                           base_backoff_s=self.config.job_retry_backoff_s,
                           seed=spec.config.seed)

    def _schedule(self, specs: list[JobSpec], root: Path,
                  pool: ThreadPoolExecutor,
                  running: dict[Future, tuple[JobSpec, list]],
                  ) -> dict[str, JobOutcome]:
        self._queue = JobQueue(self.config)
        self._execution_order: list[str] = []
        self._attempts: dict[str, int] = {}
        self._error_chains: dict[str, list[str]] = {}
        self._followers: dict[str, list[JobSpec]] = {}
        self._identities: dict[str, str | None] = {}
        self._source_digests: dict[str, str | None] = {}
        self._promoted: dict[str, str] = {}
        outcomes: dict[str, JobOutcome] = {}
        # Single-flight grouping at submit time: the first job of each
        # identity leads; the rest join its result without executing.
        leaders: dict[str, str] = {}
        for spec in specs:
            if self._is_cancelled(spec.job_id):
                outcomes[spec.job_id] = self._interrupted(
                    spec, None, "cancelled",
                    f"job {spec.job_id} cancelled before admission",
                    executed=False)
                continue
            identity = self._identity(spec)
            self._identities[spec.job_id] = identity
            entry = self._poisoned.get(identity) if identity else None
            if entry is not None:
                # Known-poison content: fail fast, never re-enter the queue.
                self.meter.bump("quarantine_hits")
                self.tracer.instant("quarantine-hit", track="service",
                                    job=spec.job_id, poison=entry.job_id)
                outcomes[spec.job_id] = JobOutcome(
                    spec, "failed", executed=False,
                    error=f"content quarantined (poison job {entry.job_id} "
                          f"exhausted {entry.attempts} attempts: "
                          f"{entry.error_chain[-1]})")
                continue
            if identity is not None and identity in leaders:
                self._followers.setdefault(leaders[identity], []).append(spec)
                self.meter.bump("singleflight_joined")
                continue
            if identity is not None:
                leaders[identity] = spec.job_id
            self._push_bounded(spec, outcomes)
        while True:
            if len(running) == self.config.max_parallel:
                # A free worker before each pick: with one worker the
                # previous job is settled (a retry re-queued) first.
                self._settle_next(running, outcomes)
            if self._draining and len(self._queue):
                self._shed_queue(outcomes, counter="drain_shed",
                                 reason="service draining")
            if not len(self._queue):
                if not running:
                    break
                self._settle_next(running, outcomes)
                continue
            tenant = self._queue.pick()
            spec = self._queue.pop(tenant)
            demand_host = spec.config.memory.host_bytes
            demand_device = spec.config.memory.device_bytes
            if self._is_cancelled(spec.job_id):
                self._finish_terminal(spec, self._interrupted(
                    spec, None, "cancelled",
                    f"job {spec.job_id} cancelled while queued",
                    executed=False), outcomes)
                continue
            if (demand_host > self.host_pool.capacity_bytes
                    or demand_device > self.device_pool.capacity_bytes):
                # No release can ever satisfy this demand: fail the job
                # fast instead of deadlocking the admission queue.
                self.meter.bump("admission_rejected")
                self._finish_terminal(spec, JobOutcome(
                    spec, "failed", executed=False,
                    error="job memory demand exceeds the service budget"),
                    outcomes)
                continue
            grants = self._admit(demand_host, demand_device, running,
                                 outcomes)
            if grants is None:
                # The service started draining while this job was parked
                # at admission: it never held a grant, so it is shed.
                self._shed_one(spec, outcomes, counter="drain_shed",
                               reason="service draining")
                continue
            self._queue.charge(tenant, 1.0)
            self._execution_order.append(spec.job_id)
            if self._is_cancelled(spec.job_id):
                for grant in grants:
                    grant.free()
                self._finish_terminal(spec, self._interrupted(
                    spec, None, "cancelled",
                    f"job {spec.job_id} cancelled before execution",
                    executed=False), outcomes)
                continue
            attempt = self._attempts.get(spec.job_id, 0) + 1
            self._attempts[spec.job_id] = attempt
            running[pool.submit(self._execute_job, spec, root,
                                attempt)] = (spec, grants)
        self._resolve_followers(outcomes)
        return outcomes

    def _settle_next(self, running: dict[Future, tuple[JobSpec, list]],
                     outcomes: dict[str, JobOutcome]) -> None:
        """Wait for a running job to finish, free its grants, settle it.

        Jobs that finished together settle in submission order.
        """
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in [f for f in running if f in done]:
            spec, grants = running.pop(future)
            for grant in grants:
                grant.free()
            self._settle(spec, future.result(), outcomes)

    def _push_bounded(self, spec: JobSpec,
                      outcomes: dict[str, JobOutcome]) -> None:
        """Queue a submission, shedding past the ``max_queued`` bound."""
        self._queue.push(spec)
        bound = self.config.max_queued
        while bound and len(self._queue) > bound:
            victim = self._queue.shed_lowest()
            self._shed_one(
                victim, outcomes, counter="admission_shed",
                reason=f"queue depth exceeded max_queued={bound}")

    def _shed_queue(self, outcomes: dict[str, JobOutcome], *,
                    counter: str, reason: str) -> None:
        while len(self._queue):
            self._shed_one(self._queue.shed_lowest(), outcomes,
                           counter=counter, reason=reason)

    def _shed_one(self, spec: JobSpec, outcomes: dict[str, JobOutcome], *,
                  counter: str, reason: str) -> None:
        self.meter.bump(counter)
        self.tracer.instant("shed", track="service", job=spec.job_id,
                            tenant=spec.tenant, reason=counter)
        self._finish_terminal(spec, JobOutcome(
            spec, "shed", executed=False,
            error=f"{counter}: {reason}",
            attempts=self._attempts.get(spec.job_id, 0)), outcomes)

    def _admit(self, demand_host: int, demand_device: int,
               running: dict[Future, tuple[JobSpec, list]],
               outcomes: dict[str, JobOutcome]) -> list | None:
        """Wait until both budget grants succeed; returns the grants.

        Pool ``try_alloc`` is the whole mechanism: a grant that would
        oversubscribe simply fails, and the scheduler settles the next
        running job to finish before it tries again (only running jobs
        hold grants, and a demand beyond the budget never gets here).
        Returns ``None`` when the service starts draining before the
        grant lands (the job was never admitted and must be shed, not run).
        """
        while not self._draining:
            host_grant = self.host_pool.try_alloc(demand_host, label="admission")
            if host_grant is not None:
                device_grant = self.device_pool.try_alloc(demand_device,
                                                          label="admission")
                if device_grant is not None:
                    return [host_grant, device_grant]
                host_grant.free()
            self.meter.bump("admission_blocked")
            self._settle_next(running, outcomes)
        return None

    # -- execution -------------------------------------------------------------

    def _settle(self, spec: JobSpec, outcome: JobOutcome,
                outcomes: dict[str, JobOutcome]) -> None:
        """Apply the failure ladder to a job's raw outcome.

        A retryable failure re-enters admission; an exhausted job is
        quarantined; everything terminal is recorded and may promote a
        single-flight follower.
        """
        if outcome.ok:  # a success after retries keeps their audit trail
            outcome.error_chain = tuple(self._error_chains.get(spec.job_id, ()))
        if outcome.status == "failed" and outcome.executed:
            chain = self._error_chains.setdefault(spec.job_id, [])
            chain.append(outcome.error)
            attempts = self._attempts.get(spec.job_id, 1)
            if attempts < self.config.job_max_attempts \
                    and not self._draining:
                self._requeue_retry(spec, attempts, outcome)
                return
            if attempts >= self.config.job_max_attempts:
                outcome = self._quarantine(spec, outcome, chain)
        self._finish_terminal(spec, outcome, outcomes)

    def _requeue_retry(self, spec: JobSpec, attempts: int,
                       outcome: JobOutcome) -> None:
        """Send a failed job back through admission with a modeled backoff."""
        backoff = self._retry_policy(spec).backoff_s(attempts,
                                                     key=spec.job_id)
        self.meter.bump("job_retries")
        self.meter.bump("retry_backoff_sim_s", backoff)
        self.tracer.instant("job-retry", track="service", job=spec.job_id,
                            attempt=attempts + 1, backoff_s=backoff,
                            error=outcome.error)
        self._queue.push(spec)

    def _quarantine(self, spec: JobSpec, outcome: JobOutcome,
                    chain: list[str]) -> JobOutcome:
        """Exhausted attempts: record the poison job and bar its identity."""
        entry = QuarantineEntry(
            job_id=spec.job_id, tenant=spec.tenant,
            identity=self._identities.get(spec.job_id),
            attempts=self._attempts.get(spec.job_id, 1),
            error_chain=tuple(chain))
        self.quarantine.append(entry)
        if entry.identity is not None:
            self._poisoned[entry.identity] = entry
        self.meter.bump("jobs_quarantined")
        self.tracer.instant("quarantined", track="service", job=spec.job_id,
                            attempts=entry.attempts, error=outcome.error)
        return JobOutcome(
            spec, "quarantined", error=outcome.error,
            error_chain=entry.error_chain, attempts=entry.attempts,
            wall_seconds=outcome.wall_seconds, workdir=outcome.workdir,
            promoted_from=self._promoted.get(spec.job_id))

    def _finish_terminal(self, spec: JobSpec, outcome: JobOutcome,
                         outcomes: dict[str, JobOutcome]) -> None:
        if outcome.promoted_from is None and spec.job_id in self._promoted:
            outcome.promoted_from = self._promoted[spec.job_id]
        outcomes[spec.job_id] = outcome
        self._maybe_promote(spec, outcome, outcomes)

    def _maybe_promote(self, spec: JobSpec, outcome: JobOutcome,
                       outcomes: dict[str, JobOutcome]) -> None:
        """Single-flight failover: a dead leader's oldest follower re-runs."""
        followers = self._followers.get(spec.job_id)
        if not followers or outcome.status not in _PROMOTE_ON:
            return
        del self._followers[spec.job_id]
        promoted: JobSpec | None = None
        while followers:
            candidate = followers.pop(0)
            if self._is_cancelled(candidate.job_id):
                outcomes[candidate.job_id] = self._interrupted(
                    candidate, None, "cancelled",
                    f"job {candidate.job_id} cancelled while following "
                    f"{spec.job_id}", executed=False)
                continue
            promoted = candidate
            break
        if promoted is None:
            return
        if followers:
            self._followers[promoted.job_id] = followers
        self._promoted[promoted.job_id] = spec.job_id
        self.meter.bump("leader_promoted")
        self.tracer.instant("leader-promoted", track="service",
                            job=promoted.job_id, leader=spec.job_id,
                            leader_status=outcome.status)
        self._queue.push(promoted)

    def _phase_guard(self, spec: JobSpec):
        """The per-job cooperative stop check, run at phase boundaries.

        Cancellation wins over the deadline when both hold at one boundary
        (an explicit operator request beats a policy timeout). Both checks
        compare deterministic state — the cancel set and the job's own
        modeled clock — so the same seed stops at the same boundary.
        """
        def hook(boundary: str, sim_seconds: float) -> None:
            if self._is_cancelled(spec.job_id):
                raise JobCancelled(
                    f"job {spec.job_id} cancelled at the {boundary} "
                    f"phase boundary")
            if spec.deadline_s and sim_seconds > spec.deadline_s:
                raise JobDeadlineExceeded(
                    f"job {spec.job_id} exceeded deadline_s="
                    f"{spec.deadline_s:g} at the {boundary} phase boundary "
                    f"(modeled {sim_seconds:.6f}s)")
        return hook

    def _execute_job(self, spec: JobSpec, root: Path,
                     attempt: int) -> JobOutcome:
        """One attempt of a job, on a worker thread: it runs the pipeline
        and builds the outcome; the scheduler thread settles it."""
        workdir = root / "jobs" / spec.job_id
        workdir.mkdir(parents=True, exist_ok=True)
        assembler = Assembler(spec.config, content_store=self.store,
                              phase_hook=self._phase_guard(spec))
        self.meter.bump("pipeline_runs")
        self.tracer.instant("job-start", track="service",
                            job=spec.job_id, tenant=spec.tenant,
                            attempt=attempt)
        start = time.perf_counter()
        try:
            # resume=True re-enters the checkpoint ledger, so a retried
            # attempt resumes the previous attempt's completed phases —
            # the byte-identity contract the chaos sweep asserts.
            result = assembler.assemble(
                spec.source, workdir=workdir, resume=True,
                source_digest=self._source_digests.get(spec.job_id))
        except JobCancelled as exc:
            return self._interrupted(spec, workdir, "cancelled", str(exc),
                                     start=start, attempts=attempt)
        except JobDeadlineExceeded as exc:
            return self._interrupted(spec, workdir, "timed_out", str(exc),
                                     start=start, attempts=attempt)
        except (ReproError, OSError) as exc:
            # The attempt failed, not the service: if an injected crash
            # killed it, clear the crash like a process restart would.
            faults.clear_crash()
            return self._failed(spec, workdir, exc, start, attempt)
        wall = time.perf_counter() - start
        self.tracer.instant("job-done", track="service",
                            job=spec.job_id, wall_s=wall)
        return JobOutcome(spec, "done", result=result, wall_seconds=wall,
                          sim_seconds=result.telemetry.total_sim_seconds(),
                          workdir=workdir, attempts=attempt)

    def _interrupted(self, spec: JobSpec, workdir: Path | None, status: str,
                     error: str, *, executed: bool = True,
                     start: float | None = None,
                     attempts: int | None = None) -> JobOutcome:
        """A service-interrupted outcome: ``cancelled`` or ``timed_out``."""
        meter_key, instant = {
            "cancelled": ("jobs_cancelled", "job-cancelled"),
            "timed_out": ("jobs_timed_out", "job-timed-out"),
        }[status]
        self.meter.bump(meter_key)
        self.tracer.instant(instant, track="service", job=spec.job_id,
                            error=error)
        return JobOutcome(
            spec, status, error=error, workdir=workdir, executed=executed,
            attempts=attempts if attempts is not None
            else self._attempts.get(spec.job_id, 0),
            wall_seconds=time.perf_counter() - start if start else 0.0)

    def _failed(self, spec: JobSpec, workdir: Path, exc: BaseException,
                start: float, attempt: int) -> JobOutcome:
        self.meter.bump("job_attempts_failed")
        error = f"{type(exc).__name__}: {exc}"
        self.tracer.instant("job-failed", track="service",
                            job=spec.job_id, error=error, attempt=attempt)
        return JobOutcome(spec, "failed", error=error, workdir=workdir,
                          attempts=attempt,
                          wall_seconds=time.perf_counter() - start)

    def _resolve_followers(self, outcomes: dict[str, JobOutcome]) -> None:
        """Resolve single-flight followers whose leader reached a verdict.

        A successful leader shares its result. A leader that failed
        without triggering promotion (admission rejection, shed) gives
        each follower *its own* outcome naming the leader — followers
        never inherit the leader's error string wholesale.
        """
        for leader_id, specs in self._followers.items():
            leader = outcomes[leader_id]
            for spec in specs:
                if self._is_cancelled(spec.job_id):
                    outcomes[spec.job_id] = self._interrupted(
                        spec, None, "cancelled",
                        f"job {spec.job_id} cancelled while following "
                        f"{leader_id}", executed=False)
                elif leader.ok:
                    outcomes[spec.job_id] = JobOutcome(
                        spec, "done", result=leader.result, executed=False,
                        joined=leader_id, sim_seconds=leader.sim_seconds)
                else:
                    outcomes[spec.job_id] = JobOutcome(
                        spec, leader.status, executed=False, joined=leader_id,
                        error=f"single-flight leader {leader_id} "
                              f"{leader.status}: {leader.error}")
        self._followers = {}
