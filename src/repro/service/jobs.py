"""Job and report value types for the multi-tenant assembly service."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..config import AssemblyConfig
from ..core.results import AssemblyResult
from ..errors import ConfigError
from ..units import format_duration, format_size

#: Every status a job outcome can carry. ``done`` is the only success;
#: the rest are *distinct* failure classes — ``failed`` means the job's
#: own execution or admission failed, ``quarantined`` that it exhausted
#: its attempt budget, and ``cancelled``/``timed_out``/``shed`` that the
#: service interrupted or refused it (never counted as ``failed``).
STATUSES = ("done", "failed", "quarantined", "cancelled", "timed_out", "shed")


@dataclass(frozen=True)
class JobSpec:
    """One assembly request submitted to the service.

    ``config.memory`` is the job's host/device demand against the service
    budget. ``deadline_s`` bounds the job's *simulated* seconds: the
    pipeline checks its own modeled clock at phase boundaries and times
    out deterministically (0 = no deadline).
    """

    job_id: str
    tenant: str
    source: str | Path
    config: AssemblyConfig
    deadline_s: float = 0.0

    def __post_init__(self) -> None:
        if self.deadline_s < 0:
            raise ConfigError("deadline_s must be >= 0 (0 = no deadline)")


@dataclass
class JobOutcome:
    """What one job produced (or why it did not)."""

    spec: JobSpec
    status: str  #: One of :data:`STATUSES`.
    #: Out of the ``repr``: contigs and telemetry print as hundreds of kB.
    result: AssemblyResult | None = field(default=None, repr=False)
    error: str | None = None
    #: Wall seconds from execution start to finish (0 for joined jobs).
    wall_seconds: float = 0.0
    #: Modeled hardware seconds accrued by the job's pipeline.
    sim_seconds: float = 0.0
    #: Whether this job ran its own pipeline (False = joined an identical
    #: in-flight job's result via single-flight dedup, or never started).
    executed: bool = True
    #: Job id of the single-flight leader this job joined, if any.
    joined: str | None = None
    #: The job's private working directory (holds the checkpoint ledger).
    workdir: Path | None = None
    #: Executions this job was granted (retries count; joined jobs get 0).
    attempts: int = 0
    #: One error string per failed attempt, oldest first — the quarantine
    #: audit trail. The final entry equals ``error`` for terminal failures.
    error_chain: tuple[str, ...] = ()
    #: Job id of the failed single-flight leader this job was promoted
    #: over (it re-ran the cohort's work instead of inheriting failure).
    promoted_from: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the job completed with a result."""
        return self.status == "done" and self.result is not None

    def contig_bytes(self) -> bytes:
        """Canonical byte string of the job's contigs (for identity checks)."""
        if self.result is None:
            return b""
        return (self.result.contigs.flat_codes.tobytes()
                + self.result.contigs.offsets.tobytes())


@dataclass(frozen=True)
class QuarantineEntry:
    """One poison job: it exhausted its attempts and is barred from the queue.

    The service keeps these across
    :meth:`~repro.service.AssemblyService.run_jobs` calls; a later
    submission with the same content identity fails fast
    (``quarantine_hits``) instead of burning attempts on known-poison work.
    """

    job_id: str
    tenant: str
    #: Content identity (``None`` = unreadable input, identity unknown).
    identity: str | None
    attempts: int
    error_chain: tuple[str, ...]


@dataclass
class TenantReport:
    """Per-tenant service accounting (one counter per outcome class)."""

    tenant: str
    weight: float
    jobs: int = 0
    failed: int = 0
    quarantined: int = 0
    cancelled: int = 0
    timed_out: int = 0
    shed: int = 0
    served_units: float = 0.0


@dataclass
class ServiceReport:
    """Everything one service run produced, for benchmarks and audits."""

    outcomes: list[JobOutcome] = field(repr=False)
    wall_seconds: float
    #: Job ids in the order their execution *started* (the fairness audit
    #: trail: weighted-fair scheduling bounds every prefix of this list).
    execution_order: list[str]
    tenants: dict[str, TenantReport]
    #: Service meter counters (admissions, single-flight joins…).
    counters: Mapping[str, float]
    #: Content-store counters (hits/misses/evictions/bytes), {} if disabled.
    cache: Mapping[str, float] = field(default_factory=dict)
    #: Peak admitted bytes against each service budget.
    peak_host_bytes: int = 0
    peak_device_bytes: int = 0
    #: Poison jobs quarantined during this run (error chains included).
    quarantine: tuple[QuarantineEntry, ...] = ()
    #: Whether the service was draining when the run finished.
    drained: bool = False

    def _count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def n_done(self) -> int:
        """Jobs that completed with a result."""
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def n_failed(self) -> int:
        """Jobs whose own execution or admission failed.

        Excludes ``cancelled``/``timed_out``/``shed`` (the service
        interrupted or refused those) and counts ``quarantined`` jobs —
        quarantine *is* terminal failure, just with an attempt audit trail.
        """
        return self._count("failed") + self.n_quarantined

    @property
    def n_quarantined(self) -> int:
        """Jobs that exhausted their attempt budget this run."""
        return self._count("quarantined")

    @property
    def n_cancelled(self) -> int:
        """Jobs cancelled before or during execution."""
        return self._count("cancelled")

    @property
    def n_timed_out(self) -> int:
        """Jobs that exceeded their simulated-clock deadline."""
        return self._count("timed_out")

    @property
    def n_shed(self) -> int:
        """Jobs refused by load shedding or a drain."""
        return self._count("shed")

    @property
    def jobs_per_second(self) -> float:
        """Completed jobs per wall second of service time."""
        return self.n_done / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over this run (0.0 with caching off)."""
        return self.cache.get("hit_rate", 0.0)

    def summary(self) -> str:
        """Multi-line human-readable service report."""
        classes = [f"{self.n_done} done", f"{self.n_failed} failed"]
        for label, count in (("quarantined", self.n_quarantined),
                             ("cancelled", self.n_cancelled),
                             ("timed out", self.n_timed_out),
                             ("shed", self.n_shed)):
            if count:
                classes.append(f"{count} {label}")
        lines = [
            f"jobs: {', '.join(classes)} "
            f"in {format_duration(self.wall_seconds)} "
            f"({self.jobs_per_second:.2f} jobs/s)"
            + (" [drained]" if self.drained else ""),
        ]
        if self.cache:
            lines.append(
                f"cache: {self.cache.get('cache_hits', 0):.0f} hits / "
                f"{self.cache.get('cache_misses', 0):.0f} misses "
                f"(rate {self.hit_rate:.0%}), fetched "
                f"{format_size(self.cache.get('cache_bytes_fetched', 0))} in "
                f"{self.cache.get('cache_files_fetched', 0):.0f} files, put "
                f"{format_size(self.cache.get('cache_bytes_put', 0))}, "
                f"{self.cache.get('cache_evictions', 0):.0f} evictions, "
                f"{format_size(self.cache.get('bytes', 0))} held")
        joins = self.counters.get("singleflight_joined", 0)
        if joins:
            lines.append(f"dedup: {joins:.0f} jobs joined in flight")
        retries = self.counters.get("job_retries", 0)
        promotions = self.counters.get("leader_promoted", 0)
        if retries or promotions:
            lines.append(f"resilience: {retries:.0f} retries "
                         f"({self.counters.get('retry_backoff_sim_s', 0.0):.3f}"
                         f" sim-s backoff); {promotions:.0f} leaders promoted")
        lines.append(f"admitted peaks: host {format_size(self.peak_host_bytes)}"
                     f", device {format_size(self.peak_device_bytes)}")
        for entry in self.quarantine:
            lines.append(f"quarantined {entry.job_id} ({entry.tenant}) after "
                         f"{entry.attempts} attempts: {entry.error_chain[-1]}")
        for report in self.tenants.values():
            parts = [f"{report.jobs} jobs", f"{report.failed} failed"]
            for label in ("quarantined", "cancelled", "timed_out", "shed"):
                count = getattr(report, label)
                if count:
                    parts.append(f"{count} {label.replace('_', ' ')}")
            lines.append(
                f"tenant {report.tenant} (w={report.weight:g}): "
                f"{', '.join(parts)}, served {report.served_units:g} units")
        return "\n".join(lines)
