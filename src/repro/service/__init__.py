"""Multi-tenant assembly service: scheduler + content-addressed cache.

Public surface:

* :class:`~repro.service.scheduler.AssemblyService` /
  :class:`~repro.service.scheduler.JobQueue` — the job scheduler
  (weighted fair queuing, admission control, single-flight).
* :class:`~repro.service.content_store.ContentStore` /
  :func:`~repro.service.content_store.phase_key` — the content-addressed
  artifact cache shared across jobs and tenants.
* :class:`~repro.service.jobs.JobSpec` and friends — the job/report value
  types.
* :class:`~repro.service.traffic.TrafficMix` — deterministic simulated
  load for tests and benchmarks.
"""

from .content_store import CacheEntry, ContentStore, phase_key
from .jobs import STATUSES, JobOutcome, JobSpec, ServiceReport, TenantReport
from .scheduler import AssemblyService, JobQueue
from .traffic import TrafficMix, build_sources, default_job_config, generate_jobs

__all__ = [
    "AssemblyService",
    "CacheEntry",
    "ContentStore",
    "JobOutcome",
    "JobQueue",
    "JobSpec",
    "STATUSES",
    "ServiceReport",
    "TenantReport",
    "TrafficMix",
    "build_sources",
    "default_job_config",
    "generate_jobs",
    "phase_key",
]
