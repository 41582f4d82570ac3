"""Run configuration: memory budgets and assembly parameters.

Two memory configurations appear throughout the paper's evaluation:

* **QB2**  — QueenBee II node: 128 GB host RAM, NVIDIA K40 (12 GB device),
* **SuperMIC** — 64 GB host RAM, NVIDIA K20X (6 GB device).

:class:`MemoryConfig` captures a host/device budget pair and derives the
block sizes ``m_h`` (key–value pairs that fit in host memory) and ``m_d``
(pairs that fit in device memory) that drive the two-level streaming model.
Budgets can be scaled down by the same factor as the datasets so that *pass
counts* — the quantity the paper's Tables II/III hinge on — are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ConfigError
from .units import parse_size

#: Fraction of each memory budget usable as sort/merge KV buffers. The
#: remainder models framework overhead (CUDA context, program state); the
#: paper similarly reports device memory "fully utilized" at a fixed
#: per-phase allocation below the physical capacity. 0.85 is calibrated so
#: that, with the sort footprint divisors of :mod:`repro.extmem.sort`, the
#: paper's pass counts reproduce: an H.Genome partition (2.5 G × 20-byte
#: records) sorts in one disk pass on the 128 GB host but needs one merge
#: round on the 64 GB host (Tables II vs III).
DEFAULT_BUFFER_FRACTION = 0.85


@dataclass(frozen=True)
class MemoryConfig:
    """Host and device memory budgets for one run.

    ``buffer_fraction`` is the share of each budget available to key–value
    buffers; :meth:`host_pairs`/:meth:`device_pairs` convert budgets into the
    paper's ``m_h``/``m_d`` block sizes for a given record width.
    """

    host_bytes: int
    device_bytes: int
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.host_bytes <= 0 or self.device_bytes <= 0:
            raise ConfigError("memory budgets must be positive")
        if not 0.0 < self.buffer_fraction <= 1.0:
            raise ConfigError("buffer_fraction must be in (0, 1]")
        if self.device_bytes > self.host_bytes:
            raise ConfigError("device memory cannot exceed host memory")

    @staticmethod
    def preset(name: str) -> "MemoryConfig":
        """Return a named testbed configuration from the paper.

        ``qb2``: 128 GB host + 12 GB device (K40).
        ``supermic``: 64 GB host + 6 GB device (K20X).
        """
        presets = {
            "qb2": MemoryConfig(parse_size("128 GB"), parse_size("12 GB"), name="qb2"),
            "supermic": MemoryConfig(parse_size("64 GB"), parse_size("6 GB"), name="supermic"),
        }
        try:
            return presets[name.lower()]
        except KeyError:
            raise ConfigError(f"unknown memory preset {name!r}; options: {sorted(presets)}") from None

    def scaled(self, factor: float) -> "MemoryConfig":
        """Scale both budgets by ``factor`` (used with scaled datasets).

        Scaling budgets and data by the same factor keeps the number of
        sort/merge disk passes identical to the paper-scale run.
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return replace(
            self,
            host_bytes=max(1, int(self.host_bytes * factor)),
            device_bytes=max(1, int(self.device_bytes * factor)),
            name=f"{self.name}*{factor:g}",
        )

    def host_pairs(self, record_nbytes: int) -> int:
        """``m_h``: key–value pairs fitting in the host buffer budget."""
        return max(2, int(self.host_bytes * self.buffer_fraction) // record_nbytes)

    def device_pairs(self, record_nbytes: int) -> int:
        """``m_d``: key–value pairs fitting in the device buffer budget."""
        return max(2, int(self.device_bytes * self.buffer_fraction) // record_nbytes)


@dataclass(frozen=True)
class AssemblyConfig:
    """All tunables of the assembly pipeline.

    Parameters
    ----------
    min_overlap:
        ``l_min`` — the smallest suffix/prefix length considered an overlap.
        The paper uses the SGA-suggested values (63 for 100/101 bp reads,
        85 for 124 bp, 111 for 150 bp).
    memory:
        Host/device budgets; defaults to a laptop-scale budget.
    device_name:
        Which :mod:`repro.device.specs` GPU to virtualize (timing model only;
        capacity comes from ``memory.device_bytes``).
    fingerprint_lanes:
        1 → one packed 62-bit key (two 31-bit Rabin–Karp hashes);
        2 → two packed keys (~124 bits), the analog of the paper's 128-bit
        fingerprints.
    map_batch_reads:
        Reads per *device* batch (one modeled kernel launch) in the map
        phase. ``0`` sizes the batch automatically from the device budget.
        The host may stage several device batches per numpy call; modeled
        costs and partition files do not depend on that.
    host_block_pairs / device_block_pairs:
        Explicit ``m_h``/``m_d`` overrides (paper Fig. 8/9 sweeps); ``0``
        derives them from ``memory``.
    merge_fanout:
        Runs merged per external-merge round (level 1 and level 2). ``2``
        is the paper's pairwise Algorithm 1 and makes the sort take
        ``1 + ⌈log₂ R⌉`` disk passes over ``R`` initial runs; ``k`` cuts
        that to ``1 + ⌈log_k R⌉`` at the cost of ``k``-times-smaller merge
        windows. ``0`` derives the largest fanout whose windows still hold
        a device chunk (:func:`repro.extmem.sort.derive_fanout`).
    trace:
        Directory to dump a structured span trace into ("" = tracing off,
        the default). When set, the run records begin/end events for every
        phase, external-merge round and distributed node
        against both the wall clock and the simulated clock, and writes an
        event log plus Chrome/Perfetto trace JSON there (see
        :mod:`repro.trace`). Purely observational: does not affect output
        or the checkpoint fingerprint.
    heartbeat_interval / node_timeout / reduce_max_attempts /
    retry_backoff_s / node_restarts / allow_degraded:
        Distributed-resilience knobs (see
        :mod:`repro.distributed.resilience`): heartbeat cadence and
        declared-dead timeout on the simulated clock, bounded per-operation
        retries with deterministic backoff, per-node restart budget, and
        whether exhausted recovery degrades (report + surviving nodes)
        rather than raising. All are execution-policy only: a clean run's
        artifacts and timings are identical for any values. A failed
        reduce attempt replays its partition whole from the sorted runs.
    seed:
        Seed for fingerprint parameter choice; fixed for reproducibility.
    """

    min_overlap: int = 15
    memory: MemoryConfig = field(
        default_factory=lambda: MemoryConfig(parse_size("1 GB"), parse_size("96 MB"), name="laptop")
    )
    device_name: str = "K40"
    fingerprint_lanes: int = 1
    map_batch_reads: int = 0
    host_block_pairs: int = 0
    device_block_pairs: int = 0
    merge_fanout: int = 2
    trace: str = ""
    # -- distributed resilience (repro.distributed.resilience) -----------------
    #: Simulated seconds between worker heartbeats to the supervisor.
    heartbeat_interval: float = 0.25
    #: Simulated seconds without a heartbeat before a node is declared dead.
    node_timeout: float = 1.0
    #: Bounded attempts per node operation (2 = one retry, the historical
    #: distributed-reduce behaviour).
    reduce_max_attempts: int = 2
    #: Base backoff before the first retry; doubles per attempt with seeded
    #: jitter (see repro.faults.RetryPolicy).
    retry_backoff_s: float = 0.05
    #: Fresh WorkerNode restarts granted per node before it is declared lost.
    node_restarts: int = 1
    #: Finish on surviving nodes with a DegradedRunReport when recovery is
    #: exhausted (False = raise DistributedProtocolError instead).
    allow_degraded: bool = True
    seed: int = 0x1A5A67A

    def __post_init__(self) -> None:
        if self.min_overlap < 1:
            raise ConfigError("min_overlap must be >= 1")
        if self.fingerprint_lanes not in (1, 2):
            raise ConfigError("fingerprint_lanes must be 1 or 2")
        if self.map_batch_reads < 0 or self.host_block_pairs < 0 or self.device_block_pairs < 0:
            raise ConfigError("block/batch overrides must be >= 0 (0 = auto)")
        if self.merge_fanout < 0 or self.merge_fanout == 1:
            raise ConfigError("merge_fanout must be 0 (auto) or >= 2")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be > 0")
        if self.node_timeout < self.heartbeat_interval:
            raise ConfigError("node_timeout must be >= heartbeat_interval")
        if self.reduce_max_attempts < 1:
            raise ConfigError("reduce_max_attempts must be >= 1")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")
        if self.node_restarts < 0:
            raise ConfigError("node_restarts must be >= 0")

    def resolved_workers(self) -> int:
        """Always 1: a run has one schedule."""
        # Read by benchmarks/perf/run.py (``parallel.workers``).
        return 1

    def resolved_blocks(self, record_nbytes: int) -> tuple[int, int]:
        """Resolve ``(m_h, m_d)`` pairs for a record width, honouring overrides."""
        m_h = self.host_block_pairs or self.memory.host_pairs(record_nbytes)
        m_d = self.device_block_pairs or self.memory.device_pairs(record_nbytes)
        m_d = min(m_d, m_h)
        return max(2, m_h), max(2, m_d)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the multi-tenant assembly service (``lasagna serve``).

    Parameters
    ----------
    max_parallel:
        Worker threads the service runs jobs on. ``1`` (the default) runs
        one job at a time in strict weighted-fair order — fully
        deterministic, which is what the traffic harness asserts against.
    host_budget_bytes / device_budget_bytes:
        The shared memory budgets admission control arbitrates. A job's
        demand is its config's ``memory.host_bytes``/``device_bytes``;
        jobs wait at admission until both fit, so the sum of admitted
        demands can never exceed the budget (enforced by the service
        :class:`~repro.device.memory.MemoryPool` pair, whose peaks are the
        oversubscription audit trail).
    cache_dir:
        Directory of the content-addressed artifact cache shared across
        jobs and tenants ("" = caching off).
    cache_bytes:
        Cache capacity; least-recently-used entries are evicted past it.
    tenant_weights:
        Fair-share weight per tenant name (unlisted tenants get 1.0). A
        tenant with weight 2 receives twice the service of a weight-1
        tenant under contention.
    workdir:
        Root directory for per-job workdirs and reports ("" = a temp dir
        owned, and removed, by the service).
    job_max_attempts:
        Executions granted per job before it is quarantined. ``1`` (the
        default) quarantines on first failure; higher values re-queue a
        failed job through admission, so its budget demand is re-acquired
        fairly rather than held across the backoff.
    job_retry_backoff_s:
        Base backoff before a job's first retry; doubles per attempt with
        seeded jitter (the same :class:`repro.faults.RetryPolicy` schedule
        the distributed supervisor uses, keyed by job id and charged to
        the simulated clock — deterministic per seed).
    max_queued:
        Queue-depth bound for load shedding: whenever more jobs than this
        are queued, the lowest-weight queued jobs are shed with a typed
        ``admission_shed`` outcome until the bound holds (0 = unbounded).
    """

    max_parallel: int = 1
    host_budget_bytes: int = 4 << 30
    device_budget_bytes: int = 512 << 20
    cache_dir: str = ""
    cache_bytes: int = 256 << 20
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    workdir: str = ""
    job_max_attempts: int = 1
    job_retry_backoff_s: float = 0.05
    max_queued: int = 0

    def __post_init__(self) -> None:
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be >= 1")
        if self.host_budget_bytes <= 0 or self.device_budget_bytes <= 0:
            raise ConfigError("service memory budgets must be positive")
        if self.cache_bytes <= 0:
            raise ConfigError("cache_bytes must be positive")
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise ConfigError(
                    f"tenant weight must be positive ({tenant!r}: {weight})")
        if self.job_max_attempts < 1:
            raise ConfigError("job_max_attempts must be >= 1")
        if self.job_retry_backoff_s < 0:
            raise ConfigError("job_retry_backoff_s must be >= 0")
        if self.max_queued < 0:
            raise ConfigError("max_queued must be >= 0 (0 = unbounded)")

    def weight(self, tenant: str) -> float:
        """Fair-share weight of ``tenant`` (1.0 unless configured)."""
        return float(self.tenant_weights.get(tenant, 1.0))
