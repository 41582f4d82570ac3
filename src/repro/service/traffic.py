"""Deterministic simulated traffic for the assembly service.

The service's concurrency and cache behaviour is only testable under a
reproducible load: :class:`TrafficMix` describes a seeded mix of tenants
and input datasets, :func:`build_sources` materializes the distinct read
sets, and :func:`generate_jobs` draws the job sequence — the same seed
always produces byte-identical sources and the same submission order, so
the harness can assert exact execution orders, fairness shares and cache
hit counts.

The mix deliberately *repeats* sources across jobs: repeats submitted in
one run exercise single-flight dedup; repeats across runs exercise the
content-addressed cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import AssemblyConfig, MemoryConfig
from ..errors import ConfigError
from ..seq.simulate import ReadSimulator, simulate_genome
from .jobs import JobSpec


@dataclass(frozen=True)
class TrafficMix:
    """A seeded description of service load.

    ``n_sources`` distinct read sets are sampled from independent genomes;
    each of the ``n_jobs`` jobs picks a tenant and a source with the
    seeded generator, so with ``n_jobs > n_sources`` repeats are
    guaranteed — the repeated-jobs regime the cache benchmark measures.
    """

    n_jobs: int = 12
    n_sources: int = 3
    tenants: tuple[str, ...] = ("alice", "bob")
    genome_length: int = 600
    read_length: int = 40
    coverage: float = 6.0
    min_overlap: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs < 1 or self.n_sources < 1:
            raise ConfigError("traffic needs >= 1 job and >= 1 source")
        if not self.tenants:
            raise ConfigError("traffic needs at least one tenant")


def default_job_config(mix: TrafficMix) -> AssemblyConfig:
    """A laptop-scale per-job config sized for the mix's tiny datasets.

    The small host/device demand lets a modest service budget admit a few
    jobs concurrently while still forcing admission waits under load.
    """
    return AssemblyConfig(
        min_overlap=mix.min_overlap,
        memory=MemoryConfig(32 << 20, 4 << 20, name="service-tiny"),
    )


def build_sources(root: str | Path, mix: TrafficMix) -> list[Path]:
    """Write the mix's distinct FASTQ read sets under ``root``.

    Idempotent for a fixed mix: source ``i`` is a pure function of
    ``(mix.seed, i)``, so re-running over an existing directory rewrites
    byte-identical files (and therefore preserves cache identities).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    sources = []
    for index in range(mix.n_sources):
        path = root / f"source_{index:02d}.fastq"
        genome = simulate_genome(mix.genome_length, seed=mix.seed * 1000 + index)
        ReadSimulator(genome, mix.read_length, mix.coverage,
                      seed=mix.seed * 1000 + index).to_fastq(path)
        sources.append(path)
    return sources


def generate_jobs(sources: list[Path], mix: TrafficMix,
                  config: AssemblyConfig | None = None, *,
                  deadline_s: float = 0.0) -> list[JobSpec]:
    """Draw the mix's job sequence over pre-built ``sources``.

    Tenant and source choices come from one seeded generator; job ids are
    ``job000, job001, …`` in submission order. ``deadline_s`` (simulated
    seconds, 0 = none) applies uniformly — chaos harnesses use it to put
    the whole mix on a clock without changing the drawn sequence.
    """
    if len(sources) < mix.n_sources:
        raise ConfigError(f"mix wants {mix.n_sources} sources, "
                          f"got {len(sources)}")
    config = config if config is not None else default_job_config(mix)
    rng = np.random.default_rng(mix.seed)
    jobs = []
    for index in range(mix.n_jobs):
        tenant = mix.tenants[int(rng.integers(0, len(mix.tenants)))]
        source = sources[int(rng.integers(0, mix.n_sources))]
        jobs.append(JobSpec(f"job{index:03d}", tenant, source, config,
                            deadline_s=deadline_s))
    return jobs
