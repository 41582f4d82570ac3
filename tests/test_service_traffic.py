"""Simulated-traffic harness: cache identity, determinism, chaos seeds.

These are the tentpole assertions of the service layer: under a seeded
multi-tenant job mix, cached and uncached executions produce byte-identical
contigs *and* byte-identical checkpoint ledgers, the scheduler's execution
order is deterministic, and a chaos seed damaging cache writes degrades to
recompute — never to wrong bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.config import ServiceConfig
from repro.core.checkpoint import STATE_FILE
from repro.core.pipeline import Assembler
from repro.faults import (BITFLIP, WRITE, Fault, FaultPlan, inject,
                          result_digest)
from repro.service import (AssemblyService, JobSpec, TrafficMix, build_sources,
                           default_job_config, generate_jobs)
from repro.service.content_store import FILES_DIR

from .conftest import colliding_sources

MIX = TrafficMix(n_jobs=10, n_sources=3, seed=42)


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """Seeded sources + job list, shared by every harness test (read-only)."""
    root = tmp_path_factory.mktemp("traffic")
    sources = build_sources(root / "data", MIX)
    return generate_jobs(sources, MIX)


def _run(tmp_path, jobs, name, *, cache=True, **overrides):
    kwargs = dict(
        workdir=str(tmp_path / name),
        cache_dir=str(tmp_path / "shared-cache") if cache else "",
        cache_bytes=64 << 20,
        host_budget_bytes=256 << 20,
        device_budget_bytes=32 << 20,
        tenant_weights={"alice": 2.0},
    )
    kwargs.update(overrides)
    return AssemblyService(ServiceConfig(**kwargs)).run_jobs(jobs)


def _contig_bytes(report):
    return {o.spec.job_id: o.contig_bytes() for o in report.outcomes}


def _ledger_hashes(report):
    """sha256 of each *executed* job's checkpoint ledger."""
    hashes = {}
    for outcome in report.outcomes:
        if outcome.executed and outcome.workdir is not None:
            ledger = outcome.workdir / STATE_FILE
            hashes[outcome.spec.job_id] = hashlib.sha256(
                ledger.read_bytes()).hexdigest()
    return hashes


def test_traffic_mix_is_deterministic(traffic):
    assert [spec.job_id for spec in traffic] \
        == [f"job{i:03d}" for i in range(10)]
    # Same seed, same draw: tenants and sources are pinned.
    replay = generate_jobs(sorted({spec.source for spec in traffic}), MIX)
    assert [(s.tenant, s.source) for s in replay] \
        == [(s.tenant, s.source) for s in traffic]
    # n_jobs > n_sources guarantees the repeated-jobs regime.
    assert len({spec.source for spec in traffic}) < len(traffic)


def test_cold_then_warm_cache_identity(tmp_path, traffic):
    """The tentpole: warm hits > 0, everything byte-identical to cold."""
    cold = _run(tmp_path, traffic, "cold")
    warm = _run(tmp_path, traffic, "warm")
    for report in (cold, warm):
        assert report.n_failed == 0, [o.error for o in report.outcomes]
    assert cold.cache["cache_misses"] > 0
    assert cold.cache.get("cache_hits", 0.0) == 0
    assert warm.hit_rate == 1.0  # every phase of every executed job served
    assert warm.cache["cache_hits"] >= len(set(warm.execution_order))
    # Byte-identical contigs per job, cached vs uncached.
    assert _contig_bytes(cold) == _contig_bytes(warm)
    # Byte-identical checkpoint ledgers: the cache-hit path must mirror
    # the uncached path's ledger writes exactly.
    assert _ledger_hashes(cold) == _ledger_hashes(warm)
    # Scheduling is deterministic: identical mixes, identical order.
    assert cold.execution_order == warm.execution_order
    # A hit restores what it reads (packed reads and graph), nothing else:
    # no partition file reaches a warm workdir or, ever, the cache.
    executed = len(warm.execution_order)
    assert warm.cache["cache_files_fetched"] == 2 * executed
    assert warm.cache["cache_bytes_fetched"] < executed * (1 << 20)
    assert warm.cache["cache_bytes_put"] == 0
    assert cold.cache["cache_bytes_put"] == cold.cache["bytes"]
    assert not list((tmp_path / "warm").rglob("*.run"))
    assert not list((tmp_path / "shared-cache").rglob("*.run"))
    assert "fetched" in warm.summary() and "put 0 B" in warm.summary()


def test_cached_matches_uncached(tmp_path, traffic):
    cached = _run(tmp_path, traffic, "cached")
    uncached = _run(tmp_path, traffic, "uncached", cache=False)
    assert cached.n_failed == 0 and uncached.n_failed == 0
    assert _contig_bytes(cached) == _contig_bytes(uncached)
    assert _ledger_hashes(cached) == _ledger_hashes(uncached)
    assert uncached.cache == {}


def test_report_repr_stays_small(tmp_path, traffic):
    """asyncio's runner teardown formats the finished task, result included."""
    mix = dataclasses.replace(MIX, n_jobs=24)
    jobs = generate_jobs(sorted({spec.source for spec in traffic}), mix)
    report = _run(tmp_path, jobs, "repr", cache=False)
    assert report.n_done == 24
    assert len(repr(report)) < 4096
    assert len(repr(report.outcomes[0])) < 4096


def test_sources_equal_to_the_ledger_digest_do_not_coalesce(tmp_path):
    """Same size, same first and last 64 KB: still two jobs, two results."""
    first, second = colliding_sources(tmp_path)
    config = dataclasses.replace(default_job_config(MIX), min_overlap=21)
    report = _run(tmp_path, [JobSpec("a", "alice", first, config),
                             JobSpec("b", "bob", second, config)], "collide")
    assert report.n_done == 2
    assert all(outcome.executed for outcome in report.outcomes)
    assert "singleflight_joined" not in report.counters
    assert report.cache.get("cache_hits", 0) == 0
    assert result_digest(report.outcomes[1].result) \
        == result_digest(Assembler(config).assemble(second))


def test_fairness_holds_under_traffic(tmp_path, traffic):
    report = _run(tmp_path, traffic, "fair", cache=False)
    tenants = {spec.job_id: spec.tenant for spec in traffic}
    weights = {"alice": 2.0, "bob": 1.0}
    totals = {t: sum(1 for spec in traffic if spec.tenant == t
                     and spec.job_id in report.execution_order)
              for t in weights}
    for prefix_len in range(1, len(report.execution_order) + 1):
        prefix = report.execution_order[:prefix_len]
        served = {t: sum(1 for job in prefix if tenants[job] == t)
                  for t in weights}
        if all(served[t] < totals[t] for t in weights):
            assert abs(served["alice"] / 2.0 - served["bob"] / 1.0) <= 1.0


def test_no_oversubscription_under_traffic(tmp_path, traffic):
    report = _run(tmp_path, traffic, "busy", cache=False, max_parallel=4,
                  host_budget_bytes=80 << 20, device_budget_bytes=10 << 20)
    assert report.n_failed == 0
    assert report.peak_host_bytes <= 80 << 20
    assert report.peak_device_bytes <= 10 << 20


def test_chaos_seed_against_the_cache(tmp_path, traffic):
    """A bitflip on a cache write degrades to recompute, never wrong bytes."""
    baseline = _run(tmp_path, traffic, "baseline", cache=False)
    plan = FaultPlan([Fault(BITFLIP, site=WRITE, match=f"*{FILES_DIR}*",
                            once=False)], seed=MIX.seed)
    with inject(plan):
        damaged = _run(tmp_path, traffic, "damaged")
    assert plan.events, "the chaos seed never fired"
    assert damaged.n_failed == 0
    # Damaged copies poison the *cache*, not the results: every write the
    # pipeline itself consumed was clean, and fetches re-verify digests.
    assert _contig_bytes(damaged) == _contig_bytes(baseline)
    # The second run over the damaged cache detects and recomputes.
    recovered = _run(tmp_path, traffic, "recovered")
    assert recovered.n_failed == 0
    assert recovered.cache["cache_damaged"] >= 1
    assert _contig_bytes(recovered) == _contig_bytes(baseline)
