"""Multi-tenant service benchmark: cache hit-rate and warm-over-cold speedup.

Drives the :mod:`repro.service` scheduler with the seeded traffic mix from
:mod:`repro.service.traffic` three ways over the same job list:

* **uncached** — cache disabled, the correctness baseline,
* **cold**     — content-addressed cache enabled but empty,
* **warm**     — same cache directory again, so every phase should hit.

and reports jobs/sec for each, the warm hit rate, and whether cached runs
stayed byte-identical to the uncached baseline (contigs *and* checkpoint
ledgers). Two more serial passes exercise the failure ladder: **faulted**
re-runs the mix with a seeded crash injected inside a job body (the retry
must converge byte-identically) and **shed** bounds the queue so load
shedding fires. Results land in
``benchmarks/results/BENCH_service.json``::

    {"cpu_count": ..., "mode": "full"|"smoke", "seed": ...,
     "jobs": ..., "sources": ..., "max_parallel": ...,
     "runs": {"uncached": {...}, "cold": {...}, "warm": {...}},
     "warm_speedup": ..., "hit_rate": ...,
     "byte_identical_contigs": true, "byte_identical_ledgers": true,
     "fairness": {"alice": {...}, "bob": {...}},
     "resilience": {"crash_op": ..., "job_retries": ...,
                    "pipeline_runs": ...,
                    "byte_identical_after_retry": true,
                    "shed_bound": ..., "admission_shed": ...}}

``--smoke`` shrinks the mix so CI can exercise the scheduler and cache
paths in seconds; it is a plumbing check, not a measurement.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import ServiceConfig
from repro.core.checkpoint import STATE_FILE
from repro.faults import FaultPlan, inject
from repro.service import (AssemblyService, TrafficMix, build_sources,
                           generate_jobs)

SEED = 42
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_service.json"


def _contigs(report) -> dict:
    return {o.spec.job_id: o.contig_bytes() for o in report.outcomes}


def _ledgers(report) -> dict:
    hashes = {}
    for outcome in report.outcomes:
        if outcome.executed and outcome.workdir is not None:
            ledger = outcome.workdir / STATE_FILE
            hashes[outcome.spec.job_id] = hashlib.sha256(
                ledger.read_bytes()).hexdigest()
    return hashes


def _run(root: Path, jobs, name: str, *, cache: bool,
         max_parallel: int, **overrides):
    config = ServiceConfig(
        workdir=str(root / name),
        cache_dir=str(root / "cache") if cache else "",
        cache_bytes=256 << 20,
        host_budget_bytes=512 << 20,
        device_budget_bytes=64 << 20,
        max_parallel=max_parallel,
        tenant_weights={"alice": 2.0},
        **overrides,
    )
    return AssemblyService(config).run_jobs(jobs)


def _run_entry(report) -> dict:
    return {
        "jobs_done": report.n_done,
        "jobs_failed": report.n_failed,
        "wall_s": round(report.wall_seconds, 6),
        "jobs_per_s": round(report.jobs_per_second, 4),
        "pipeline_runs": int(report.counters.get("pipeline_runs", 0)),
        "cache": {k: int(v) for k, v in sorted(report.cache.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny mix (CI plumbing check)")
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args(argv)

    mix = (TrafficMix(n_jobs=6, n_sources=2, genome_length=400, seed=SEED)
           if args.smoke
           else TrafficMix(n_jobs=24, n_sources=4, genome_length=1200,
                           coverage=8.0, seed=SEED))
    max_parallel = 2 if args.smoke else 4

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        root = Path(tmp)
        sources = build_sources(root / "data", mix)
        jobs = generate_jobs(sources, mix)

        uncached = _run(root, jobs, "uncached", cache=False,
                        max_parallel=max_parallel)
        cold = _run(root, jobs, "cold", cache=True,
                    max_parallel=max_parallel)
        warm = _run(root, jobs, "warm", cache=True,
                    max_parallel=max_parallel)

        baseline_contigs = _contigs(uncached)
        baseline_ledgers = _ledgers(uncached)
        identical_contigs = all(_contigs(r) == baseline_contigs
                                for r in (cold, warm))
        identical_ledgers = all(_ledgers(r) == baseline_ledgers
                                for r in (cold, warm))

        # Failure-ladder passes (serial: injected faults and their retries
        # must be exactly reproducible). First probe the op space of a
        # clean run, then crash inside a job body at a seeded op.
        probe_plan = FaultPlan()
        with inject(probe_plan):
            probe = _run(root, jobs, "probe", cache=False, max_parallel=1)
        crash_op = random.Random(SEED).randrange(1, probe_plan.ops_seen)
        with inject(FaultPlan.crash_at(crash_op)):
            faulted = _run(root, jobs, "faulted", cache=False,
                           max_parallel=1, job_max_attempts=3)
        retry_identical = _contigs(faulted) == _contigs(probe)
        # Only single-flight leaders occupy queue slots (one per distinct
        # source), so the bound must undercut the source count to shed.
        shed_bound = max(1, mix.n_sources // 2)
        shed = _run(root, jobs, "shed", cache=False, max_parallel=1,
                    max_queued=shed_bound)

    speedup = (warm.jobs_per_second / cold.jobs_per_second
               if cold.jobs_per_second else 0.0)
    payload = {
        "cpu_count": os.cpu_count(),
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "jobs": mix.n_jobs,
        "sources": mix.n_sources,
        "max_parallel": max_parallel,
        "runs": {"uncached": _run_entry(uncached),
                 "cold": _run_entry(cold),
                 "warm": _run_entry(warm)},
        "warm_speedup": round(speedup, 3),
        "hit_rate": round(warm.hit_rate, 4),
        "byte_identical_contigs": identical_contigs,
        "byte_identical_ledgers": identical_ledgers,
        "fairness": {t.tenant: {"weight": t.weight, "jobs": t.jobs,
                                "served_units": t.served_units}
                     for t in warm.tenants.values()},
        "resilience": {
            "crash_op": crash_op,
            "job_retries": int(faulted.counters.get("job_retries", 0)),
            "pipeline_runs": int(faulted.counters.get("pipeline_runs", 0)),
            "byte_identical_after_retry": retry_identical,
            "shed_bound": shed_bound,
            "admission_shed": int(shed.counters.get("admission_shed", 0)),
        },
    }

    for name, entry in payload["runs"].items():
        print(f"{name:>9}: {entry['jobs_done']} jobs in "
              f"{entry['wall_s']:.3f}s ({entry['jobs_per_s']:.2f} jobs/s, "
              f"{entry['pipeline_runs']} pipeline runs)")
    print(f"warm speedup {speedup:.2f}x, hit rate {warm.hit_rate:.2%}, "
          f"contigs identical={identical_contigs}, "
          f"ledgers identical={identical_ledgers}")
    resilience = payload["resilience"]
    print(f"faulted (crash at op {crash_op}): "
          f"{resilience['job_retries']} retries, "
          f"{resilience['pipeline_runs']} pipeline runs, "
          f"identical after retry={retry_identical}; "
          f"shed {resilience['admission_shed']} jobs at "
          f"max_queued={shed_bound}")
    if not (identical_contigs and identical_ledgers):
        print("WARNING: cached runs diverged from the uncached baseline")
    if not retry_identical:
        print("WARNING: retried run diverged from the clean baseline")
    if warm.hit_rate <= 0.0:
        print("WARNING: warm run had no cache hits")

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
