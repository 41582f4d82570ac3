"""Assembly service: fairness, admission, single-flight, telemetry."""

from __future__ import annotations

import pytest

from repro.config import AssemblyConfig, MemoryConfig, ServiceConfig
from repro.errors import AdmissionError, ConfigError
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.service import AssemblyService, JobQueue, JobSpec


def _write_reads(path, seed, *, genome_length=500, read_length=40,
                 coverage=5.0):
    genome = simulate_genome(genome_length, seed=seed)
    ReadSimulator(genome, read_length, coverage, seed=seed).to_fastq(path)
    return path


def _job_config(host=32 << 20, device=4 << 20):
    return AssemblyConfig(min_overlap=20,
                          memory=MemoryConfig(host, device, name="svc-test"))


@pytest.fixture()
def sources(tmp_path):
    """Four distinct tiny FASTQ inputs (distinct = no single-flight)."""
    return [_write_reads(tmp_path / f"reads{i}.fastq", seed=100 + i)
            for i in range(4)]


def _service(tmp_path, **overrides):
    defaults = dict(workdir=str(tmp_path / "svc"),
                    host_budget_bytes=256 << 20,
                    device_budget_bytes=32 << 20)
    defaults.update(overrides)
    return AssemblyService(ServiceConfig(**defaults))


# -- ServiceConfig validation --------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"max_parallel": 0},
    {"host_budget_bytes": 0},
    {"device_budget_bytes": -1},
    {"cache_bytes": 0},
    {"tenant_weights": {"a": 0.0}},
])
def test_service_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        ServiceConfig(**kwargs)


def test_tenant_weight_defaults_to_one():
    config = ServiceConfig(tenant_weights={"vip": 3.0})
    assert config.weight("vip") == 3.0
    assert config.weight("anyone-else") == 1.0


# -- per-job telemetry ---------------------------------------------------------


def test_service_telemetry_has_one_row_per_job_phase(tmp_path, sources):
    service = _service(tmp_path)
    config = _job_config()
    report = service.run_jobs([JobSpec("a", "t", sources[0], config),
                               JobSpec("b", "t", sources[1], config)])
    assert report.n_failed == 0
    # Each job's rows stay on its own result: same-named phases of two jobs
    # never meet in one Telemetry.
    a, b = (outcome.result.telemetry for outcome in report.outcomes)
    assert a is not b
    for telemetry in (a, b):
        assert [stats.name for stats in telemetry] \
            == ["load", "map", "sort", "reduce", "compress"]
    assert not hasattr(service, "telemetry")


# -- single-flight dedup -------------------------------------------------------


def test_identical_concurrent_jobs_execute_once(tmp_path, sources):
    """N identical jobs, cache off: exactly one pipeline execution."""
    service = _service(tmp_path)  # no cache_dir: dedup alone is at work
    config = _job_config()
    n = 5
    specs = [JobSpec(f"job{i}", f"tenant{i % 2}", sources[0], config)
             for i in range(n)]
    report = service.run_jobs(specs)
    assert report.n_done == n
    assert report.counters["pipeline_runs"] == 1
    assert report.counters["singleflight_joined"] == n - 1
    leader, *followers = report.outcomes
    assert leader.executed and leader.joined is None
    payload = leader.contig_bytes()
    assert payload
    for outcome in followers:
        assert not outcome.executed and outcome.joined == "job0"
        assert outcome.contig_bytes() == payload  # byte-identical results


def test_different_configs_do_not_dedup(tmp_path, sources):
    import dataclasses

    service = _service(tmp_path)
    base = _job_config()
    specs = [JobSpec("a", "t", sources[0], base),
             JobSpec("b", "t", sources[0],
                     dataclasses.replace(base, min_overlap=25))]
    report = service.run_jobs(specs)
    assert report.counters["pipeline_runs"] == 2
    assert "singleflight_joined" not in report.counters


def test_execution_only_knobs_still_dedup(tmp_path, sources):
    """Execution-only differences cannot split single-flight identity."""
    import dataclasses

    service = _service(tmp_path)
    base = _job_config()
    variant = dataclasses.replace(base, trace=str(tmp_path / "trace"))
    report = service.run_jobs([JobSpec("a", "t", sources[0], base),
                               JobSpec("b", "t", sources[0], variant)])
    assert report.counters["pipeline_runs"] == 1
    assert report.counters["singleflight_joined"] == 1


def test_failed_leader_promotes_its_follower(tmp_path):
    """A dead single-flight leader's follower is promoted, not failed.

    Both jobs run a degenerate input, so the promoted follower dies too —
    but it dies on *its own* execution (with its own error chain), instead
    of inheriting the leader's failure without ever running.
    """
    missing = tmp_path / "never-written.fastq"
    missing.write_bytes(b"@r\nACGT\n+\nIIII\n")  # readable but degenerate
    service = _service(tmp_path)
    config = _job_config()
    report = service.run_jobs([JobSpec("a", "t", missing, config),
                               JobSpec("b", "t", missing, config)])
    assert report.counters["pipeline_runs"] == 2
    assert report.counters["leader_promoted"] == 1
    leader, follower = report.outcomes
    assert leader.status == "quarantined" and leader.executed
    assert follower.status == "quarantined" and follower.executed
    assert follower.promoted_from == "a" and follower.joined is None
    assert leader.attempts == 1 and follower.attempts == 1
    assert follower.error_chain  # its own attempt's error, not the leader's
    assert {entry.job_id for entry in report.quarantine} == {"a", "b"}


def test_duplicate_job_ids_rejected(tmp_path, sources):
    service = _service(tmp_path)
    config = _job_config()
    # AdmissionError subclasses ServiceError subclasses ReproError, so
    # pre-existing catch-all handlers keep working.
    with pytest.raises(AdmissionError, match="duplicate job id"):
        service.run_jobs([JobSpec("same", "t", sources[0], config),
                          JobSpec("same", "t", sources[1], config)])


# -- weighted fair queuing -----------------------------------------------------


def test_jobqueue_orders_by_served_over_weight():
    queue = JobQueue(ServiceConfig(tenant_weights={"alice": 2.0}))
    config = _job_config()
    for index in range(6):
        queue.push(JobSpec(f"a{index}", "alice", f"/na/{index}", config))
    for index in range(3):
        queue.push(JobSpec(f"b{index}", "bob", f"/nb/{index}", config))
    order = []
    while len(queue):
        tenant = queue.pick()
        order.append(queue.pop(tenant).job_id)
        queue.charge(tenant, 1.0)
    # Tie at 0 served breaks to "alice"; thereafter argmin(served/weight).
    assert order == ["a0", "b0", "a1", "a2", "b1", "a3", "a4", "b2", "a5"]


def test_weighted_fair_prefix_bound(tmp_path, sources):
    """Every execution prefix tracks the 2:1 weight split within one job."""
    for index in range(4, 9):
        sources.append(_write_reads(tmp_path / f"extra{index}.fastq",
                                    seed=200 + index))
    service = _service(tmp_path, tenant_weights={"alice": 2.0})
    config = _job_config()
    specs = []
    for index in range(6):
        specs.append(JobSpec(f"a{index}", "alice", sources[index], config))
    for index in range(3):
        specs.append(JobSpec(f"b{index}", "bob", sources[6 + index], config))
    report = service.run_jobs(specs)
    assert report.n_failed == 0
    assert len(report.execution_order) == 9
    for prefix_len in range(1, 10):
        prefix = report.execution_order[:prefix_len]
        served_a = sum(1 for job in prefix if job.startswith("a"))
        served_b = prefix_len - served_a
        # Normalized service (served/weight) may never diverge by more
        # than one job's worth while both tenants still have work queued.
        if served_a < 6 and served_b < 3:
            assert abs(served_a / 2.0 - served_b / 1.0) <= 1.0
    assert report.tenants["alice"].served_units == 6.0
    assert report.tenants["bob"].served_units == 3.0


def test_unweighted_tenants_alternate(tmp_path, sources):
    service = _service(tmp_path)
    config = _job_config()
    specs = [JobSpec("a0", "alice", sources[0], config),
             JobSpec("a1", "alice", sources[1], config),
             JobSpec("b0", "bob", sources[2], config),
             JobSpec("b1", "bob", sources[3], config)]
    report = service.run_jobs(specs)
    assert report.execution_order == ["a0", "b0", "a1", "b1"]


# -- admission control ---------------------------------------------------------


def test_no_oversubscription_under_concurrency(tmp_path, sources):
    """Admitted demand never exceeds the budget even with parallel workers."""
    demand_host, demand_device = 32 << 20, 4 << 20
    service = _service(tmp_path, max_parallel=4,
                       host_budget_bytes=int(demand_host * 2.5),
                       device_budget_bytes=int(demand_device * 2.5))
    config = _job_config(demand_host, demand_device)
    specs = [JobSpec(f"job{i}", f"tenant{i}", src, config)
             for i, src in enumerate(sources)]
    report = service.run_jobs(specs)
    assert report.n_failed == 0
    # Budget fits 2 of the 4 demands: the pool peak proves only 2 ran at
    # once, and at least one job waited at admission.
    assert report.peak_host_bytes == 2 * demand_host
    assert report.peak_device_bytes == 2 * demand_device
    assert report.peak_host_bytes <= service.host_pool.capacity_bytes
    assert report.counters["admission_blocked"] >= 1
    assert service.host_pool.used_bytes == 0  # every grant released


def test_serial_admission_never_blocks(tmp_path, sources):
    service = _service(tmp_path, host_budget_bytes=64 << 20,
                       device_budget_bytes=8 << 20)
    config = _job_config()
    specs = [JobSpec(f"job{i}", "t", src, config)
             for i, src in enumerate(sources[:2])]
    report = service.run_jobs(specs)
    assert report.n_failed == 0
    assert "admission_blocked" not in report.counters
    assert report.peak_host_bytes == 32 << 20


def test_demand_beyond_budget_fails_fast(tmp_path, sources):
    service = _service(tmp_path, host_budget_bytes=16 << 20,
                       device_budget_bytes=2 << 20)
    hungry = _job_config(64 << 20, 8 << 20)
    fits = _job_config(8 << 20, 1 << 20)
    report = service.run_jobs([JobSpec("big", "t", sources[0], hungry),
                               JobSpec("ok", "t", sources[1], fits)])
    outcomes = {o.spec.job_id: o for o in report.outcomes}
    assert outcomes["big"].status == "failed"
    assert "exceeds the service budget" in outcomes["big"].error
    assert not outcomes["big"].executed
    assert outcomes["ok"].ok
    assert report.counters["admission_rejected"] == 1


# -- parallel execution --------------------------------------------------------


def test_parallel_results_match_serial(tmp_path, sources):
    config = _job_config()
    specs = [JobSpec(f"job{i}", f"tenant{i % 2}", src, config)
             for i, src in enumerate(sources)]
    serial = _service(tmp_path, workdir=str(tmp_path / "s1")).run_jobs(specs)
    parallel = _service(tmp_path, workdir=str(tmp_path / "s2"),
                        max_parallel=3).run_jobs(specs)
    assert serial.n_failed == 0 and parallel.n_failed == 0
    for a, b in zip(serial.outcomes, parallel.outcomes):
        assert a.contig_bytes() == b.contig_bytes()


_ARENA_PROBE = """
import ctypes, sys, threading
from repro.config import ServiceConfig
from repro.service import AssemblyService

libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]

AssemblyService(ServiceConfig(workdir=sys.argv[1], max_parallel=2))
barrier = threading.Barrier(4)

def allocate():
    barrier.wait()
    held = [bytearray(50_000) for _ in range(20)]
    barrier.wait()  # all four alive and holding memory at once

threads = [threading.Thread(target=allocate) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
handle = libc.fopen(sys.argv[2].encode(), b"w")
libc.malloc_info(0, handle)
libc.fclose(handle)
"""


def test_parallel_service_workers_share_one_malloc_arena(tmp_path):
    """Per-thread glibc arenas keep freed phase buffers resident in an
    amount that depends on thread timing; a parallel service caps them."""
    import ctypes
    import os
    import subprocess
    import sys

    if not hasattr(ctypes.CDLL(None), "malloc_info"):
        pytest.skip("allocator is not glibc")
    info = tmp_path / "malloc_info.xml"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    env.pop("MALLOC_ARENA_MAX", None)
    subprocess.run([sys.executable, "-c", _ARENA_PROBE, str(tmp_path / "svc"),
                    str(info)], check=True, env=env)
    assert info.read_text().count("<heap nr=") == 1


# -- the calling thread --------------------------------------------------------


def test_run_jobs_works_from_a_coroutine(tmp_path, sources):
    """The scheduler is a plain loop: a running event loop does not stop it."""
    import asyncio

    config = _job_config()
    specs = [JobSpec(f"job{i}", "t", src, config)
             for i, src in enumerate(sources[:2])]

    async def serve():
        return _service(tmp_path, max_parallel=2).run_jobs(specs)

    report = asyncio.run(serve())
    assert report.n_done == 2 and report.n_failed == 0


def test_importing_the_service_does_not_import_asyncio():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    probe = "import sys, repro.service; print('asyncio' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
