"""Derive the benchmark's metrics from what the runs returned.

Names, units, directions and bounds live in ``BENCHMARK.json`` only; this
module computes a value for every name listed there and :func:`check_names`
refuses to report if the two sets differ.

Per-layer sources (the three kinds in benchmarks/perf/README.md):

* *c*, exact counts: the reports the public calls return (kept by the
  recorder for calls whose reports the result objects do not carry) and the
  meters of every ``RunContext`` created during the traced repetition;
* *t*, self time and calls: the recorder's spans, summed per layer;
* *d*, derived: ratios of the above, each named with its base.

A metric that does not apply to a workload (``distributed.*`` on
``incore``) reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

PHASES = ("load", "map", "sort", "reduce", "compress")


def load_catalogue(root: Path) -> dict:
    """``BENCHMARK.json`` as a dict (the one metric catalogue)."""
    return json.loads((root / "BENCHMARK.json").read_text())


def exact_names(catalogue: dict) -> list[str]:
    """Per-layer metrics that must repeat exactly from run to run.

    The counts and byte totals — except the size of the program's own trace
    files, whose wall-clock stamps print with a varying number of digits.
    """
    return [entry["name"] for entry in catalogue["per_layer"]
            if entry["unit"] in ("count", "B")
            and entry["name"] != "trace.file_bytes"]


def check_names(values: dict, entries: list[dict], what: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the catalogue's ``entries``."""
    wanted = [entry["name"] for entry in entries]
    if set(values) != set(wanted):
        raise SystemExit(
            f"perf: {what} metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(wanted) - set(values))}, "
            f"unlisted {sorted(set(values) - set(wanted))}")
    return {entry["name"]: {"value": float(values[entry["name"]]),
                            "unit": entry["unit"]} for entry in entries}


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, extremes and count of a timing sample."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _context_counts(contexts: list) -> dict[str, float]:
    """Sum the meters (max the peaks) of every captured ``RunContext``."""
    total: dict[str, float] = {}
    peaks = {"device_peak_bytes": 0.0, "host_peak_bytes": 0.0}
    for ctx in contexts:
        for meter in (ctx.clock, ctx.accountant, ctx.gpu.pool, ctx.gpu.buffers,
                      ctx.executor.meter):
            for key, value in meter.counters().items():
                total[key] = total.get(key, 0.0) + value
        peaks["device_peak_bytes"] = max(peaks["device_peak_bytes"],
                                         float(ctx.gpu.pool.lifetime_peak_bytes))
        peaks["host_peak_bytes"] = max(peaks["host_peak_bytes"],
                                       float(ctx.host_pool.lifetime_peak_bytes))
    return {**total, **peaks}


def per_layer(*, base_walls: list[float], base_observations: list,
              recorder, traced_wall: float, traced_observation,
              program_trace: dict, extras: dict) -> dict[str, float]:
    """Every per-layer metric of one workload, by name."""
    from repro.seq.stats import assembly_stats  # src/ is on the path by now

    wall = statistics.median(base_walls)
    spans = recorder.by_key()
    layers: dict[str, tuple[float, int, float]] = {}
    for (layer, _name), (busy, calls, units) in spans.items():
        previous = layers.get(layer, (0.0, 0, 0.0))
        layers[layer] = (previous[0] + busy, previous[1] + calls,
                         previous[2] + units)

    def busy(layer: str) -> float:
        return layers.get(layer, (0.0, 0, 0.0))[0]

    def calls(layer: str) -> int:
        return layers.get(layer, (0.0, 0, 0.0))[1]

    out: dict[str, float] = {"wall_s": wall}
    for phase in PHASES:
        out[f"core.{phase}.wall_s"] = statistics.median(
            obs.phase_wall.get(phase, 0.0) for obs in base_observations)
        out[f"core.{phase}.self_s"] = busy(f"core.{phase}")
    out["core.pipeline.self_s"] = busy("core.pipeline")

    results = traced_observation.results
    map_reports = [ret[1] for ret in recorder.returns.get("run_map", ())]
    sort_reports = recorder.returns.get("ExternalSorter.sort_file", ())
    reduce_reports = [result.reduce_report for result in results]
    candidates = sum(report.candidates for report in reduce_reports)
    out["core.map.batches"] = sum(report.n_batches for report in map_reports)
    out["core.map.tuples"] = sum(report.tuples_written for report in map_reports)
    out["core.reduce.window_rounds"] = sum(r.window_rounds for r in reduce_reports)
    out["core.reduce.candidates"] = candidates
    out["core.checkpoint.busy_s"] = busy("core.checkpoint")
    out["core.checkpoint.marks"] = calls("core.checkpoint")

    out["seq.busy_s"] = busy("seq")
    out["seq.calls"] = calls("seq")
    fingerprint = layers.get("fingerprint", (0.0, 0, 0.0))
    out["fingerprint.busy_s"] = fingerprint[0]
    out["fingerprint.calls"] = fingerprint[1]
    out["fingerprint.reads_per_call"] = _ratio(fingerprint[2], fingerprint[1])

    counts = _context_counts(recorder.instances.get("RunContext", ()))
    out["device.busy_s"] = busy("device")
    out["device.launches"] = calls("device")
    out["device.us_per_launch"] = _ratio(busy("device") * 1e6, calls("device"))
    out["device.allocs"] = counts.get("device_allocs", 0.0)
    out["device.peak_bytes"] = counts.get("device_peak_bytes", 0.0)
    out["device.sim_kernel_s"] = counts.get("sim_kernel_seconds", 0.0)
    out["device.sim_transfer_s"] = (counts.get("sim_h2d_seconds", 0.0)
                                    + counts.get("sim_d2h_seconds", 0.0))
    out["device.bufpool_hit_frac"] = _ratio(
        counts.get("bufpool_hits", 0.0),
        counts.get("bufpool_hits", 0.0) + counts.get("bufpool_misses", 0.0))

    appends = spans.get(("extmem.streams", "RunWriter.append"), (0.0, 0, 0.0))
    out["extmem.streams.busy_s"] = busy("extmem.streams")
    out["extmem.streams.calls"] = calls("extmem.streams")
    out["extmem.streams.records_per_append"] = _ratio(appends[2], appends[1])
    out["extmem.sort.busy_s"] = busy("extmem.sort")
    out["extmem.partitions.busy_s"] = busy("extmem.partitions")
    out["extmem.sort.disk_passes"] = max(
        (report.disk_passes for report in sort_reports), default=0)
    out["extmem.sort.merge_rounds"] = max(
        (report.merge_rounds for report in sort_reports), default=0)
    disk_bytes = (counts.get("disk_read_bytes", 0.0)
                  + counts.get("disk_write_bytes", 0.0))
    out["extmem.disk_read_bytes"] = counts.get("disk_read_bytes", 0.0)
    out["extmem.disk_write_bytes"] = counts.get("disk_write_bytes", 0.0)
    out["extmem.disk_ops"] = (counts.get("disk_read_ops", 0.0)
                              + counts.get("disk_write_ops", 0.0))
    out["extmem.disk_seeks"] = counts.get("disk_seeks", 0.0)
    out["extmem.host_peak_bytes"] = counts.get("host_peak_bytes", 0.0)
    input_bases = sum(result.n_reads * result.read_length for result in results)
    out["extmem.io_amplification"] = _ratio(disk_bytes, input_bases)

    assembly = assembly_stats(
        length for result in results for length in result.contigs.lengths())
    out["graph.busy_s"] = busy("graph")
    out["graph.calls"] = calls("graph")
    out["graph.accept_frac"] = _ratio(
        sum(report.edges_added for report in reduce_reports), candidates)
    out["graph.contigs"] = assembly["n_contigs"]
    out["graph.n50"] = assembly["n50"]

    out["parallel.workers"] = extras.get("workers", 0)
    out["parallel.busy_s"] = counts.get("par_busy_s", 0.0)
    out["parallel.wait_s"] = counts.get("par_wait_s", 0.0)

    distributed = extras.get("distributed")
    sim = distributed.phase_seconds if distributed else {}
    sort_nodes = distributed.per_node_seconds["sort"] if distributed else []
    layers_am = recorder.instances.get("ActiveMessageLayer", ())
    out["distributed.overhead_ratio"] = _ratio(wall, extras.get("incore_wall", 0.0))
    out["distributed.shuffle_bytes"] = distributed.shuffle_bytes if distributed else 0
    out["distributed.message_bytes"] = sum(am.total_bytes for am in layers_am)
    out["distributed.token_hops"] = sum(
        1 for hop in distributed.token_trace if hop["ok"]) if distributed else 0
    for phase in ("map", "shuffle", "sort", "reduce"):
        out[f"distributed.sim_{phase}_s"] = sim.get(phase, 0.0)
    out["distributed.node_skew"] = _ratio(max(sort_nodes, default=0.0),
                                          float(np.mean(sort_nodes))
                                          if sort_nodes else 0.0)
    out["distributed.messages"] = calls("distributed.messages")
    out["distributed.supervisor.busy_s"] = busy("distributed.supervisor")
    out["distributed.cluster.self_s"] = busy("distributed.cluster")

    report = traced_observation.report
    job_walls = [wall for obs in base_observations for wall in obs.job_walls]
    cache = report.cache if report is not None else {}
    counters = report.counters if report is not None else {}
    out["service.jobs_per_s"] = _ratio(
        statistics.median(obs.n_done for obs in base_observations), wall)
    out["service.cold_over_uncached"] = _ratio(wall, extras.get("uncached_wall", 0.0))
    out["service.pipeline_runs"] = counters.get("pipeline_runs", 0.0)
    out["service.singleflight_joined"] = counters.get("singleflight_joined", 0.0)
    out["service.cache.hits"] = cache.get("cache_hits", 0.0)
    out["service.cache.misses"] = cache.get("cache_misses", 0.0)
    out["service.cache.puts"] = cache.get("cache_puts", 0.0)
    out["service.cache.hit_frac"] = cache.get("hit_rate", 0.0)
    out["service.cache.bytes"] = cache.get("bytes", 0.0)
    out["service.job_wall_p50_s"] = statistics.median(job_walls) if job_walls else 0.0
    out["service.job_wall_max_s"] = max(job_walls, default=0.0)
    out["service.cache.fetch_busy_s"] = busy("service.cache.fetch")
    out["service.cache.put_busy_s"] = busy("service.cache.put")
    out["service.sched_self_s"] = busy("service.sched")

    out["trace.overhead_frac"] = _ratio(program_trace["wall"], wall) - 1.0 \
        if program_trace else 0.0
    out["trace.spans"] = program_trace.get("spans", 0)
    out["trace.file_bytes"] = program_trace.get("file_bytes", 0)

    out["bench.trace_overhead_frac"] = _ratio(traced_wall, wall) - 1.0
    out["bench.unattributed_frac"] = _ratio(busy("bench"), traced_wall)
    out["bench.targets_missing"] = len(recorder.missing)
    return out
