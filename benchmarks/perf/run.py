"""The repo's one perf benchmark: five workloads, end to end and per layer.

Two ways in, one code path:

* the driver's contract — one workload per process::

      python3 benchmarks/perf/run.py --workload outofcore --seed 7 \\
          --seconds 10 --trace 0|1

  prints the metrics by name and, as the last line of stdout, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``);

* the full set — every workload, both views, in one process::

      python3 benchmarks/perf/run.py [--seed 7] [--out FILE]
          [--trace-out FILE] [--smoke]

``--compare A.json B.json`` judges two ``--out`` files against the bounds in
``BENCHMARK.json``. See benchmarks/perf/README.md for the catalogue.

Exit code 0 only if every output verified, nothing was left behind and (for
``--compare``) nothing got worse.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Environment switches of the program that would change what is measured.
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_LEGACY_SCAN",
                "REPRO_LEGACY_IO", "REPRO_SCALE", "REPRO_BENCH_DATA")

#: Timed repetitions behind every reported ``wall_s`` and ``peak_rss_mb``;
#: more only while ``--seconds`` have not passed.
MIN_REPETITIONS = 5
#: Untraced repetitions a ``--trace 1`` run measures its overheads against.
TRACE_BASE_REPETITIONS = 3
#: Wall seconds after which a workload is reported as failed; checked
#: *between* repetitions only, nothing is ever interrupted.
WORKLOAD_BUDGET_S = 150.0


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process.

    Freed heap goes back to the kernel first: the mark restarts from the
    current resident set, and what earlier repetitions and workloads left
    in the allocator's free lists is not this repetition's memory.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass  # not glibc: the mark then starts from a fuller heap
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # peak_rss_mb then covers the process's whole life


def _status_mb(field: str) -> float:
    """``VmHWM`` (peak resident set) or ``VmRSS`` (current) of this process."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit(f"perf: /proc/self/status has no {field}")


def leftovers() -> list[str]:
    """Threads, child processes and task children still alive (should be none)."""
    import multiprocessing

    found = [f"thread {t.name}" for t in threading.enumerate()
             if t is not threading.main_thread()]
    found += [f"child process {p.pid}" for p in multiprocessing.active_children()]
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            found += [f"child pid {pid}" for pid in children.read_text().split()]
        except OSError:
            pass
    return found


class Measurement:
    """Runs one workload's set-up and repetitions inside ``scratch``."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch / workload.name
        self.started = time.perf_counter()
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.peaks_mb: list[float] = []
        #: Resident set each run started from (what the process already held).
        self.floors_mb: list[float] = []
        self.observations: list = []
        self._counter = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_time(self) -> bool:
        if self.elapsed() > WORKLOAD_BUDGET_S:
            self.problems.append(
                f"{self.workload.name}: time budget of {WORKLOAD_BUDGET_S:.0f} s "
                "exceeded; stopped between repetitions")
            return True
        return False

    def _fresh(self, label: str) -> Path:
        self._counter += 1
        path = self.scratch / f"{label}{self._counter:03d}"
        path.mkdir(parents=True)
        return path

    def set_up(self) -> float:
        """Generate the inputs and warm up once; returns ``setup_s``."""
        directory = self._fresh("setup")
        start = time.perf_counter()
        self.workload.prepare(self.seed, directory)
        self.workload.warm_up(directory / "warmup")
        seconds = time.perf_counter() - start
        shutil.rmtree(directory / "warmup", ignore_errors=True)
        return seconds

    def one(self, **run_args):
        """One complete run in a fresh workdir: ``(wall, peak MB, observation)``."""
        workdir = self._fresh("run")
        _reset_peak_rss()
        self.floors_mb.append(_status_mb("VmRSS"))
        start = time.perf_counter()
        raw = self.workload.run(workdir, **run_args)
        wall = time.perf_counter() - start
        # Read before verification, whose references are assemblies too.
        peak_mb = _status_mb("VmHWM")
        observation = self.workload.observe(raw)
        # Removed before the next repetition: dirty pages of a deleted file
        # are never written back, which keeps disk noise out of the walls.
        shutil.rmtree(workdir, ignore_errors=True)
        return wall, peak_mb, observation

    def repeat(self, *, seconds: float, at_least: int) -> None:
        """Timed, untraced repetitions: ``at_least`` and until ``seconds`` passed."""
        start = time.perf_counter()
        while len(self.walls) < at_least or time.perf_counter() - start < seconds:
            if self.out_of_time():
                break
            wall, peak_mb, observation = self.one()
            self.walls.append(wall)
            self.peaks_mb.append(peak_mb)
            # Held for the traced repetition only: every repetition's
            # contigs would grow the resident set with the repetition count.
            observation.results, observation.report = [], None
            self.observations.append(observation)

    def verdict(self, extra: list = ()) -> tuple[int, int]:
        """``(attempted, failed)`` over every observation, with the
        cross-repetition identity checks folded in."""
        observations = self.observations + list(extra)
        attempted = sum(obs.attempted for obs in observations)
        failed = sum(obs.failed for obs in observations)
        for obs in observations:
            self.problems.extend(obs.problems)
        if len({obs.digest for obs in observations}) > 1:
            self.problems.append(f"{self.workload.name}: repetitions produced "
                                 "different contigs")
        if len({obs.sim_s for obs in observations}) > 1:
            self.problems.append(f"{self.workload.name}: repetitions disagree on "
                                 "sim_s")
        attempted = max(attempted, 1)
        if self.problems and not failed:
            failed = 1
        return attempted, min(failed, attempted)


def end_to_end(measurement: Measurement, setup_s: float) -> dict[str, float]:
    last = measurement.observations[-1]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(measurement.peaks_mb),
        "sim_s": last.sim_s,
        "genome_fraction": last.genome_fraction,
        "dup_ratio": last.dup_ratio,
    }


def traced_views(measurement: Measurement, span_sink) -> tuple[dict, list]:
    """The traced repetition, the program-tracer repetition, and the
    per-layer metrics derived from them (plus the extra observations)."""
    from perf_metrics import per_layer
    from perf_spans import SpanRecorder

    workload = measurement.workload
    recorder = SpanRecorder()
    workdir = measurement._fresh("traced")
    with recorder.installed():
        with recorder.span("bench", workload.name) as root:
            raw = workload.run(workdir)
    traced_wall = recorder.t1[root] - recorder.t0[root]
    traced = workload.observe(raw)
    shutil.rmtree(workdir, ignore_errors=True)
    if span_sink is not None:
        recorder.write_jsonl(span_sink, workload.name)

    program_trace: dict = {}
    if workload.program_tracer and not measurement.out_of_time():
        trace_dir = measurement._fresh("program-trace")
        wall, _, observation = measurement.one(trace_dir=str(trace_dir))
        manifest = json.loads((trace_dir / "manifest.json").read_text())
        program_trace = {
            "wall": wall, "spans": manifest["n_spans"],
            "file_bytes": sum(f.stat().st_size for f in trace_dir.iterdir())}
        extra_observations = [traced, observation]
    else:
        extra_observations = [traced]

    extras_dir = measurement._fresh("extras")
    extras = {"workers": workload.config.resolved_workers(),
              **workload.layer_extras(raw, extras_dir)}
    shutil.rmtree(extras_dir, ignore_errors=True)
    metrics = per_layer(base_walls=measurement.walls,
                        base_observations=measurement.observations,
                        recorder=recorder, traced_wall=traced_wall,
                        traced_observation=traced, program_trace=program_trace,
                        extras=extras)
    return metrics, extra_observations


def measure(workload, *, seed: int, scratch: Path, seconds: float,
            views: tuple[str, ...], catalogue: dict, smoke: bool,
            span_sink=None) -> dict:
    """Measure one workload; ``views`` picks ``end_to_end`` and/or ``per_layer``."""
    from perf_metrics import check_names, summarize

    measurement = Measurement(workload, seed, scratch)
    want_e2e = "end_to_end" in views
    if smoke:
        at_least, seconds = 2, 0.0
    elif want_e2e:
        at_least = MIN_REPETITIONS
    else:
        at_least, seconds = TRACE_BASE_REPETITIONS, 0.0
    setup_s = measurement.set_up()
    measurement.repeat(seconds=seconds, at_least=at_least)
    out: dict = {"workload": workload.name}
    if not measurement.observations:
        measurement.problems.append(f"{workload.name}: no repetition completed")
        out.update(correct=False, attempted=1, failed=1, failed_frac=1.0,
                   problems=measurement.problems)
        return out
    out["wall_s"] = statistics.median(measurement.walls)
    out["samples"] = {
        "wall_s": summarize(measurement.walls),
        "setup_s": summarize([setup_s]),
        "peak_rss_mb": {**summarize(measurement.peaks_mb),
                        "floor": statistics.median(measurement.floors_mb)}}
    if want_e2e:
        out["end_to_end"] = check_names(
            end_to_end(measurement, setup_s),
            catalogue["end_to_end"], "end-to-end")
    extra: list = []
    if "per_layer" in views:
        metrics, extra = traced_views(measurement, span_sink)
        out["per_layer"] = check_names(metrics, catalogue["per_layer"], "per-layer")
    attempted, failed = measurement.verdict(extra)
    out.update(correct=not measurement.problems, attempted=attempted,
               failed=failed, failed_frac=failed / attempted,
               problems=measurement.problems)
    shutil.rmtree(measurement.scratch, ignore_errors=True)
    return out


def print_metrics(result: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    name = result["workload"]
    shown = dict(result.get("end_to_end", {}))
    # Every run measures wall_s; the catalogue lists it per layer (README).
    shown.update(result.get("per_layer")
                 or {"wall_s": {"value": result.get("wall_s", 0.0), "unit": "s"}})
    for metric, entry in shown.items():
        line = f"{name:13s} {metric:36s} {entry['value']:.6g} {entry['unit']}"
        sample = result.get("samples", {}).get(metric)
        if sample and sample["n"] > 1:
            line += (f"  (q1 {sample['q1']:.4g} q3 {sample['q3']:.4g} min "
                     f"{sample['min']:.4g} max {sample['max']:.4g} "
                     f"n={sample['n']})")
        print(line)
    status = "ok" if result["correct"] else "FAILED"
    print(f"{name:13s} {'failed_frac':36s} {result['failed_frac']:.6g} ratio  "
          f"(verification {status}: {result['failed']} failed of "
          f"{result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"{name:13s} problem: {problem}")


def stamp(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    commit = ""
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.exists() else ref
    return {"commit": commit, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this one workload "
                        "(the driver's contract); default: all five")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed repetitions of a workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                        "1 = per-layer metrics from the traced repetition")
    parser.add_argument("--out", type=Path, help="write the full set as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced repetitions' spans as JSON lines")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, 1 warm-up + 2 repetitions (plumbing check)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="judge --out file B against A and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, str(HERE))
    if args.compare:
        from perf_compare import compare

        return compare(*args.compare, ROOT)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perf: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    from perf_metrics import load_catalogue
    import perf_workloads

    catalogue = load_catalogue(ROOT)
    names = [entry["name"] for entry in catalogue["workloads"]]
    workloads = perf_workloads.build(
        perf_workloads.SMOKE if args.smoke else perf_workloads.FULL)
    if list(workloads) != names:
        print(f"perf: workloads {list(workloads)} differ from BENCHMARK.json "
              f"{names}", file=sys.stderr)
        return 2
    if args.workload and args.workload not in workloads:
        print(f"perf: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    results = []
    saved_tempdir = tempfile.tempdir
    span_sink = args.trace_out.open("w") if args.trace_out else None
    try:
        # Everything the run writes lives in one directory inside the
        # checkout, removed on the way out whatever happens.
        with tempfile.TemporaryDirectory(prefix=".perf_work_", dir=ROOT) as scratch:
            tempfile.tempdir = scratch
            if args.workload:
                views = ("per_layer",) if args.trace else ("end_to_end",)
                selected = [args.workload]
            else:
                views = ("end_to_end", "per_layer")
                selected = names
            for name in selected:
                result = measure(workloads[name], seed=args.seed,
                                 scratch=Path(scratch), seconds=args.seconds,
                                 views=views, catalogue=catalogue,
                                 smoke=args.smoke, span_sink=span_sink)
                print_metrics(result)
                results.append(result)
    finally:
        tempfile.tempdir = saved_tempdir
        if span_sink is not None:
            span_sink.close()

    left = leftovers()
    for entry in left:
        print(f"perf: left behind: {entry}", file=sys.stderr)
    correct = all(result["correct"] for result in results) and not left
    if args.out:
        args.out.write_text(json.dumps(
            {"stamp": stamp(args.seed), "smoke": args.smoke,
             "workloads": {result["workload"]: result for result in results}},
            indent=1) + "\n")
    if args.workload:
        result = results[0]
        view = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result.get(view, {})}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
