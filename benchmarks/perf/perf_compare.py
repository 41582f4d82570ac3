"""``--compare A B``: judge set B against set A by the catalogue's bounds.

One row per end-to-end metric x workload, plus ``failed_frac`` and, shown
but not judged, the demoted ``wall_s``:

* ``ok``          B is no worse than A by more than the metric's bound;
* ``worse``       it is, and the runs were steady enough to say so;
* ``unresolved``  either set's own spread (interquartile range / median of
  its per-repetition samples) is wider than the bound, or the metric moved
  past its bound but was timed once per set (``setup_s``) and so has no
  spread to judge the move by, or the two ``peak_rss_mb`` were taken on
  top of resident sets that differ by more than the bound: nothing can be
  claimed.

Two sets of one commit have no better and no worse side: there a move of
more than the bound in *either* direction is ``worse``, so the verdict does
not depend on which set is named first.

Per-layer metrics have no bound, but those that are exact counts
(:func:`perf_metrics.exact_names`) must not differ between two sets of one
seed: a count that moves means the work itself changed. Each difference is
listed and counts as ``worse``.

A set is an ``--out`` file, or ``FILE:N`` for set ``N`` of a file holding
``{"sets": [...]}`` (``results/baseline.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

from perf_metrics import exact_names

#: What the seed alone determines. BENCHMARK.json bounds these for the
#: driver, whose runs differ in seed; between two sets of one seed any move
#: for the worse is a regression.
SEED_EXACT = ("genome_fraction", "dup_ratio")

#: Shown with the end-to-end metrics although BENCHMARK.json does not list
#: them there. ``wall_s`` was demoted to a per-layer metric (README): like
#: all of those it has no bound, so its row is shown and not judged.
#: ``failed_frac`` reads 0, which a listed metric must not; any rise is worse.
WALL_S = {"name": "wall_s", "better": "lower", "bound": None}
FAILED_FRAC = {"name": "failed_frac", "better": "lower", "bound": 0.0}


def load_set(spec: Path) -> dict:
    """An ``--out`` document from ``FILE`` or ``FILE:N``."""
    path, _, index = str(spec).partition(":")
    document = json.loads(Path(path).read_text())
    return document["sets"][int(index or 0)] if "sets" in document else document


def _spread(result: dict, metric: str) -> float:
    sample = result.get("samples", {}).get(metric)
    if not sample or not sample["median"]:
        return 0.0
    return (sample["q3"] - sample["q1"]) / sample["median"]


def _floors_differ(a: dict, b: dict, bound: float) -> bool:
    """Whether the two processes held resident sets further apart than
    ``bound`` before the workload allocated anything. In a full set every
    workload starts from what the earlier ones left in the allocator, which
    does not repeat; a peak on top of it is then no statement about the
    workload."""
    floors = [r.get("samples", {}).get("peak_rss_mb", {}).get("floor")
              for r in (a, b)]
    return all(floors) and abs(floors[0] - floors[1]) > bound * min(floors)


def _timed_once(result: dict, metric: str) -> bool:
    return result.get("samples", {}).get(metric, {}).get("n") == 1


def _value(result: dict, metric: str) -> float:
    if metric in ("wall_s", "failed_frac"):
        return result[metric]
    return result["end_to_end"][metric]["value"]


def compare(spec_a: Path, spec_b: Path, root: Path) -> int:
    """Print the verdict table; returns the process exit code."""
    catalogue = json.loads((root / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(spec_a), load_set(spec_b)
    stamp_a, stamp_b = set_a.get("stamp", {}), set_b.get("stamp", {})
    print(f"A: {spec_a}  {json.dumps(stamp_a, sort_keys=True)}")
    print(f"B: {spec_b}  {json.dumps(stamp_b, sort_keys=True)}")
    same_seed = stamp_a.get("seed") == stamp_b.get("seed")
    same_commit = bool(stamp_a.get("commit")) and \
        stamp_a.get("commit") == stamp_b.get("commit")
    if same_commit:
        print("one commit: a move past the bound in either direction is worse")
    print(f"{'workload':13s} {'metric':16s} {'A':>12s} {'B':>12s} {'change':>8s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    worse = 0
    for workload in (entry["name"] for entry in catalogue["workloads"]):
        a, b = set_a["workloads"].get(workload), set_b["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload:13s} missing from {'A' if a is None else 'B'}")
            worse += 1
            continue
        for metric in [WALL_S] + catalogue["end_to_end"] + [FAILED_FRAC]:
            name = metric["name"]
            bound = 0.0 if same_seed and name in SEED_EXACT else metric["bound"]
            va, vb = _value(a, name), _value(b, name)
            base = min(va, vb) if same_commit else va
            change = (vb - va) / base if base else vb - va
            if metric["better"] == "higher":
                change = -change
            if same_commit:
                change = abs(change)
            spread = max(_spread(a, name), _spread(b, name))
            if bound is None:
                print(f"{workload:13s} {name:16s} {va:12.6g} {vb:12.6g} "
                      f"{change:+8.2%} {'-':>6s} {spread:7.2%}  per layer: no bound")
                continue
            if spread > bound:
                verdict = "unresolved"
            elif change <= bound:
                verdict = "ok"
            elif _timed_once(a, name) or _timed_once(b, name):
                verdict = "unresolved (one sample)"
            elif name == "peak_rss_mb" and _floors_differ(a, b, bound):
                verdict = "unresolved (floors differ)"
            else:
                verdict = "worse"
                worse += 1
            print(f"{workload:13s} {name:16s} {va:12.6g} {vb:12.6g} {change:+8.2%} "
                  f"{bound:6.1%} {spread:7.2%}  {verdict}")
        if not (a.get("correct") and b.get("correct")):
            print(f"{workload:13s} verification failed in "
                  f"{'A' if not a.get('correct') else 'B'}")
            worse += 1
        if not same_seed or "per_layer" not in a or "per_layer" not in b:
            continue
        for name in exact_names(catalogue):
            va = a["per_layer"][name]["value"]
            vb = b["per_layer"][name]["value"]
            if va != vb:
                print(f"{workload:13s} {name:36s} count differs: {va:g} -> {vb:g}")
                worse += 1
    print(f"{worse} worse")
    return 1 if worse else 0
