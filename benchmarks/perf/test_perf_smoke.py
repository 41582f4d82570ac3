"""Plumbing check of the perf benchmark (``pytest benchmarks/perf``, ~30 s).

Outside tier-1's ``testpaths`` on purpose: it runs the whole benchmark at
``--smoke`` size twice. It checks the harness, not the program's speed.
"""

from __future__ import annotations

import json
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from perf_metrics import exact_names  # noqa: E402
from perf_spans import CAPTURE_INSTANCES, TARGETS, self_times  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]


def _target_attributes() -> dict:
    found = {}
    for module, cls, attr, *_ in TARGETS + tuple(
            (module, cls, "__init__") for module, cls in CAPTURE_INSTANCES):
        owner = import_module(module)
        owner = getattr(owner, cls) if cls else owner
        found[(module, cls, attr)] = vars(owner)[attr]
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two full ``--smoke`` sets with one seed, plus what surrounded them."""
    directory = tmp_path_factory.mktemp("perf")
    before = _target_attributes()
    sets = []
    for index in range(2):
        out = directory / f"set{index}.json"
        argv = ["--smoke", "--seed", "7", "--out", str(out)]
        if index == 0:
            argv += ["--trace-out", str(directory / "spans.jsonl")]
        assert run.main(argv) == 0
        sets.append(json.loads(out.read_text()))
    return {"sets": sets, "before": before, "after": _target_attributes(),
            "directory": directory}


def test_names_match_the_catalogue(smoke):
    for document in smoke["sets"]:
        assert list(document["workloads"]) == WORKLOADS
        for result in document["workloads"].values():
            assert list(result["end_to_end"]) == \
                [entry["name"] for entry in CATALOGUE["end_to_end"]]
            assert list(result["per_layer"]) == \
                [entry["name"] for entry in CATALOGUE["per_layer"]]
            for view in ("end_to_end", "per_layer"):
                units = {entry["name"]: entry["unit"] for entry in CATALOGUE[view]}
                assert {name: value["unit"] for name, value
                        in result[view].items()} == units


def test_driver_contract_last_line(capsys):
    for trace, view in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--smoke", "--workload", "incore", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [entry["name"] for entry in CATALOGUE[view]]


def test_every_wrapped_attribute_is_restored(smoke):
    assert smoke["before"].keys() == smoke["after"].keys()
    for key, original in smoke["before"].items():
        assert smoke["after"][key] is original, key
        assert not hasattr(original, "__wrapped__"), key


def test_no_target_is_missing_and_time_is_attributed(smoke):
    for document in smoke["sets"]:
        for name, result in document["workloads"].items():
            layers = result["per_layer"]
            assert layers["bench.targets_missing"]["value"] == 0, name
            assert layers["bench.unattributed_frac"]["value"] <= 0.05, name


def test_self_times_sum_to_the_traced_wall(smoke):
    spans: dict[str, list[dict]] = {}
    with open(smoke["directory"] / "spans.jsonl") as handle:
        for line in handle:
            span = json.loads(line)
            spans.setdefault(span["workload"], []).append(span)
    assert sorted(spans) == sorted(WORKLOADS)
    for name, rows in spans.items():
        total = float(self_times(
            np.array([row["t0"] for row in rows]),
            np.array([row["t1"] for row in rows]),
            np.array([row["parent"] for row in rows], dtype=np.int64),
            np.array([row["thread"] for row in rows], dtype=np.int64)).sum())
        wall = rows[0]["t1"] - rows[0]["t0"]
        assert rows[0]["layer"] == "bench" and rows[0]["parent"] == -1
        if name.startswith("serve"):
            # Two job threads overlap: their self times add up past the wall.
            assert 0.98 * wall <= total <= 2.02 * wall, name
        else:
            assert abs(total - wall) <= 0.02 * wall, name


def test_nothing_is_left_behind(smoke):
    assert run.leftovers() == []
    assert not list(ROOT.glob(".perf_work_*"))


def test_same_seed_gives_identical_counts(smoke):
    first, second = smoke["sets"]
    exact = exact_names(CATALOGUE)
    assert len(exact) > 20
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in exact:
            assert a["per_layer"][metric]["value"] == \
                b["per_layer"][metric]["value"], (name, metric)
        for metric in ("sim_s", "genome_fraction", "dup_ratio"):
            assert a["end_to_end"][metric]["value"] == \
                b["end_to_end"][metric]["value"], (name, metric)


def test_compare_of_one_commit(smoke, capsys):
    directory = smoke["directory"]
    first, second = directory / "set0.json", directory / "set1.json"
    # A set agrees with itself, whichever side it is named on.
    assert run.main(["--compare", str(first), str(first)]) == 0
    capsys.readouterr()
    # Smoke timings are two samples of a few hundred ms: "worse" is possible
    # by noise between two sets, so only the table's shape is asserted, and
    # that the verdicts do not depend on the order of the two sets.
    code = run.main(["--compare", str(first), str(second)])
    table = capsys.readouterr().out
    assert "count differs" not in table
    assert table.count("\n") >= len(WORKLOADS) * (len(CATALOGUE["end_to_end"]) + 2)
    for extra in ("wall_s", "failed_frac"):
        assert table.count(f" {extra} ") == len(WORKLOADS)
    assert run.main(["--compare", str(second), str(first)]) == code
    capsys.readouterr()


def test_compare_rejects_a_moved_count_and_a_failure(smoke, capsys):
    directory = smoke["directory"]
    original = smoke["sets"][0]
    for label, edit in (
            ("count", lambda w: w["per_layer"]["core.map.batches"].update(
                value=w["per_layer"]["core.map.batches"]["value"] + 1)),
            ("failed", lambda w: w.update(failed=1, failed_frac=0.5)),
            ("quality", lambda w: w["end_to_end"]["dup_ratio"].update(
                value=w["end_to_end"]["dup_ratio"]["value"] * 1.001))):
        changed = json.loads(json.dumps(original))
        edit(changed["workloads"]["outofcore"])
        path = directory / f"changed_{label}.json"
        path.write_text(json.dumps(changed))
        assert run.main(["--compare", str(directory / "set0.json"),
                         str(path)]) == 1, label
        table = capsys.readouterr().out
        assert ("count differs" in table) == (label == "count")
        assert table.rstrip().endswith("1 worse"), label
