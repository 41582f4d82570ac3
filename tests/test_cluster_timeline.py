"""The cluster's modeled timeline, pinned float for float.

Seven runs of one small dataset (an 1,800 bp genome, 50 bp reads at 18x,
seed 31): two clean ones (3 nodes in-core, 2 nodes on a cramped budget)
and five under a fault (a restart at a reduce, a node lost at its pull, a
partition dropped after two nodes are lost, a failed reduce attempt, a
crash in a round's map). For each, ``cluster_timeline.json`` pins the
``float.hex`` of every ``phase_seconds`` and ``per_node_seconds`` entry,
of ``total_seconds`` and of the token trace's ``sim0`` / ``sim1`` /
``wasted_s``, the same of the whole-read length's key-range closes
(``range_trace``), and the notes, the reduce report, the lost nodes and
the contigs' sha256. Every value was computed on 472aaed, before one helper
booked every stretch of a cluster round: a change that reorders a sum of
modeled seconds, or books a stretch twice, moves one of them. The
compress seconds, the totals and ``am_messages`` were pinned again when
compress began to gather each read block from the node that holds it
(one ``fetch_block`` message a block the master does not hold); nothing
else moved. The four in-core cases were pinned again when each map round
began to descend from the fingerprints the round above left instead of
folding every read again (DESIGN.md, *the banded map folds each read
once*): their map seconds fell, every later float moved with the clocks
it sums, and the cramped cases, which hold no fingerprints, did not move.
Every case was pinned again when round 0 was split by key range across
every owner (DESIGN.md §2d, *round 0 runs on every node*): round 0's sort
and reduce fell, each holder's shuffle reads one range piece more (an
8 ms seek each on the cramped budget), every other owner pulls its range
(``am_messages``), each range is a partition (``partitions_processed``,
``window_rounds``) closed off the token, and the faults that name an
operation (``node02:pull``, now round 0's) land where it now is.

``python tests/test_cluster_timeline.py`` prints the record of every case
as JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.distributed import DistributedAssembler
from repro.faults import CRASH, NODE, NODE_CRASH, READ, Fault, FaultPlan, inject
from repro.seq.datasets import tiny_dataset

GOLDEN = Path(__file__).with_name("cluster_timeline.json")

IN_CORE = AssemblyConfig(min_overlap=25)
#: 40 kB of host: every round's pieces and pulls are files.
CRAMPED = AssemblyConfig(min_overlap=25, memory=MemoryConfig(40_000, 16_000))

#: Case → (config, nodes, faults). ``match`` is an ``fnmatch`` pattern:
#: ``[[]`` is a literal ``[``.
CASES = {
    "clean-3-incore": (IN_CORE, 3, ()),
    "clean-2-cramped": (CRAMPED, 2, ()),
    "restart-at-reduce": (IN_CORE, 3, (
        Fault(NODE_CRASH, site=NODE, match="*:reduce[[]40]"),)),
    "lost-at-pull": (IN_CORE, 3, (
        Fault(NODE_CRASH, site=NODE, match="node02:pull", once=False),)),
    "degraded-drop": (IN_CORE, 3, (
        Fault(NODE_CRASH, site=NODE, match="*:reduce[[]40]", once=False),)),
    "failed-attempt": (CRAMPED, 2, (
        Fault(CRASH, site=READ, match="*P_00040.sorted.run"),)),
    "map-crash": (CRAMPED, 2, (
        Fault(NODE_CRASH, site=NODE, match="node01:map-round"),)),
}


def _store(root: Path) -> Path:
    md, _ = tiny_dataset(root, genome_length=1800, read_length=50,
                         coverage=18.0, min_overlap=25, seed=31)
    return md.store_path


def _hop(hop: dict) -> list:
    floats = ("sim0", "sim1") if hop["ok"] else ("wasted_s",)
    return [hop["length"], *([hop["range"]] if "range" in hop else []),
            hop["node"], hop["attempt"], hop["ok"],
            *(hop[name].hex() for name in floats)]


def record(store_path: Path, case: str) -> dict:
    """One case's run, as the JSON ``cluster_timeline.json`` pins."""
    config, n_nodes, faults = CASES[case]
    plan = FaultPlan(faults)
    with inject(plan):
        result = DistributedAssembler(config, n_nodes).assemble(store_path)
    assert bool(plan.events) == bool(faults), case  # every fault fires
    digest = hashlib.sha256(result.contigs.flat_codes.tobytes()
                            + result.contigs.offsets.tobytes()).hexdigest()
    return {
        "phase_seconds": {phase: seconds.hex() for phase, seconds
                          in result.phase_seconds.items()},
        "per_node_seconds": {phase: [seconds.hex() for seconds in per_node]
                             for phase, per_node
                             in result.per_node_seconds.items()},
        "total_seconds": result.total_seconds.hex(),
        "token_trace": [_hop(hop) for hop in result.token_trace],
        "range_trace": [_hop(hop) for hop in result.range_trace],
        "notes": result.notes,
        "reduce_report": result.reduce_report.to_json(),
        "lost_nodes": list(result.lost_nodes),
        "contigs_sha256": digest,
    }


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return _store(tmp_path_factory.mktemp("cluster-timeline"))


@pytest.mark.parametrize("case", list(CASES))
def test_the_modeled_timeline_is_pinned(store_path, case):
    # Through JSON, as the golden file went: per_length_edges' keys are
    # strings there; phases and nodes keep their order (a float sum's).
    got = json.loads(json.dumps(record(store_path, case)))
    want = json.loads(GOLDEN.read_text())[case]
    for key in want:
        assert got[key] == want[key], key
    assert got.keys() == want.keys()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = _store(Path(tmp))
        print(json.dumps({case: record(path, case) for case in CASES},
                         indent=1))
