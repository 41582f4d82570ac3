"""The residency plan: where a run keeps its store, partitions and runs.

One :class:`~repro.core.residency.Residency` plan a run (one a cluster
node) decides which artifacts stay in host memory. The placements are
pinned by the host-pool reservations they make: ``held-store`` for the
packed store, ``held-partition`` for each reservation of kept unsorted
partitions (a pull's, a piece's, a band's: one a partition side),
``held-run`` for each sorted run held for reduce, ``held-seeds`` for the
fingerprints the map's bands leave each other, one a held read range; a
sorted run that is not held spills to its file.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core.residency import Residency
from repro.device.memory import MemoryPool
from repro.distributed import DistributedAssembler
from repro.distributed.resilience import BLOCKS_PER_NODE
from repro.errors import ConfigError
from repro.extmem import ExternalSorter
from repro.extmem.partitions import length_of
from repro.faults import FaultPlan, inject
from repro.faults.plan import MESSAGE, NODE_CRASH, WRITE, Fault
from repro.graph import GreedyStringGraph

from .conftest import spy_held_runs

MIN_OVERLAP = 25
#: The conftest in-core budget (the default 1 GB host) and the ``cramped``
#: one, where every partition is a file and the longest runs spill.
BUDGETS = {
    "in-core": AssemblyConfig(min_overlap=MIN_OVERLAP),
    "cramped": AssemblyConfig(min_overlap=MIN_OVERLAP, memory=MemoryConfig(
        40_000, 16_000, name="cramped")),
}


@pytest.fixture()
def placements(monkeypatch) -> Counter:
    """Host-pool reservations by label, and ``sorted``: the sorts run."""
    counts = Counter()
    alloc, sort_file = MemoryPool.alloc, ExternalSorter.sort_file

    def counting_alloc(self, nbytes, *, label=""):
        counts[label] += 1
        return alloc(self, nbytes, label=label)

    def counting_sort(self, *args, **kwargs):
        counts["sorted"] += 1
        return sort_file(self, *args, **kwargs)

    monkeypatch.setattr(MemoryPool, "alloc", counting_alloc)
    monkeypatch.setattr(ExternalSorter, "sort_file", counting_sort)
    return counts


def _assemble(config: AssemblyConfig, n_nodes: int, store_path):
    if n_nodes == 1:
        return Assembler(config).assemble(store_path)
    return DistributedAssembler(config, n_nodes).assemble(store_path)


@pytest.mark.parametrize(("budget", "n_nodes", "expected"), [
    # held store, kept-partition reservations, held runs, spilled runs;
    # in-core, each node holds the read blocks it maps. On two nodes
    # ``P_L`` is two key ranges: one more pulled partition and sorted run,
    # and the range each holder's piece keeps when it is cut; cramped, the
    # ranges fit one piece each where the whole ``P_L`` spilled.
    ("in-core", 1, (1, 51, 51, 0)),
    ("in-core", 2, (2, 156, 52, 0)),
    ("cramped", 1, (0, 0, 46, 5)),
    ("cramped", 2, (0, 0, 47, 5)),
])
def test_placements_are_the_measured_ones(tiny_md, placements, budget,
                                          n_nodes, expected):
    """The counts the per-artifact rules gave before there was one plan,
    and a held store a node once the cluster's nodes held their blocks."""
    _assemble(BUDGETS[budget], n_nodes, tiny_md.store_path)
    held = placements["held-run"]
    assert (placements["held-store"], placements["held-partition"], held,
            placements["sorted"] - held) == expected


@pytest.mark.parametrize(("budget", "n_nodes"), [
    ("in-core", 1), ("in-core", 2), ("cramped", 1), ("cramped", 2)])
def test_fingerprints_are_held_where_the_store_is(tiny_md, placements,
                                                  budget, n_nodes):
    """One ``held-seeds`` reservation for each read range a plan holds
    (a single node's store, a node's dealt blocks), none out of core."""
    _assemble(BUDGETS[budget], n_nodes, tiny_md.store_path)
    expected = {("in-core", 1): 1, ("in-core", 2): 2 * BLOCKS_PER_NODE}
    assert placements["held-seeds"] == expected.get((budget, n_nodes), 0)


@pytest.mark.parametrize("n_nodes", (1, 2))
def test_a_run_builds_one_plan_a_node(tiny_md, monkeypatch, n_nodes):
    built = []
    init = Residency.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Residency, "__init__", counting)
    _assemble(BUDGETS["in-core"], n_nodes, tiny_md.store_path)
    assert len(built) == n_nodes


def test_a_held_run_leaves_the_graph_room(tiny_md, monkeypatch):
    """Why the plan keeps no room for the graph beside a held run.

    A run is offered for holding once its sort block, twice its bytes, has
    fit and been let go, so holding it leaves its own bytes free; before
    the graph exists a run is unfiltered, one record a vertex, and a record
    is larger than the graph's share of a vertex. On two nodes each owns
    one key range of ``P_L``, half of its records, still more than the
    graph's bytes; node 1, which never builds the graph, holds its range's
    run, as a single node holds ``P_L``'s, and the contigs are the single
    node's.
    """
    offers = []
    hold = Residency.hold

    def spying(self, partitions, side, length, more, records):
        offers.append((length, self.ctx.host_pool.free_bytes - records.nbytes,
                       records.nbytes))
        return hold(self, partitions, side, length, more, records)

    monkeypatch.setattr(Residency, "hold", spying)
    held = spy_held_runs(monkeypatch)
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, memory=MemoryConfig(
        80_000, 16_000, name="whole-read-run-in-one-piece"))
    single = Assembler(config).assemble(tiny_md.store_path)
    cluster = DistributedAssembler(config, 2).assemble(tiny_md.store_path)
    assert cluster.contigs.flat_codes.tobytes() \
        == single.contigs.flat_codes.tobytes()
    read_length = single.read_length
    graph_bytes = GreedyStringGraph.bytes_for(single.n_reads, read_length)
    assert all(free >= nbytes for _, free, nbytes in offers)
    whole = [nbytes for length, _, nbytes in offers
             if length_of(length) == read_length]
    assert len(whole) == 3 and min(whole) > graph_bytes
    whole_runs = {path.parent.parent.name for path in held
                  if path.name.startswith(f"P_{read_length:05d}")}
    assert "node01" in whole_runs


def test_a_pull_retried_in_place_starts_its_partition_again(tiny_md):
    """The destination of a fetch dies in the middle of a pull: it
    restarts, and the pull runs again on its own node, which was not
    restarted. A kept partition starts again instead of growing by what
    the first attempt appended, so the token sees what a clean pull
    gives."""
    config = BUDGETS["in-core"]
    clean = DistributedAssembler(config, 2).assemble(tiny_md.store_path)
    probe = FaultPlan()
    with inject(probe):
        DistributedAssembler(config, 2).assemble(tiny_md.store_path)
    fetches = [point for point in probe.trace if point.site == MESSAGE
               and point.path.endswith(":fetch_partition")]
    # The first pull's second fetch: the first producer's piece is in.
    plan = FaultPlan([Fault(NODE_CRASH, site=MESSAGE, at_op=fetches[1].op)])
    with inject(plan):
        retried = DistributedAssembler(config, 2).assemble(tiny_md.store_path)
    assert [event.kind for event in plan.events] == [NODE_CRASH]
    assert retried.notes["node_restarts"] == 1
    assert retried.notes["records_shuffled"] == clean.notes["records_shuffled"]
    assert retried.reduce_report == clean.reduce_report
    assert retried.contigs.flat_codes.tobytes() \
        == clean.contigs.flat_codes.tobytes()


@pytest.mark.parametrize("n_nodes", [1, 2])
def test_a_sort_block_that_cannot_fit_is_refused_before_it_is_needed(
        tiny_md, tmp_path, n_nodes):
    """An explicit ``host_block_pairs`` of 2,000 with 2 lanes asks 40,000 B
    of each sort once the partitions outgrow it. 36 kB cannot hold that
    at all: the run stops before it maps. 40 kB holds it, but not beside
    the 8,200 B graph: the run stops after ``P_L``, before it maps an
    overlap length, not in the next sort. 56 kB holds both."""
    def config(host_kb: int) -> AssemblyConfig:
        return AssemblyConfig(
            min_overlap=MIN_OVERLAP, fingerprint_lanes=2,
            host_block_pairs=2000,
            memory=MemoryConfig(host_kb * 1000, 16_000, name="explicit"))

    def assemble(host_kb: int, workdir):
        if n_nodes == 1:
            return Assembler(config(host_kb)).assemble(tiny_md.store_path,
                                                       workdir=workdir)
        return DistributedAssembler(config(host_kb), n_nodes).assemble(
            tiny_md.store_path, workdir=workdir)

    with pytest.raises(ConfigError, match=r"sort block of 40,000 B does "
                       r"not fit in 36,000 B of host memory"):
        assemble(36, tmp_path / "36")
    assert not list((tmp_path / "36").rglob("*.run"))
    plan = FaultPlan()
    with inject(plan), pytest.raises(
            ConfigError, match=r"sort block of 40,000 B beside "
            r"the 8,200 B string graph does not fit in 40,000 B"):
        assemble(40, tmp_path / "40")
    written = [point.path for point in plan.trace
               if point.site == WRITE and point.path.endswith(".run")]
    assert written and all("/P_00050" in path for path in written)
    assert assemble(56, tmp_path / "56").contigs.n_contigs > 0
