"""An in-core run writes only its runs of record.

After load, an in-core run (the default 1 GB budget) writes no unsorted
partition and no map piece: every band's partitions, the whole-read
band's ``P_L`` too, and every cluster round's pieces and pulled
partitions stay in host memory, and the sorted runs (the ledger's, and
resume's) are all the disk is written. Sort and reduce read no partition
byte and seek nowhere. The same holds on a single node, on a lone cluster
node and on four nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.distributed import ClusterSupervisor, DistributedAssembler
from repro.extmem import RunReader
from repro.faults import WRITE, FaultPlan, inject
from repro.seq.datasets import tiny_dataset

MIN_OVERLAP = 25
READ_LENGTH = 50
#: Every overlap length's two sorted runs, and ``P_L``'s one.
SORTED_RUNS = 2 * (READ_LENGTH - MIN_OVERLAP) + 1


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads of 50 bp."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("in-core-data"),
                         genome_length=2000, read_length=READ_LENGTH,
                         coverage=20.0, min_overlap=MIN_OVERLAP, seed=11)
    return md


@pytest.fixture(scope="module")
def config() -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7)


@pytest.fixture()
def opened(monkeypatch) -> list:
    """The path of every run file opened for reading off the disk: a
    partition's bytes reach the host through :class:`RunReader` alone."""
    paths = []
    init = RunReader.__init__

    def spying(self, path, *args, **kwargs):
        paths.append(str(path))
        init(self, path, *args, **kwargs)

    monkeypatch.setattr(RunReader, "__init__", spying)
    return paths


def _writes_after_load(plan: FaultPlan) -> list[str]:
    return [point.path for point in plan.trace
            if point.site == WRITE and point.phase != "load"]


def _only_sorted_runs(writes: list[str]) -> None:
    """Each write is a sorted run's, one a run (formed in one piece)."""
    assert len(writes) == SORTED_RUNS
    assert all(".sorted.run" in path for path in writes)
    assert not [path for path in writes if "/map_parts/" in path]


def test_a_single_node(data, config, tmp_path, opened):
    plan = FaultPlan()
    with inject(plan):
        result = Assembler(config).assemble(data.store_path,
                                            workdir=tmp_path, resume=True)
    _only_sorted_runs(_writes_after_load(plan))
    assert opened == []
    assert result.telemetry["map"].counters["disk_write_bytes"] == 0
    for phase in ("sort", "reduce"):
        counters = result.telemetry[phase].counters
        assert counters["disk_read_bytes"] == 0, phase
        assert counters["disk_seeks"] == 0, phase
    assert len(list((tmp_path / "partitions").glob("*.sorted.run"))) \
        == SORTED_RUNS
    assert not list((tmp_path / "partitions").glob("[SP]_?????.run"))


@pytest.mark.parametrize("n_nodes", (1, 4))
def test_a_cluster(data, config, tmp_path, opened, monkeypatch, n_nodes):
    """The nodes' disks, metered around every round's sort and reduce."""
    moved = []

    def metered(run, supervisor):
        """``run`` with every node's disk reads and seeks metered;
        ``supervisor`` picks the supervisor out of its arguments."""
        def wrapped(*args, **kwargs):
            nodes = supervisor(args).nodes
            before = [node.ctx.accountant.counters() for node in nodes]
            out = run(*args, **kwargs)
            for node, then in zip(nodes, before):
                now = node.ctx.accountant.counters()
                moved.append((run.__name__, node.node_id,
                              now["disk_read_bytes"] - then["disk_read_bytes"],
                              now["disk_seeks"] - then["disk_seeks"]))
            return out
        return wrapped

    monkeypatch.setattr(ClusterSupervisor, "sort_phase", metered(
        ClusterSupervisor.sort_phase, lambda args: args[0]))
    monkeypatch.setattr(DistributedAssembler, "_reduce", metered(
        DistributedAssembler._reduce, lambda args: args[1]))
    plan = FaultPlan()
    with inject(plan):
        result = DistributedAssembler(config, n_nodes).assemble(
            data.store_path, workdir=tmp_path)
    _only_sorted_runs(_writes_after_load(plan))
    assert opened == []
    assert {run for run, *_ in moved} == {"sort_phase", "_reduce"}
    assert all(read == 0 and seeks == 0 for _, _, read, seeks in moved), moved
    assert len(list(tmp_path.glob("node*/partitions/*.sorted.run"))) \
        == SORTED_RUNS
    assert not list(tmp_path.glob("node*/partitions/[SP]_?????.run"))
    assert not list(tmp_path.glob("node*/map_parts/*/*.run"))
    single = Assembler(config).assemble(data.store_path)
    assert np.array_equal(result.contigs.flat_codes, single.contigs.flat_codes)
    assert np.array_equal(result.contigs.offsets, single.contigs.offsets)
