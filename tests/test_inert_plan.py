"""An armed fault plan with nothing scheduled changes nothing.

The fault layer observes the one program; it never selects another. A run
under an empty ``FaultPlan`` must therefore be the unarmed run exactly: the
same modeled seconds, every telemetry counter and peak but the plan's own
``fault_ops``, the same sorted runs held in host memory, and the same bytes
in every workdir file and contig. This is what makes the crash loop and the
chaos sweeps a test of the program the benchmark measures.
"""

from __future__ import annotations

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.distributed import DistributedAssembler
from repro.extmem import PartitionStore
from repro.faults import FaultPlan, inject
from repro.seq.datasets import tiny_dataset

MIN_OVERLAP = 25

INCORE = MemoryConfig(256 << 20, 16 << 20, name="incore-like")
OUTOFCORE = MemoryConfig(64_000, 16_000, name="outofcore-like")
CRAMPED = MemoryConfig(40_000, 16_000, name="cramped")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads of 50 bp, 25 overlap lengths."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("inert-data"),
                         genome_length=2000, read_length=50, coverage=20.0,
                         min_overlap=MIN_OVERLAP, seed=11)
    return md


@pytest.fixture()
def holds(monkeypatch):
    """The ``(side, length)`` of every sorted run held in host memory."""
    kept = []
    keep = PartitionStore.keep

    def counting(self, side, length, records, allocation=None):
        kept.append((side, length))
        keep(self, side, length, records, allocation)

    monkeypatch.setattr(PartitionStore, "keep", counting)
    return kept


def _files(workdir) -> dict[str, bytes]:
    """Every file under ``workdir``, by relative path."""
    return {str(path.relative_to(workdir)): path.read_bytes()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def _telemetry(result) -> dict:
    """Every counter and peak of every phase row, but the plan's own."""
    return {stats.name: ({name: value for name, value in stats.counters.items()
                          if name != "fault_ops"}, dict(stats.peaks))
            for stats in result.telemetry}


def _armed_and_unarmed(run, tmp_path, holds):
    """``run(workdir)`` unarmed, then under an empty plan."""
    outcomes = []
    for name, plan in (("unarmed", None), ("armed", FaultPlan())):
        holds.clear()
        workdir = tmp_path / name
        if plan is None:
            result = run(workdir)
        else:
            with inject(plan):
                result = run(workdir)
            assert plan.ops_seen > 0 and not plan.events
        outcomes.append((result, list(holds), _files(workdir)))
    return outcomes


@pytest.mark.parametrize("lanes", (1, 2))
@pytest.mark.parametrize("memory", (INCORE, OUTOFCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_an_empty_plan_leaves_the_assembler_alone(data, tmp_path, holds,
                                                  memory, lanes):
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=lanes,
                            memory=memory)
    (plain, plain_held, plain_files), (armed, armed_held, armed_files) = \
        _armed_and_unarmed(lambda workdir: Assembler(config).assemble(
            data.store_path, workdir=workdir, resume=True), tmp_path, holds)
    assert sum(armed.phase_seconds(simulated=True).values()) \
        == sum(plain.phase_seconds(simulated=True).values())
    assert _telemetry(armed) == _telemetry(plain)
    assert armed_held == plain_held
    assert armed.telemetry["reduce"].counters["sorted_runs_held"] > 0
    assert armed_files == plain_files
    assert armed.contigs.flat_codes.tobytes() == plain.contigs.flat_codes.tobytes()
    assert armed.contigs.offsets.tobytes() == plain.contigs.offsets.tobytes()


@pytest.mark.parametrize("n_nodes", (1, 4))
def test_an_empty_plan_leaves_the_cluster_alone(data, tmp_path, holds, n_nodes):
    config = AssemblyConfig(min_overlap=MIN_OVERLAP, memory=OUTOFCORE)
    (plain, plain_held, plain_files), (armed, armed_held, armed_files) = \
        _armed_and_unarmed(lambda workdir: DistributedAssembler(
            config, n_nodes).assemble(data.store_path, workdir=workdir),
            tmp_path, holds)
    assert armed.total_seconds == plain.total_seconds
    assert armed.phase_seconds == plain.phase_seconds
    assert armed.per_node_seconds == plain.per_node_seconds
    assert armed.notes == plain.notes
    assert armed.token_trace == plain.token_trace
    assert armed.shuffle_bytes == plain.shuffle_bytes
    assert armed.reduce_report == plain.reduce_report
    assert armed_held == plain_held and plain_held
    assert armed_files == plain_files
    assert armed.contigs.flat_codes.tobytes() == plain.contigs.flat_codes.tobytes()
    assert armed.contigs.offsets.tobytes() == plain.contigs.offsets.tobytes()
