"""Shared fixtures for the test suite."""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import AssemblyConfig, MemoryConfig
from repro.core.checkpoint import file_digest
from repro.core.compress_phase import run_compress
from repro.core.context import RunContext
from repro.core.load_phase import run_load
from repro.core.map_phase import run_map
from repro.core.reduce_phase import run_reduce
from repro.core.residency import Residency
from repro.core.sort_phase import run_sort
from repro.extmem import PartitionStore
from repro.faults import FaultPlan, cells, inject, sample
from repro.seq.datasets import tiny_dataset
from repro.seq.records import ReadBatch
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.trace import pair_spans


#: ``REPRO_SWEEP=full`` runs every cell of the three fault sweeps
#: (``test_write_faults``, ``test_distributed_write_faults`` and
#: ``test_service_resilience``); without it each runs its tier-1 sample.
FULL_SWEEP = os.environ.get("REPRO_SWEEP") == "full"

#: How the fault sweeps' cells ended, by module: ``clean`` (the clean
#: run's result) or ``raised`` (a named error); ``rerun`` counts the cells,
#: of either outcome, whose armed run died and that needed the unarmed
#: rerun.
SWEEP_OUTCOMES: defaultdict[str, Counter] = defaultdict(Counter)


class Probe:
    """A sweep module's clean run, taken when the module is collected (its
    cells are the sweep's parameters): ``run(workdir)`` under an empty
    plan, its result, trace and cells at ``sites``.

    A probe that raises does not fail the module's collection, which would
    take the module's other tests down with it: its cells are one ``None``,
    and ``clean`` and ``trace`` raise the probe's error in each test that
    reads them.
    """

    def __init__(self, run, workdir: Path, sites=None):
        plan = FaultPlan()
        try:
            with inject(plan):
                self._clean, self._error = run(workdir), None
        except Exception as exc:
            self._clean, self._error = None, exc
        self._trace = plan.trace
        self.failed = self._error is not None
        self.cells = [None] if self.failed else cells(plan.trace, workdir,
                                                      sites)

    @property
    def clean(self):
        if self.failed:
            raise self._error
        return self._clean

    @property
    def trace(self) -> list:
        if self.failed:
            raise self._error
        return self._trace


def swept(probe: Probe, fraction: float, pinned=frozenset()) -> list:
    """The cells a sweep module runs: all of them under ``REPRO_SWEEP=full``
    (or the ``None`` of a failed probe); else the seeded sample at
    ``fraction`` and the cells whose key is ``pinned``."""
    if FULL_SWEEP or probe.failed:
        return probe.cells
    picked = {cell.key for cell in sample(probe.cells, fraction)} | pinned
    return [cell for cell in probe.cells if cell.key in picked]


def cell_id(cell) -> str:
    """A sweep cell's test id (``probe`` for a failed probe's ``None``)."""
    return "probe" if cell is None else cell.id


def named_error(module: str, cell, error) -> None:
    """Count a cell of ``module`` that ended with a named ``error`` and
    fail it. Every cell of the three sweeps resumes to the clean result,
    and the one named error a sweep has met (a cluster rerun's
    ``StreamProtocolError``) was a fault of recovery, not a refusal."""
    SWEEP_OUTCOMES[module]["raised"] += 1
    pytest.fail(f"{cell.key} ended with a named error: {error}")


def probe_root(prefix: str) -> Path:
    """A directory for a sweep's probe; removed at exit."""
    root = Path(tempfile.mkdtemp(prefix=prefix))
    atexit.register(shutil.rmtree, root, True)
    return root


def pytest_terminal_summary(terminalreporter):
    for module, outcomes in sorted(SWEEP_OUTCOMES.items()):
        terminalreporter.write_line(
            f"{module}: {outcomes['clean']} cells with the clean result, "
            f"{outcomes['raised']} with a named error; {outcomes['rerun']} "
            f"needed the rerun")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def tiny(tmp_path_factory):
    """A miniature materialized dataset plus its in-memory reads.

    Session-scoped: the artefacts are read-only; assemblies use private
    workdirs.
    """
    root = tmp_path_factory.mktemp("tiny-data")
    return tiny_dataset(root, genome_length=2000, read_length=50,
                        coverage=20.0, min_overlap=25, seed=11)


@pytest.fixture(scope="session")
def tiny_md(tiny):
    return tiny[0]


@pytest.fixture(scope="session")
def tiny_batch(tiny) -> ReadBatch:
    return tiny[1]


@pytest.fixture()
def laptop_config() -> AssemblyConfig:
    """Default single-batch configuration for small functional tests."""
    return AssemblyConfig(min_overlap=25)


@pytest.fixture()
def cramped_config() -> AssemblyConfig:
    """A configuration forcing multi-pass external sorting via the explicit
    block-size overrides (the same knobs the Fig. 8 sweep uses)."""
    return AssemblyConfig(
        min_overlap=25,
        host_block_pairs=500,
        device_block_pairs=128,
    )


def make_reads(genome_length: int = 1200, read_length: int = 40,
               coverage: float = 15.0, seed: int = 5,
               error_rate: float = 0.0) -> ReadBatch:
    """Helper: simulate an in-memory read batch."""
    genome = simulate_genome(genome_length, seed=seed)
    return ReadSimulator(genome=genome, read_length=read_length,
                         coverage=coverage, seed=seed + 1,
                         error_rate=error_rate).all_reads()


def colliding_sources(directory):
    """Two FASTQ files that differ only where the ledger digest does not look.

    Same size, same first and last 64 KB (all ``file_digest`` hashes); 200
    reads in the middle of the second are poly-A. A cache key or a job
    identity built on ``file_digest`` cannot tell them apart.
    """
    first, second = directory / "a.fastq", directory / "b.fastq"
    genome = simulate_genome(5000, seed=77)
    ReadSimulator(genome, 40, 20.0, seed=77).to_fastq(first)
    lines = first.read_text().splitlines(keepends=True)
    n_reads = len(lines) // 4
    for read in range(n_reads // 2 - 100, n_reads // 2 + 100):
        lines[4 * read + 1] = "A" * 40 + "\n"
    second.write_text("".join(lines))
    assert file_digest(first) == file_digest(second)
    assert first.read_bytes() != second.read_bytes()
    return first, second


#: ``graph.npz`` layouts this program must not load (:func:`foreign_graph`).
FOREIGN_GRAPH_LAYOUTS = ("int64-target", "in-degree-member", "uint16-overlap",
                         "four-entry-meta")


def foreign_graph(path, layout: str) -> None:
    """Rewrite the ``graph.npz`` at ``path``: the same graph, another layout.

    ``int64-target`` is the layout before the graph was compacted (an int64
    ``target`` with ``-1`` for no edge, a uint16 ``overlap`` and a uint8
    ``in_degree``); the other three differ from today's in one member only.
    ``four-entry-meta`` is the archive of a program that kept duplicate
    reads (no ``reads_closed`` in ``meta``): the same reads' graph with
    every duplicate still on a path, which must never be served.
    """
    with np.load(path) as archive:
        members = dict(archive)
    target = members["target"]
    no_edge = target == np.uint32(0xFFFF_FFFF)
    if layout == "int64-target":
        members["target"] = np.where(no_edge, -1, target.astype(np.int64))
    if layout in ("int64-target", "uint16-overlap"):
        members["overlap"] = members["overlap"].astype(np.uint16)
    if layout == "four-entry-meta":
        members["meta"] = members["meta"][:4]
    if layout in ("int64-target", "in-degree-member"):
        members["in_degree"] = np.bincount(
            target[~no_edge], minlength=target.shape[0]).astype(np.uint8)
    np.savez(path, **members)


def spans_by_name(events) -> defaultdict[str, list[dict]]:
    """A trace's spans and instants, grouped by name: what a counted event
    left on the timeline, to hold against the meter that owns its count."""
    groups: defaultdict[str, list[dict]] = defaultdict(list)
    for span in pair_spans(events)[0]:
        groups[span["name"]].append(span)
    return groups


def spy_held_runs(patch) -> dict:
    """The bytes of every sorted run held from now on (``patch`` is a
    ``MonkeyPatch``), by the path its file would have: a held run has none."""
    held = {}
    keep = PartitionStore.keep

    def spying(self, side, length, records, allocation=None):
        held[self.path(side, length, sorted_run=True)] = records.tobytes()
        keep(self, side, length, records, allocation)

    patch.setattr(PartitionStore, "keep", spying)
    return held


#: The residency plan's question for each artifact it may keep in host
#: memory (:class:`~repro.core.residency.Residency`).
_PLACEMENTS = {"store": "hold_store", "partitions": "keep", "runs": "hold"}


@pytest.fixture(scope="session")
def on_disk():
    """The placement reference: ``with on_disk("runs"):`` every run started
    inside holds no sorted run, ``"partitions"`` keeps no unsorted
    partition and ``"store"`` no packed store in host memory;
    ``on_disk()`` places all three on disk. Nothing else of a run moves."""
    @contextmanager
    def placing(*artifacts):
        with pytest.MonkeyPatch.context() as patch:
            for artifact in artifacts or _PLACEMENTS:
                patch.setattr(Residency, _PLACEMENTS[artifact],
                              lambda self, *args: False)
            yield

    return placing


def sorted_runs(root, held: dict | None = None) -> dict[str, bytes]:
    """The sorted runs of the partition directory ``root`` by file name:
    its files, and the runs ``held`` (:func:`spy_held_runs`) kept there."""
    runs = {path.name: path.read_bytes() for path in root.glob("*.sorted.run")}
    for path, records in (held or {}).items():
        if path.parent == root:
            assert path.name not in runs, f"{path} is held and written"
            runs[path.name] = records
    return runs


def eager_composition(config: AssemblyConfig, store_path, workdir) -> SimpleNamespace:
    """The paper's eager schedule: sort every partition, then reduce them all.

    The reference ``Assembler``'s lazy schedule is compared against: the
    plain phase composition, nothing filtered (the cluster's, too, when all
    its lengths go in one round). The sorted partitions stay under
    ``workdir / "partitions"``.
    """
    ctx = RunContext(config, workdir=workdir)
    try:
        store = run_load(ctx, store_path)
        try:
            partitions, map_report = run_map(ctx, store)
            sort_report = run_sort(ctx, partitions)
            graph, reduce_report = run_reduce(ctx, partitions, store)
            out = SimpleNamespace(
                target=graph.target.copy(), overlap=graph.overlap.copy(),
                out_bits=graph.out_bits.to_bytes(), n_edges=graph.n_edges,
                n_reads=store.n_reads, read_length=store.read_length,
                map_report=map_report, sort_report=sort_report,
                reduce_report=reduce_report, partitions=partitions,
                host_peak_bytes=ctx.host_pool.lifetime_peak_bytes)
            out.contigs, _ = run_compress(ctx, graph, store)
        finally:
            store.close()
    finally:
        ctx.cleanup()
    return out
