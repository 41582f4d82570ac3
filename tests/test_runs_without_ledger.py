"""A checkpoint ledger adds its own files, and nothing else.

A sorted run the sort holds for reduce is never written, with a ledger
(``resume=True``) or without: the ledger vouches for the runs that spill
and a resume maps and sorts again what has no file. Nothing else may
move: the sorted runs written, the contigs, the graph and the map, sort
and reduce reports are the ledger run's, on an in-core budget and on one
that keeps every band on disk. A content-store
run without a ledger still puts its ``reduce`` entry, and a later ledger
run served from it, or recomputing once its graph is gone, gives the same
bytes.
"""

from __future__ import annotations

import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core.checkpoint import GRAPH_FILE
from repro.faults import result_digest
from repro.seq.datasets import tiny_dataset
from repro.service import ContentStore

MIN_OVERLAP = 25
READ_LENGTH = 50
SORTED_RUNS = 2 * (READ_LENGTH - MIN_OVERLAP) + 1

INCORE = MemoryConfig(256 << 20, 16 << 20, name="incore-like")
#: Every band on disk, and some runs too large to hold.
CRAMPED = MemoryConfig(40_000, 16_000, name="cramped")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """800 reads of 50 bp."""
    md, _ = tiny_dataset(tmp_path_factory.mktemp("ledgerless-data"),
                         genome_length=2000, read_length=READ_LENGTH,
                         coverage=20.0, min_overlap=MIN_OVERLAP, seed=11)
    return md


def _config(memory: MemoryConfig) -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, seed=7, memory=memory)


def _held(result) -> int:
    return int(result.telemetry["reduce"].counters.get("sorted_runs_held", 0))


def _sorted_runs(workdir) -> list:
    return sorted((workdir / "partitions").glob("*.sorted.run"))


def _files(workdir) -> set[str]:
    return {str(path.relative_to(workdir))
            for path in workdir.rglob("*") if path.is_file()}


@pytest.mark.parametrize("memory", (INCORE, CRAMPED),
                         ids=lambda memory: memory.name)
def test_a_ledger_changes_the_files_alone(data, tmp_path, memory):
    config = _config(memory)
    plain = Assembler(config).assemble(data.store_path,
                                       workdir=tmp_path / "plain",
                                       gfa_path=tmp_path / "plain.gfa")
    ledger = Assembler(config).assemble(data.store_path,
                                        workdir=tmp_path / "ledger",
                                        resume=True,
                                        gfa_path=tmp_path / "ledger.gfa")
    assert result_digest(plain) == result_digest(ledger)
    assert plain.map_report == ledger.map_report
    assert plain.sort_report == ledger.sort_report
    assert plain.reduce_report == ledger.reduce_report
    assert (tmp_path / "plain.gfa").read_bytes() \
        == (tmp_path / "ledger.gfa").read_bytes()
    # The same runs are held either way, and neither run writes them: the
    # ledger run adds its ledger and its graph archive alone.
    assert _held(plain) == _held(ledger) > 0
    written = _sorted_runs(tmp_path / "plain")
    assert len(written) == SORTED_RUNS - _held(plain)
    for run in written:
        assert run.read_bytes() \
            == (tmp_path / "ledger" / "partitions" / run.name).read_bytes()
    assert _files(tmp_path / "ledger") - _files(tmp_path / "plain") \
        == {"state.json", GRAPH_FILE}
    assert _files(tmp_path / "plain") < _files(tmp_path / "ledger")


def test_a_cache_entry_put_without_a_ledger_serves_ledger_runs(data, tmp_path):
    config = _config(INCORE)
    reference = Assembler(config).assemble(data.store_path,
                                           workdir=tmp_path / "reference",
                                           resume=True)
    cache = ContentStore(tmp_path / "cache", 1 << 30)
    first = Assembler(config, content_store=cache).assemble(
        data.store_path, workdir=tmp_path / "first")
    assert cache.stats()["cache_puts"] == 2  # load, and reduce's graph
    assert _sorted_runs(tmp_path / "first") == []

    served_dir = tmp_path / "served"
    served = Assembler(config, content_store=cache).assemble(
        data.store_path, workdir=served_dir, resume=True)
    assert cache.stats()["cache_hits"] == 2
    assert not (served_dir / "partitions").exists()
    for result in (first, served):
        assert result_digest(result) == result_digest(reference)
    assert (served_dir / GRAPH_FILE).read_bytes() \
        == (tmp_path / "reference" / GRAPH_FILE).read_bytes()

    # The graph gone and no cache to fetch it from: the ledger run maps,
    # sorts and reduces again, to the same graph and reports.
    (served_dir / GRAPH_FILE).unlink()
    recomputed = Assembler(config).assemble(data.store_path,
                                            workdir=served_dir, resume=True)
    assert result_digest(recomputed) == result_digest(reference)
    assert (served_dir / GRAPH_FILE).read_bytes() \
        == (tmp_path / "reference" / GRAPH_FILE).read_bytes()
