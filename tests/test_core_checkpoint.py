"""Checkpoint/resume of the pipeline."""

import json

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig
from repro.core.checkpoint import (CheckpointManager, config_fingerprint,
                                   load_graph_file, GRAPH_FILE, STATE_FILE)
from repro.errors import ConfigError
from repro.faults import result_digest
from repro.graph import GreedyStringGraph
from repro.service.content_store import phase_key

from .conftest import colliding_sources


class TestCheckpointManager:
    def test_phase_ledger(self, tmp_path):
        manager = CheckpointManager(tmp_path, "abc")
        assert not manager.completed("load")
        manager.mark("load")
        manager.mark("map")
        reloaded = CheckpointManager(tmp_path, "abc")
        assert reloaded.completed("load") and reloaded.completed("map")

    def test_fingerprint_mismatch_discards(self, tmp_path):
        CheckpointManager(tmp_path, "abc").mark("load")
        other = CheckpointManager(tmp_path, "different")
        assert not other.completed("load")

    def test_corrupt_state_tolerated(self, tmp_path):
        (tmp_path / STATE_FILE).write_text("{not json")
        manager = CheckpointManager(tmp_path, "abc")
        assert not manager.completed("load")

    def test_invalidate_from(self, tmp_path):
        manager = CheckpointManager(tmp_path, "x")
        for phase in ("load", "map", "sort", "reduce"):
            manager.mark(phase)
        manager.invalidate_from("sort")
        assert manager.completed("map")
        assert not manager.completed("sort")
        assert not manager.completed("reduce")

    def test_graph_roundtrip(self, tmp_path):
        graph = GreedyStringGraph(10, 30)
        graph.add_candidates(np.array([0, 4]), np.array([2, 8]), 20)
        manager = CheckpointManager(tmp_path, "g")
        manager.save_graph(graph)
        restored = load_graph_file(tmp_path / GRAPH_FILE)
        assert restored is not None
        restored.check_invariants()
        assert restored.n_edges == graph.n_edges
        assert np.array_equal(restored.target, graph.target)

    def test_graph_missing_or_corrupt(self, tmp_path):
        assert load_graph_file(tmp_path / GRAPH_FILE) is None
        (tmp_path / GRAPH_FILE).write_bytes(b"junk")
        assert load_graph_file(tmp_path / GRAPH_FILE) is None


class TestFingerprint:
    def test_sensitive_to_config_and_source(self):
        a = config_fingerprint(AssemblyConfig(min_overlap=20), "s1")
        b = config_fingerprint(AssemblyConfig(min_overlap=21), "s1")
        c = config_fingerprint(AssemblyConfig(min_overlap=20), "s2")
        assert len({a, b, c}) == 3

    def test_insensitive_to_trace(self):
        import dataclasses
        base = AssemblyConfig(min_overlap=20)
        traced = dataclasses.replace(base, trace="/tmp/somewhere")
        assert config_fingerprint(base, "s") == config_fingerprint(traced, "s")

    def test_pinned_keys(self):
        """Adding or deleting a non-semantic config field moves neither key:
        every ledger and cache entry written before stays valid."""
        assert config_fingerprint(AssemblyConfig(), "s") == "06fbdc3a098e351b"
        assert phase_key("reduce", ["reads:abc"], AssemblyConfig()) \
            == "c5b9645ad7286c47b1cfb723"


class TestResume:
    def test_requires_workdir(self, tiny_md):
        with pytest.raises(ConfigError, match="workdir"):
            Assembler(AssemblyConfig(min_overlap=25)).assemble(
                tiny_md.store_path, resume=True)

    def test_resumed_run_matches_fresh(self, tmp_path, tiny_md):
        config = AssemblyConfig(min_overlap=25)
        fresh = Assembler(config).assemble(tiny_md.store_path,
                                           workdir=tmp_path / "fresh")
        work = tmp_path / "resumable"
        first = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                           resume=True)
        # Everything is checkpointed now; resume skips load..reduce.
        second = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                            resume=True)
        for result in (first, second):
            assert result.reduce_report.edges_added \
                == fresh.reduce_report.edges_added
            assert np.array_equal(result.contigs.flat_codes,
                                  first.contigs.flat_codes)
        # The resumed run re-read no partitions for sorting.
        state = json.loads((work / STATE_FILE).read_text())
        assert set(state["completed"]) == {"load", "map", "sort", "reduce"}

    def test_resume_after_partial_state(self, tmp_path, tiny_md):
        """Simulate an interruption: keep load+map+sort, drop reduce."""
        config = AssemblyConfig(min_overlap=25)
        work = tmp_path / "partial"
        full = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                          resume=True)
        manager = CheckpointManager(
            work, json.loads((work / STATE_FILE).read_text())["fingerprint"])
        manager.invalidate_from("reduce")
        (work / GRAPH_FILE).unlink()
        resumed = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                             resume=True)
        assert resumed.reduce_report.edges_added == full.reduce_report.edges_added

    def test_config_change_restarts_clean(self, tmp_path, tiny_md):
        work = tmp_path / "w"
        Assembler(AssemblyConfig(min_overlap=25)).assemble(
            tiny_md.store_path, workdir=work, resume=True)
        changed = Assembler(AssemblyConfig(min_overlap=30)).assemble(
            tiny_md.store_path, workdir=work, resume=True)
        assert changed.map_report.lengths[0] == 30
        state = json.loads((work / STATE_FILE).read_text())
        assert set(state["completed"]) >= {"load", "map", "sort", "reduce"}

    def test_input_replaced_in_place_is_a_new_input(self, tmp_path):
        """Same path, same size, other reads: resume must not serve the old."""
        first, second = colliding_sources(tmp_path)
        config = AssemblyConfig(min_overlap=25)
        fresh = Assembler(config).assemble(second)
        work = tmp_path / "w"
        old = Assembler(config).assemble(first, workdir=work, resume=True)
        first.write_bytes(second.read_bytes())
        resumed = Assembler(config).assemble(first, workdir=work, resume=True)
        assert result_digest(old) != result_digest(fresh)
        assert result_digest(resumed) == result_digest(fresh)

    def test_resume_at_reduce_reports_the_uninterrupted_sort(self, tmp_path,
                                                             tiny_md):
        """Sort marked, reduce not: the sort report is rebuilt from the
        sorted files, equal to the uninterrupted run's and the ledger's."""
        config = AssemblyConfig(min_overlap=25)
        work = tmp_path / "w"
        full = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                          resume=True)
        state = json.loads((work / STATE_FILE).read_text())
        CheckpointManager(work, state["fingerprint"]).invalidate_from("reduce")
        (work / GRAPH_FILE).unlink()
        resumed = Assembler(config).assemble(tiny_md.store_path, workdir=work,
                                             resume=True)
        assert resumed.sort_report.reports == full.sort_report.reports
        assert json.loads((work / STATE_FILE).read_text())["sort_report"] \
            == state["sort_report"] == full.sort_report.to_json()
