"""Content-addressed artifact cache: keys, LRU, damage detection."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.checkpoint as checkpoint
import repro.core.pipeline as pipeline
from repro.config import AssemblyConfig, MemoryConfig
from repro.core.checkpoint import GRAPH_FILE, NON_SEMANTIC_KNOBS, STATE_FILE
from repro.core.pipeline import PHASES, Assembler
from repro.errors import ConfigError, FaultInjected
from repro.faults import (BITFLIP, CRASH, PHASE, READ, TORN, WRITE, Fault,
                          FaultPlan, inject, result_digest)
from repro.service import ContentStore, phase_key
from repro.service.content_store import FILES_DIR, MANIFEST_FILE
from repro.trace import SpanTracer

from .conftest import colliding_sources


def _make_store(tmp_path, capacity=1 << 20, name="cache"):
    return ContentStore(tmp_path / name, capacity)


def _put_blob(store, workdir, key, payload: bytes, name="blob.bin",
              phase="map", meta=None):
    path = workdir / name
    path.write_bytes(payload)
    assert store.put(key, phase, workdir, [path], meta=meta)
    return path


# -- put / fetch ---------------------------------------------------------------


def test_put_fetch_roundtrip(tmp_path):
    store = _make_store(tmp_path)
    source = tmp_path / "work1"
    source.mkdir()
    _put_blob(store, source, "k1", b"artifact-bytes",
              meta={"n_reads": 7, "lengths": [3, 4]})
    restored = tmp_path / "work2"
    restored.mkdir()
    meta = store.fetch("k1", restored, phase="map")
    assert meta == {"n_reads": 7, "lengths": [3, 4]}
    assert (restored / "blob.bin").read_bytes() == b"artifact-bytes"
    stats = store.stats()
    assert stats["cache_hits"] == 1 and stats["cache_puts"] == 1
    assert stats["hit_rate"] == 1.0


def test_stats_and_instants_say_what_was_moved(tmp_path):
    tracer = SpanTracer()
    store = ContentStore(tmp_path / "cache", 1 << 20, tracer=tracer)
    assert store.stats()["cache_bytes_fetched"] == 0  # present before use
    work = tmp_path / "w"
    work.mkdir()
    (work / "a.bin").write_bytes(b"x" * 100)
    (work / "b.bin").write_bytes(b"y" * 23)
    assert store.put("k", "map", work, [work / "a.bin", work / "b.bin"])
    out = tmp_path / "o"
    out.mkdir()
    for _ in range(2):
        assert store.fetch("k", out) is not None
    assert store.fetch("absent", out) is None
    stats = store.stats()
    assert stats["cache_bytes_put"] == 123
    assert stats["cache_bytes_fetched"] == 246
    assert stats["cache_files_fetched"] == 4
    moved = {name: [event["args"]["bytes"] for event in tracer.events
                    if event["name"] == name]
             for name in ("cache-put", "cache-hit")}
    assert moved == {"cache-put": [123], "cache-hit": [123, 123]}


def test_absent_key_is_a_miss(tmp_path):
    store = _make_store(tmp_path)
    assert store.fetch("nope", tmp_path) is None
    assert store.stats()["cache_misses"] == 1
    assert store.stats()["hit_rate"] == 0.0


def test_put_preserves_relative_layout(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    (work / "partitions").mkdir(parents=True)
    nested = work / "partitions" / "S_00040.run"
    nested.write_bytes(b"\x01\x02")
    assert store.put("k", "map", work, [nested])
    out = tmp_path / "o"
    out.mkdir()
    assert store.fetch("k", out) is not None
    assert (out / "partitions" / "S_00040.run").read_bytes() == b"\x01\x02"


def test_duplicate_put_is_idempotent(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    _put_blob(store, work, "k", b"payload")
    assert store.put("k", "map", work, [work / "blob.bin"])
    assert len(store) == 1 and store.stats()["cache_puts"] == 1


def test_put_refuses_missing_source(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    assert not store.put("k", "map", work, [work / "absent.bin"])
    assert "k" not in store


def test_put_refuses_entry_larger_than_capacity(tmp_path):
    store = _make_store(tmp_path, capacity=8)
    work = tmp_path / "w"
    work.mkdir()
    path = work / "big.bin"
    path.write_bytes(b"x" * 64)
    assert not store.put("k", "map", work, [path])
    assert store.stats()["cache_uncacheable"] == 1
    assert len(store) == 0


def test_capacity_must_be_positive(tmp_path):
    with pytest.raises(ConfigError):
        ContentStore(tmp_path / "c", 0)


# -- LRU eviction --------------------------------------------------------------


def test_lru_eviction_by_bytes(tmp_path):
    store = _make_store(tmp_path, capacity=100)
    work = tmp_path / "w"
    work.mkdir()
    for index in range(3):
        _put_blob(store, work, f"k{index}", bytes(30), name=f"b{index}.bin")
    # Refresh k0 so k1 becomes the least recently used.
    out = tmp_path / "o"
    out.mkdir()
    assert store.fetch("k0", out) is not None
    _put_blob(store, work, "k3", bytes(30), name="b3.bin")
    assert "k1" not in store
    assert {"k0", "k2", "k3"} <= set(store.keys())
    assert store.total_bytes <= 100
    assert store.stats()["cache_evictions"] == 1
    assert store.stats()["cache_evicted_bytes"] == 30


def test_eviction_removes_entry_directory(tmp_path):
    store = _make_store(tmp_path, capacity=40)
    work = tmp_path / "w"
    work.mkdir()
    _put_blob(store, work, "old", bytes(30), name="a.bin")
    _put_blob(store, work, "new", bytes(30), name="b.bin")
    assert "old" not in store
    assert not (store.root / "old").exists()


# -- persistence across processes ---------------------------------------------


def test_adopt_existing_entries_and_collect_residue(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    _put_blob(store, work, "k0", b"aa", name="a.bin")
    _put_blob(store, work, "k1", b"bb", name="b.bin")
    # Refresh k0: the persisted seq order must restore this recency.
    out = tmp_path / "o"
    out.mkdir()
    store.fetch("k0", out)
    # An uncommitted put (no manifest) left behind by a crash.
    residue = store.root / "deadbeef" / FILES_DIR
    residue.mkdir(parents=True)
    (residue / "junk.bin").write_bytes(b"junk")
    reopened = ContentStore(store.root, 1 << 20)
    assert set(reopened.keys()) == {"k1", "k0"}
    assert not (store.root / "deadbeef").exists()
    assert reopened.fetch("k1", out) is not None


def test_adopt_drops_manifest_gibberish(tmp_path):
    store = _make_store(tmp_path)
    bad = store.root / "0badkey"
    bad.mkdir()
    (bad / MANIFEST_FILE).write_text("{not json")
    reopened = ContentStore(store.root, 1 << 20)
    assert len(reopened) == 0
    assert not bad.exists()


# -- damage detection (the fault-plan regression, satellite fix) ---------------


def _fetch_after(tmp_path, damage):
    """Put a blob, ``damage`` its cached copy, fetch: ``(store, out dir, meta)``."""
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    _put_blob(store, work, "k", b"pristine-artifact-bytes")
    damage(store.root / "k" / FILES_DIR / "blob.bin")
    out = tmp_path / "o"
    out.mkdir()
    return store, out, store.fetch("k", out)


def _flip_a_bit(stored):
    raw = bytearray(stored.read_bytes())
    raw[3] ^= 0x40
    stored.write_bytes(bytes(raw))


def test_damaged_entry_detected_and_dropped(tmp_path):
    store, out, meta = _fetch_after(tmp_path, _flip_a_bit)
    assert meta is None  # damage = miss, never bad bytes
    assert not (out / "blob.bin").exists()
    assert store.stats()["cache_damaged"] == 1
    assert "k" not in store and not (store.root / "k").exists()


def test_missing_cached_file_is_damage(tmp_path):
    store, out, meta = _fetch_after(tmp_path, lambda stored: stored.unlink())
    assert meta is None and not (out / "blob.bin").exists()
    assert store.stats()["cache_damaged"] == 1 and "k" not in store


def test_bitflip_during_cache_write_is_caught_at_fetch(tmp_path):
    """A fault plan flipping a bit in the cache *copy* must not poison reads.

    ``put`` records digests of the source artifacts, so the flipped cache
    copy disagrees at ``fetch`` time and the entry is dropped — the
    regression this PR fixes (cache lookups respect armed fault plans).
    """
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    plan = FaultPlan([Fault(BITFLIP, site=WRITE, match=f"*{FILES_DIR}*")])
    with inject(plan):
        _put_blob(store, work, "k", b"bytes-the-tenant-expects")
    assert [event.kind for event in plan.events] == [BITFLIP]
    out = tmp_path / "o"
    out.mkdir()
    assert store.fetch("k", out) is None
    assert store.stats()["cache_damaged"] == 1
    # Recompute-and-republish path: a clean put serves hits again.
    _put_blob(store, work, "k", b"bytes-the-tenant-expects")
    assert store.fetch("k", out) == {}
    assert (out / "blob.bin").read_bytes() == b"bytes-the-tenant-expects"


def test_torn_manifest_write_leaves_no_committed_entry(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    path = work / "blob.bin"
    path.write_bytes(b"payload")
    from repro.errors import FaultInjected
    from repro.faults import LEDGER

    plan = FaultPlan([Fault(TORN, site=LEDGER, match=f"*{MANIFEST_FILE}")])
    with inject(plan), pytest.raises(FaultInjected):
        store.put("k", "map", work, [path])
    assert "k" not in store
    # The manifest-less residue is garbage-collected on the next adopt.
    reopened = ContentStore(store.root, 1 << 20)
    assert len(reopened) == 0
    assert not (store.root / "k").exists()


def test_pipeline_recomputes_through_damaged_cache(tmp_path, tiny_md,
                                                   laptop_config):
    """End-to-end satellite regression: a damaged entry falls back cleanly."""
    store = ContentStore(tmp_path / "cache", 64 << 20)
    baseline = Assembler(laptop_config).assemble(tiny_md.store_path)
    plan = FaultPlan([Fault(BITFLIP, site=WRITE, match=f"*{FILES_DIR}*")])
    with inject(plan):
        cold = Assembler(laptop_config, content_store=store).assemble(
            tiny_md.store_path)
    assert [event.kind for event in plan.events] == [BITFLIP]
    warm = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path)
    assert store.stats()["cache_damaged"] >= 1
    for result in (cold, warm):
        assert result.contigs.flat_codes.tobytes() \
            == baseline.contigs.flat_codes.tobytes()
        assert result.contigs.offsets.tobytes() \
            == baseline.contigs.offsets.tobytes()


# -- the pipeline's two entries and the hit path -------------------------------


def _count_phase_runs(monkeypatch) -> dict[str, int]:
    """Count calls of the phase functions the pipeline computes with."""
    calls = dict.fromkeys(("run_load", "run_map", "run_sort", "run_reduce"), 0)
    for name in calls:
        real = getattr(pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.fixture()
def filled(tmp_path, tiny_md, laptop_config):
    """A store one cold run has filled, with that run's result and workdir."""
    store = ContentStore(tmp_path / "cache", 64 << 20)
    cold = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path, workdir=tmp_path / "cold", resume=True)
    return store, cold


def test_cache_holds_two_entries_and_no_partition_file(filled):
    store, _ = filled
    assert store.stats()["cache_puts"] == 2
    assert store.stats()["cache_misses"] == 2
    cached = sorted(path.name for path in store.root.rglob("*") if path.is_file()
                    and path.name != MANIFEST_FILE)
    assert cached == [GRAPH_FILE, "reads.lsgr"]


def test_hit_restores_only_reads_and_graph(tmp_path, tiny_md, laptop_config,
                                           filled, monkeypatch):
    store, cold = filled
    calls = _count_phase_runs(monkeypatch)
    warm = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path, workdir=tmp_path / "warm", resume=True)
    assert not any(calls.values())
    stats = store.stats()
    assert stats["cache_hits"] == 2 and stats["cache_misses"] == 2
    assert stats["cache_files_fetched"] == 2
    assert stats["cache_bytes_fetched"] == stats["cache_bytes_put"] < 1 << 20
    assert not list((tmp_path / "warm").rglob("*.run"))
    assert result_digest(warm) == result_digest(cold)  # contigs and reports
    # The hit wrote the ledger the computed run wrote, digests of the
    # partition files it never had included.
    assert (tmp_path / "warm" / STATE_FILE).read_bytes() \
        == (tmp_path / "cold" / STATE_FILE).read_bytes()


def test_hit_passes_the_boundaries_of_a_computed_run(tmp_path, tiny_md,
                                                     laptop_config, filled):
    """Barriers and the phase hook see each phase once, in order, on a hit."""
    store, _ = filled
    seen = []
    plan = FaultPlan()
    with inject(plan):
        Assembler(laptop_config, content_store=store,
                  phase_hook=lambda name, sim_s: seen.append(name)).assemble(
            tiny_md.store_path, workdir=tmp_path / "warm", resume=True)
    assert store.stats()["cache_hits"] == 2
    assert seen == ["start", *PHASES]
    assert [point.path for point in plan.trace if point.site == PHASE] \
        == list(PHASES)


@pytest.mark.parametrize("resolution", ["ledger-graph", "ledger-map",
                                        "cache-hit-no-ledger"])
def test_every_resolution_passes_the_boundaries_once(
        tmp_path, tiny_md, laptop_config, resolution):
    """However a run is resolved, each boundary is passed once, in order."""
    work = tmp_path / "w"
    store = ContentStore(tmp_path / "cache", 64 << 20)
    cache = store if resolution == "cache-hit-no-ledger" else None
    if resolution == "ledger-map":
        # Killed at reduce's first read: load and map marked, one length sorted.
        crash = FaultPlan([Fault(CRASH, site=READ, match="*.sorted.run")])
        with inject(crash), pytest.raises(FaultInjected):
            Assembler(laptop_config).assemble(tiny_md.store_path, workdir=work,
                                              resume=True)
        state = json.loads((work / STATE_FILE).read_text())
        assert state["completed"] == ["load", "map"]
    else:
        Assembler(laptop_config, content_store=cache).assemble(
            tiny_md.store_path, workdir=work, resume=cache is None)
    seen = []
    plan = FaultPlan()
    with inject(plan):
        Assembler(laptop_config, content_store=cache,
                  phase_hook=lambda name, sim_s: seen.append(name)).assemble(
            tiny_md.store_path, workdir=tmp_path / "again" if cache else work,
            resume=cache is None)
    assert seen == ["start", *PHASES]
    assert [point.path for point in plan.trace if point.site == PHASE] \
        == list(PHASES)
    if cache is not None:
        assert store.stats()["cache_hits"] == 2


def test_hit_crashed_at_compress_finishes_from_its_ledger(
        tmp_path, tiny_md, laptop_config, filled, monkeypatch):
    store, cold = filled
    work = tmp_path / "warm"
    plan = FaultPlan([Fault(CRASH, site=PHASE, match="compress")])
    with inject(plan), pytest.raises(FaultInjected):
        Assembler(laptop_config, content_store=store).assemble(
            tiny_md.store_path, workdir=work, resume=True)
    before = store.stats()
    calls = _count_phase_runs(monkeypatch)
    retried = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path, workdir=work, resume=True)
    assert store.stats() == before  # not one further look-up
    assert not any(calls.values())
    assert result_digest(retried) == result_digest(cold)


@pytest.mark.parametrize("how", ["damaged", "evicted"])
def test_lost_reduce_entry_recomputes_from_cached_reads(
        tmp_path, tiny_md, laptop_config, filled, monkeypatch, how):
    store, cold = filled
    (graph_copy,) = store.root.rglob(GRAPH_FILE)
    if how == "damaged":
        raw = bytearray(graph_copy.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        graph_copy.write_bytes(bytes(raw))
    else:
        shutil.rmtree(graph_copy.parents[1])
        store = ContentStore(store.root, 64 << 20)
    puts_before = store.stats().get("cache_puts", 0)
    calls = _count_phase_runs(monkeypatch)
    again = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path, workdir=tmp_path / "again", resume=True)
    assert calls["run_load"] == 0 and calls["run_map"] == 1
    assert store.stats().get("cache_damaged", 0) == (how == "damaged")
    assert store.stats()["cache_puts"] == puts_before + 1
    assert result_digest(again) == result_digest(cold)
    # Re-put: the next job hits again.
    warm = Assembler(laptop_config, content_store=store).assemble(
        tiny_md.store_path, workdir=tmp_path / "warm", resume=True)
    assert calls["run_map"] == 1 and result_digest(warm) == result_digest(cold)


def test_resume_with_an_intact_graph_digests_no_partition(
        tmp_path, tiny_md, laptop_config, monkeypatch):
    """Deepest first without a cache: the graph stands for its sorted runs."""
    work = tmp_path / "w"
    first = Assembler(laptop_config).assemble(tiny_md.store_path, workdir=work,
                                              resume=True)
    digested = []
    real = checkpoint.file_digest

    def recording(path):
        digested.append(str(path))
        return real(path)

    monkeypatch.setattr(checkpoint, "file_digest", recording)
    calls = _count_phase_runs(monkeypatch)
    resumed = Assembler(laptop_config).assemble(tiny_md.store_path, workdir=work,
                                                resume=True)
    assert not any(calls.values())
    assert sorted(Path(path).name for path in digested) \
        == [GRAPH_FILE, "reads.lsgr"]
    assert result_digest(resumed) == result_digest(first)


def test_equal_ledger_digests_do_not_share_a_cache_entry(tmp_path):
    """Sources differing only in the middle: B must not be served A's contigs."""
    first, second = colliding_sources(tmp_path)
    config = AssemblyConfig(min_overlap=21)
    store = ContentStore(tmp_path / "cache", 64 << 20)
    Assembler(config, content_store=store).assemble(first)
    served = Assembler(config, content_store=store).assemble(second)
    direct = Assembler(config).assemble(second)
    assert result_digest(served) == result_digest(direct)
    assert store.stats().get("cache_hits", 0) == 0


# -- cache-key stability (satellite property test) -----------------------------

#: (field, changed value) for every execution-only knob: none may move the key.
_NON_SEMANTIC_CHANGES = {
    "trace": "/tmp/somewhere",
    "heartbeat_interval": 0.75,
    "node_timeout": 9.0,
    "reduce_max_attempts": 5,
    "retry_backoff_s": 1.25,
    "node_restarts": 3,
    "allow_degraded": False,
}

#: (field, changed value) for semantic knobs: each must change the key.
_SEMANTIC_CHANGES = {
    "min_overlap": 31,
    "fingerprint_lanes": 2,
    "map_batch_reads": 128,
    "host_block_pairs": 4096,
    "device_block_pairs": 512,
    "merge_fanout": 4,
    "device_name": "V100",
    "seed": 1234,
    "memory": MemoryConfig(2 << 30, 128 << 20),
}


def test_change_tables_cover_every_config_field():
    """A new AssemblyConfig field must be classified semantic or not."""
    fields = {f.name for f in dataclasses.fields(AssemblyConfig)}
    classified = set(_NON_SEMANTIC_CHANGES) | set(_SEMANTIC_CHANGES)
    assert fields == classified
    assert set(_NON_SEMANTIC_CHANGES) == set(NON_SEMANTIC_KNOBS)


@settings(max_examples=25, deadline=None)
@given(phase=st.sampled_from(["load", "map", "sort", "reduce"]),
       inputs=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                       max_size=4),
       knob=st.sampled_from(sorted(_NON_SEMANTIC_CHANGES)))
def test_non_semantic_knobs_never_move_the_key(phase, inputs, knob):
    base = AssemblyConfig(min_overlap=21)
    changed = dataclasses.replace(base, **{knob: _NON_SEMANTIC_CHANGES[knob]})
    assert getattr(changed, knob) != getattr(base, knob)
    assert phase_key(phase, inputs, base) == phase_key(phase, inputs, changed)


@pytest.mark.parametrize("knob", sorted(_SEMANTIC_CHANGES))
def test_every_semantic_knob_moves_the_key(knob):
    base = AssemblyConfig(min_overlap=21)
    changed = dataclasses.replace(base, **{knob: _SEMANTIC_CHANGES[knob]})
    assert phase_key("map", ["reads:abc"], base) \
        != phase_key("map", ["reads:abc"], changed)


def test_key_depends_on_phase_and_inputs():
    config = AssemblyConfig(min_overlap=21)
    assert phase_key("map", ["reads:abc"], config) \
        != phase_key("sort", ["reads:abc"], config)
    assert phase_key("map", ["reads:abc"], config) \
        != phase_key("map", ["reads:abd"], config)
    assert phase_key("map", ["a", "b"], config) \
        != phase_key("map", ["b", "a"], config)


def test_key_is_stable_json_not_repr():
    """Keys survive a round-trip through the manifest's JSON layer."""
    config = AssemblyConfig(min_overlap=21)
    key = phase_key("map", ["reads:abc"], config)
    assert key == json.loads(json.dumps(key))
    assert len(key) == 24 and all(c in "0123456789abcdef" for c in key)
