"""Content-addressed artifact cache: keys, LRU, damage detection."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AssemblyConfig, MemoryConfig
from repro.core.checkpoint import NON_SEMANTIC_KNOBS
from repro.core.pipeline import Assembler
from repro.errors import ConfigError
from repro.faults import BITFLIP, TORN, WRITE, Fault, FaultPlan, inject
from repro.service import ContentStore, phase_key
from repro.service.content_store import FILES_DIR, MANIFEST_FILE


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


def test_damaged_entry_detected_and_dropped(tmp_path):
    store = _make_store(tmp_path)
    work = tmp_path / "w"
    work.mkdir()
    _put_blob(store, work, "k", b"pristine-artifact-bytes")
    stored = store.root / "k" / FILES_DIR / "blob.bin"
    raw = bytearray(stored.read_bytes())
    raw[3] ^= 0x40
    stored.write_bytes(bytes(raw))
    out = tmp_path / "o"
    out.mkdir()
    assert store.fetch("k", out) is None  # damage = miss, never bad bytes
    assert store.stats()["cache_damaged"] == 1
    assert "k" not in store and not (store.root / "k").exists()


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


# -- cache-key stability (satellite property test) -----------------------------

#: (field, changed value) for every execution-only knob: none may move the key.
_NON_SEMANTIC_CHANGES = {
    "trace": "/tmp/somewhere",
    "keep_workdir": True,
    "heartbeat_interval": 0.75,
    "node_timeout": 9.0,
    "reduce_max_attempts": 5,
    "retry_backoff_s": 1.25,
    "node_restarts": 3,
    "allow_degraded": False,
    "buffer_pool": False,
    "pool_max_bytes": 32 << 20,
    "chunk_checkpoint_every": 512,
    "speculation_threshold": 0.5,
    "allow_join": True,
}

#: (field, changed value) for semantic knobs: each must change the key.
_SEMANTIC_CHANGES = {
    "min_overlap": 31,
    "fingerprint_lanes": 2,
    "map_batch_reads": 128,
    "host_block_pairs": 4096,
    "device_block_pairs": 512,
    "merge_fanout": 4,
    "dedupe_contigs": False,
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
