"""Content-addressed cache of assembly artifacts.

The checkpoint ledger (PR 2) already proves each phase's output is a pure
function of its input files and the semantic configuration — that is what
lets a resumed run trust an on-disk artifact whose digest matches. This
module lifts that property out of the single-workdir ledger into a cache
shared across jobs, tenants and re-submissions: an entry is keyed on
``(phase, input digests, semantic config payload)``, so two different
users assembling byte-identical reads under equivalent configurations hit
the same entry no matter which path their files live at.

The pipeline keeps only what a hit reads: a ``load`` entry (the packed
reads, keyed on the source's content) and a ``reduce`` entry (the graph,
keyed on the packed reads' content, with the map / sort / reduce ledger
records as its meta). Partition files are write-once, read-once
intermediates and never enter the cache.

Design points:

* **Keys** come from :func:`phase_key`, which hashes the same
  :func:`~repro.core.checkpoint.semantic_payload` the resume fingerprint
  uses — execution-only knobs (``trace``, the buffer pool, the resilience
  policy) can never split the cache. Input digests are whole-content
  (:func:`~repro.core.checkpoint.content_digest`).
* **Entries** are directories ``<root>/<key>/files/<relpath>`` plus a
  ``entry.json`` manifest recording each file's sha256. The manifest is
  the commit point: a ``put`` that dies mid-copy leaves no manifest and
  the partial entry is garbage-collected, never served.
* **Verification**: every ``fetch`` hashes the bytes it is about to
  restore against the manifest. A torn-write or bitflip-damaged entry
  (the cache's own writes run through the :mod:`repro.faults` hooks, so
  chaos plans can damage them) is evicted and reported as a miss — the
  caller recomputes.
* **Eviction** is LRU by bytes against a hard capacity; hits refresh
  recency, evictions and damage show up in the telemetry meter.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..config import AssemblyConfig
from ..core.checkpoint import semantic_payload
from ..errors import ConfigError
from ..faults import plan as faults
from ..telemetry import EventMeter
from ..trace.tracer import NULL_TRACER

#: Per-entry manifest file name (the entry's commit point).
MANIFEST_FILE = "entry.json"
#: Subdirectory of an entry holding the cached artifact files.
FILES_DIR = "files"
#: Bytes per read while copying (a read allocates its whole size up front;
#: the pipeline's entries fit in one).
_COPY_CHUNK = 256 * 1024


def phase_key(phase: str, inputs: Sequence[str], config: AssemblyConfig) -> str:
    """Cache key of one phase execution: what it is, what it ate, how.

    ``inputs`` are the content digests of the phase's input artifacts (in a
    canonical order chosen by the caller). The config contributes only its
    :func:`~repro.core.checkpoint.semantic_payload`, so any knob that
    cannot change artifact bytes leaves the key unchanged.
    """
    payload = {
        "phase": phase,
        "inputs": list(inputs),
        "config": semantic_payload(config),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:24]


def _copy(source: Path, destination: Path) -> tuple[str, int]:
    """Copy one file through the fault hooks: ``(sha256, bytes)`` of what was read.

    One pass: the bytes hashed are the bytes written, so a digest that
    matches a manifest vouches for the copy.
    """
    digest, nbytes = hashlib.sha256(), 0
    destination.parent.mkdir(parents=True, exist_ok=True)
    with open(source, "rb") as reader, open(destination, "wb") as writer:
        while chunk := reader.read(_COPY_CHUNK):
            digest.update(chunk)
            nbytes += len(chunk)
            faults.deliver_write(destination, chunk, writer)
    return digest.hexdigest(), nbytes


@dataclass(frozen=True)
class CacheEntry:
    """One committed cache entry (in-memory index record)."""

    key: str
    phase: str
    nbytes: int
    #: ``{relative path: sha256}`` of every cached file.
    files: Mapping[str, str]
    #: Phase report metadata (JSON-able), round-tripped verbatim.
    meta: Mapping[str, object]
    #: Monotonic insertion stamp (restores LRU order across restarts).
    seq: int


class ContentStore:
    """Content-addressed artifact cache with LRU-by-bytes eviction.

    Thread-safe: service jobs running in worker threads fetch and put
    concurrently under one lock (the copy under lock also pins an entry
    against concurrent eviction).
    """

    def __init__(self, root: str | Path, capacity_bytes: int, *,
                 tracer=None):
        if capacity_bytes <= 0:
            raise ConfigError("cache capacity must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity_bytes = int(capacity_bytes)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.meter = EventMeter()
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}  # insertion order = LRU
        self._seq = 0
        self._adopt_existing()

    # -- persistence -----------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.root / key

    def _adopt_existing(self) -> None:
        """Re-index entries a previous service process committed here.

        Uncommitted residue (an entry directory without a manifest — a put
        that died mid-copy) is removed. LRU order is restored from the
        persisted sequence stamps.
        """
        found = []
        for child in sorted(self.root.iterdir() if self.root.exists() else ()):
            if not child.is_dir():
                continue
            manifest = child / MANIFEST_FILE
            try:
                data = json.loads(manifest.read_text())
                entry = CacheEntry(key=child.name, phase=data["phase"],
                                   nbytes=int(data["nbytes"]),
                                   files=dict(data["files"]),
                                   meta=dict(data.get("meta", {})),
                                   seq=int(data.get("seq", 0)))
            except (OSError, ValueError, KeyError, TypeError):
                shutil.rmtree(child, ignore_errors=True)
                continue
            found.append(entry)
        for entry in sorted(found, key=lambda e: e.seq):
            self._entries[entry.key] = entry
            self._seq = max(self._seq, entry.seq + 1)
        self._enforce_capacity()

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Bytes held across all committed entries."""
        return sum(entry.nbytes for entry in self._entries.values())

    def keys(self) -> tuple[str, ...]:
        """Entry keys in LRU order (least recently used first)."""
        return tuple(self._entries)

    def stats(self) -> dict[str, float]:
        """Hit/miss/eviction counters plus current occupancy."""
        out = dict.fromkeys(("cache_bytes_fetched", "cache_files_fetched",
                             "cache_bytes_put"), 0.0)
        out.update(self.meter.counters())
        out["entries"] = float(len(self._entries))
        out["bytes"] = float(self.total_bytes)
        hits = out.get("cache_hits", 0.0)
        misses = out.get("cache_misses", 0.0)
        out["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    # -- lookup ----------------------------------------------------------------

    def fetch(self, key: str, workdir: str | Path, *, phase: str = "",
              tracer=None) -> dict | None:
        """Restore ``key``'s files into ``workdir``; returns the entry meta.

        Misses (absent key) and *damage* (a stored file whose sha256 no
        longer matches the manifest — torn write, bitflip, truncation)
        both return ``None``. Every byte is hashed on its way out; a
        damaged entry is evicted so the caller's recompute can repopulate
        it, and what was restored of it is removed again. The restore
        writes run through the fault hooks like every other substrate
        write.
        """
        tracer = tracer if tracer is not None else self.tracer
        with self._lock:
            entry = self._entries.get(key)
            nbytes = None
            if entry is not None:
                nbytes = self._restore(entry, Path(workdir))
                if nbytes is None:
                    # Never serve corrupt bytes: drop the entry and fall
                    # back to recompute.
                    self._drop(entry)
                    self.meter.bump("cache_damaged")
                    tracer.instant("cache-damaged", track="cache",
                                   key=key, phase=phase)
            if nbytes is None:
                self.meter.bump("cache_misses")
                tracer.instant("cache-miss", track="cache",
                               key=key, phase=phase)
                return None
            # LRU refresh: re-insert at the most-recent end.
            self._entries.pop(key)
            self._entries[key] = entry
            self.meter.bump("cache_hits")
            if entry.phase:
                self.meter.bump(f"cache_hits_{entry.phase}")
            self.meter.bump("cache_bytes_fetched", float(nbytes))
            self.meter.bump("cache_files_fetched", float(len(entry.files)))
            tracer.instant("cache-hit", track="cache",
                           key=key, phase=entry.phase,
                           bytes=nbytes, files=len(entry.files))
            return dict(entry.meta)

    def _restore(self, entry: CacheEntry, workdir: Path) -> int | None:
        """Copy ``entry``'s files into ``workdir``; returns the bytes copied.

        ``None``, with nothing of the entry left in ``workdir``, when a
        file is gone or the bytes read fail the manifest's digest.
        """
        source = self._entry_dir(entry.key) / FILES_DIR
        nbytes = 0
        for rel, digest in sorted(entry.files.items()):
            try:
                copied, size = _copy(source / rel, workdir / rel)
            except FileNotFoundError:
                copied, size = None, 0
            if copied != digest:
                for restored in entry.files:
                    (workdir / restored).unlink(missing_ok=True)
                return None
            nbytes += size
        return nbytes

    # -- insertion -------------------------------------------------------------

    def put(self, key: str, phase: str, workdir: str | Path,
            files: Iterable[Path], meta: Mapping[str, object] | None = None,
            *, tracer=None) -> bool:
        """Copy ``files`` (paths under ``workdir``) into a new entry.

        Best-effort: returns ``False`` (and leaves no entry behind) when
        the artifacts cannot be committed — a source file is missing, the
        payload exceeds the whole cache capacity, or the copy hits a
        survivable I/O error (e.g. injected ENOSPC). Injected crashes
        propagate like any substrate write. Digests recorded in the
        manifest are taken from the *source* bytes, so damage introduced
        while writing the cache copy is caught at fetch time.
        """
        tracer = tracer if tracer is not None else self.tracer
        workdir = Path(workdir)
        with self._lock:
            if key in self._entries:
                return True
            files = sorted(Path(path) for path in files)
            try:
                expected = sum(path.stat().st_size for path in files)
            except OSError:
                return False
            if not files or expected > self.capacity_bytes:
                self.meter.bump("cache_uncacheable")
                return False
            entry_dir = self._entry_dir(key)
            try:
                digests, nbytes = {}, 0
                for path in files:
                    rel = str(path.relative_to(workdir))
                    digests[rel], size = _copy(path, entry_dir / FILES_DIR / rel)
                    nbytes += size
                entry = CacheEntry(key=key, phase=phase, nbytes=nbytes,
                                   files=digests, meta=dict(meta or {}),
                                   seq=self._seq)
                # The manifest write commits the entry; until it lands the
                # directory is invisible residue.
                faults.ledger_write(entry_dir / MANIFEST_FILE, json.dumps({
                    "phase": phase, "nbytes": nbytes, "files": digests,
                    "meta": dict(meta or {}), "seq": self._seq,
                }))
            except OSError:
                shutil.rmtree(entry_dir, ignore_errors=True)
                self.meter.bump("cache_put_failed")
                return False
            self._seq += 1
            self._entries[key] = entry
            self.meter.bump("cache_puts")
            self.meter.bump("cache_bytes_put", float(nbytes))
            self._enforce_capacity()
            self.meter.gauge("cache_bytes", float(self.total_bytes))
            tracer.instant("cache-put", track="cache",
                           key=key, phase=phase, bytes=nbytes)
            return True

    # -- eviction --------------------------------------------------------------

    def discard(self, key: str) -> None:
        """Drop ``key``'s entry: its bytes passed the manifest but the
        caller cannot use them (an archive in another layout)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._drop(entry)
                self.meter.bump("cache_unusable")

    def _drop(self, entry: CacheEntry) -> None:
        self._entries.pop(entry.key, None)
        shutil.rmtree(self._entry_dir(entry.key), ignore_errors=True)

    def _enforce_capacity(self) -> None:
        """Evict least-recently-used entries until under capacity."""
        while self.total_bytes > self.capacity_bytes and self._entries:
            victim = next(iter(self._entries.values()))
            self._drop(victim)
            self.meter.bump("cache_evictions")
            self.meter.bump("cache_evicted_bytes", float(victim.nbytes))
            self.tracer.instant("cache-evict", track="cache",
                                key=victim.key,
                                bytes=victim.nbytes)
