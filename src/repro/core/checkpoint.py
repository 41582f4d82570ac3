"""Pipeline checkpointing: resume a multi-hour assembly after interruption.

At paper scale a run takes 16+ hours and writes terabytes of intermediate
state; losing it to a node failure is expensive. The checkpoint manager
records, in ``<workdir>/state.json``, which phases have completed under
which configuration/input identity, and archives the reduce phase's graph
arrays, so a re-run with ``Assembler(...).assemble(source, workdir=...,
resume=True)``:

* skips **load** when the packed store is intact,
* skips **map, sort and reduce** when the archived graph is intact (the
  partition files behind it are then neither needed nor looked at),
* otherwise falls back to the partition files on disk: sorted runs whose
  digests match are kept, the rest is recomputed from the reads,
* always re-runs **compress** (cheap, seconds even at paper scale).

A checkpoint is only honoured when the *configuration fingerprint* (every
assembly-relevant config field plus the sha256 of the input's content)
matches — otherwise the stale state is discarded and the run starts clean.
An input replaced in place by another of the same size is a new input.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..config import AssemblyConfig
from ..faults import plan as faults
from ..graph import GreedyStringGraph
from ..graph.bitvector import PackedBitVector

#: Canonical phase order, as reported in the paper's tables.
PHASES = ("load", "map", "sort", "reduce", "compress")

STATE_FILE = "state.json"
GRAPH_FILE = "graph.npz"

#: Bytes hashed from each end of an artifact for its ledger digest.
_DIGEST_SPAN = 64 * 1024


def file_digest(path: Path) -> str | None:
    """Cheap content fingerprint of one on-disk artifact.

    Hashes the file's size plus its head and tail ``_DIGEST_SPAN`` bytes —
    at paper scale (hundreds of GB of run files) a full-content hash per
    checkpoint would cost another disk pass, while torn writes and
    truncation always move the size or the tail. Returns ``None`` if the
    file is missing.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        h = hashlib.sha256()
        with open(path, "rb") as handle:
            if size <= 2 * _DIGEST_SPAN:
                h.update(handle.read())
            else:
                h.update(handle.read(_DIGEST_SPAN))
                handle.seek(size - _DIGEST_SPAN)
                h.update(handle.read(_DIGEST_SPAN))
        return f"{size}:{h.hexdigest()[:16]}"
    except OSError:
        return None


def content_digest(path: Path) -> str | None:
    """sha256 of the whole file, streamed; ``None`` if it cannot be read.

    The content *address*: cache keys, cache manifests and the service's
    single-flight identity use this one, because two inputs of equal size
    that differ only in the middle share a :func:`file_digest`. That one
    stays the ledger's damage detector, where the files are large and the
    question is "was this write torn", not "are these the same reads".
    """
    h = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            # A read allocates its whole size up front: keep it small, two
            # service threads digest their reads at the same moment.
            while chunk := handle.read(_DIGEST_SPAN):
                h.update(chunk)
    except OSError:
        return None
    return h.hexdigest()


def artifact_digests(workdir: Path, paths: Iterable[Path]) -> dict[str, str]:
    """Ledger digests of ``paths`` keyed by their path relative to ``workdir``.

    Missing files are left out: :meth:`CheckpointManager.damaged` reports
    an artifact only when a digest was recorded for it.
    """
    digests = {}
    for path in paths:
        digest = file_digest(path)
        if digest is not None:
            digests[str(Path(path).relative_to(workdir))] = digest
    return digests


#: Config knobs that never change artifact bytes. Everything here is
#: excluded from both the checkpoint fingerprint and the content-addressed
#: phase cache key, so a run may be resumed (or served from cache) under a
#: different setting of any of them:
#:
#: * ``trace`` — observation-only: tracing never changes artifacts,
#: * the resilience-policy knobs — they change how failures are survived,
#:   never what a surviving run produces (recovered runs are byte-identical).
NON_SEMANTIC_KNOBS = ("trace",
                      "heartbeat_interval", "node_timeout",
                      "reduce_max_attempts", "retry_backoff_s",
                      "node_restarts", "allow_degraded")


def semantic_payload(config: AssemblyConfig) -> dict:
    """The JSON-able subset of ``config`` that determines artifact bytes.

    One definition shared by :func:`config_fingerprint` (the resume ledger)
    and :func:`repro.service.content_store.phase_key` (the cross-job cache),
    so the two notions of "same configuration" can never drift apart.
    """
    payload = asdict(config)
    payload["memory"] = {
        "host_bytes": config.memory.host_bytes,
        "device_bytes": config.memory.device_bytes,
        "buffer_fraction": config.memory.buffer_fraction,
    }
    for knob in NON_SEMANTIC_KNOBS:
        payload.pop(knob, None)
    return payload


def config_fingerprint(config: AssemblyConfig, source_id: str) -> str:
    """Stable hash of everything that invalidates intermediate state."""
    payload = semantic_payload(config)
    payload["source"] = source_id
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


class CheckpointManager:
    """Reads and writes the per-workdir phase ledger."""

    def __init__(self, workdir: Path, fingerprint: str):
        self.workdir = Path(workdir)
        self.fingerprint = fingerprint
        self._state = self._load()

    def _load(self) -> dict:
        path = self.workdir / STATE_FILE
        if not path.exists():
            return {"fingerprint": self.fingerprint, "completed": []}
        try:
            state = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return {"fingerprint": self.fingerprint, "completed": []}
        if state.get("fingerprint") != self.fingerprint:
            # Stale: different config or input. Start clean.
            return {"fingerprint": self.fingerprint, "completed": []}
        return state

    def completed(self, phase: str) -> bool:
        """Whether ``phase`` finished under the current fingerprint."""
        return phase in self._state["completed"]

    def _write_state(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        faults.ledger_write(self.workdir / STATE_FILE, json.dumps(self._state))

    def mark(self, phase: str,
             artifacts: Iterable[Path] | Mapping[str, str] = (), *,
             report: dict | None = None) -> None:
        """Record ``phase`` as complete (idempotent, durable).

        ``artifacts`` are the on-disk files the phase produced; their
        digests go into the ledger so a resumed run can tell a finished
        artifact from a truncated or corrupted one. A mapping is taken as
        digests already recorded (:func:`artifact_digests`, or the
        :meth:`record` another run of the same work left in the cache).
        ``report`` is the phase report's JSON form, kept beside them.
        """
        if report is not None:
            self._state[f"{phase}_report"] = report
        if phase not in self._state["completed"]:
            self._state["completed"].append(phase)
        digests = dict(artifacts) if isinstance(artifacts, Mapping) \
            else artifact_digests(self.workdir, artifacts)
        if digests:
            self._state.setdefault("artifacts", {})[phase] = digests
        self._write_state()

    def record(self, phase: str) -> dict | None:
        """What :meth:`mark` took for a completed ``phase``, or ``None``.

        ``{"report": ..., "artifacts": {relative path: digest}}``: enough
        for another workdir's ledger to mark the same phase without the
        files (the pipeline's cache entries carry these).
        """
        report = self._state.get(f"{phase}_report")
        if not self.completed(phase) or report is None:
            return None
        return {"report": report, "artifacts": self.recorded_artifacts(phase)}

    def recorded_artifacts(self, phase: str) -> Mapping[str, str]:
        """The ``{relative path: digest}`` map recorded for ``phase``."""
        return dict(self._state.get("artifacts", {}).get(phase, {}))

    def damaged(self, phase: str) -> list[str]:
        """Relative paths of ``phase`` artifacts that are missing or damaged.

        The distributed supervisor replays exactly these after a node
        restart: partitions whose ledger digest still matches survived the
        crash and are *not* recomputed.
        """
        recorded = self.recorded_artifacts(phase)
        return [rel for rel, digest in recorded.items()
                if file_digest(self.workdir / rel) != digest]

    def invalidate_from(self, phase: str) -> None:
        """Drop ``phase`` and everything after it from the ledger."""
        order = PHASES[:-1]  # compress is never recorded
        if phase in order:
            keep = order[:order.index(phase)]
            self._state["completed"] = [p for p in self._state["completed"]
                                        if p in keep]
            artifacts = self._state.get("artifacts", {})
            for dropped in order[order.index(phase):]:
                artifacts.pop(dropped, None)
            self._write_state()

    # Wrapped by benchmarks/perf/perf_spans.py, its only reader.
    def mark_chunk(self, *args) -> None:
        """Records nothing: the ledger keeps no progress inside a phase."""

    # -- graph archival -------------------------------------------------------

    def save_graph(self, graph: GreedyStringGraph) -> None:
        """Archive the reduce phase's graph arrays."""
        save_graph_file(self.workdir / GRAPH_FILE, graph)


def save_graph_file(path: Path, graph: GreedyStringGraph) -> None:
    """Archive a reduce-phase graph's arrays to ``path`` (an ``.npz``)."""
    np.savez(path,
             target=graph.target,
             overlap=graph.overlap,
             in_degree=graph.in_degree,
             out_bits=np.frombuffer(graph.out_bits.to_bytes(), dtype=np.uint64),
             meta=np.array([graph.n_reads, graph.read_length,
                            graph._n_edges, graph._candidates_seen],
                           dtype=np.int64))


def load_graph_file(path: Path, host_pool=None) -> GreedyStringGraph | None:
    """Restore a graph archived by :func:`save_graph_file`.

    Returns ``None`` if the archive is absent or corrupt: a resumed run's
    own ``graph.npz`` and one restored from the cache go through the same
    checks.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        archive = np.load(path)
        n_reads, read_length, n_edges, candidates = archive["meta"].tolist()
    except (OSError, ValueError, KeyError):
        return None
    graph = GreedyStringGraph(int(n_reads), int(read_length), host_pool)
    graph.target = archive["target"]
    graph.overlap = archive["overlap"]
    graph.in_degree = archive["in_degree"]
    graph.out_bits = PackedBitVector(graph.n_vertices,
                                     archive["out_bits"].copy())
    graph._n_edges = int(n_edges)
    graph._candidates_seen = int(candidates)
    try:
        graph.check_invariants()
    except Exception:
        return None
    return graph
