"""Benchmark-side span recorder: wraps the layers' public functions.

The traced repetition of a workload runs with every name in :data:`TARGETS`
replaced by a wrapper that records one span per call — ``{id, parent,
layer, name, t0, t1}`` — into flat arrays. A layer's *busy* time is the sum
of its spans' self times: a span's duration minus the part of that interval
its child spans cover. Nothing inside ``src/`` knows about this module; the
wrappers go on as class attributes, or as module attributes *of the module
whose code looks the name up* (``from .map_phase import run_map`` binds
``repro.core.pipeline.run_map``, so that is the attribute replaced).

Worker threads (the service runs ``max_parallel=2``) keep their own span
stack; a thread's outermost span is parented to whatever span is open on
the recording thread, and that parent's self time subtracts the *union* of
its children's intervals, so concurrent jobs are not subtracted twice.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from importlib import import_module

import numpy as np


def _rows(args) -> int:
    """Leading dimension of the first array argument after ``self``."""
    return int(args[1].shape[0])


#: ``(module, class or "", attribute, layer[, units])``. ``units`` maps the
#: call's positional arguments to a work count (records appended, reads
#: fingerprinted) so per-call batch sizes can be reported.
TARGETS = (
    ("repro.core.pipeline", "Assembler", "assemble", "core.pipeline"),
    ("repro.core.pipeline", "", "run_load", "core.load"),
    ("repro.core.pipeline", "", "run_map", "core.map"),
    ("repro.core.pipeline", "", "run_sort", "core.sort"),
    ("repro.core.pipeline", "", "run_reduce", "core.reduce"),
    ("repro.core.pipeline", "", "run_compress", "core.compress"),
    ("repro.distributed.node", "", "run_map", "core.map"),
    ("repro.distributed.node", "", "run_sort", "core.sort"),
    ("repro.distributed.cluster", "", "reduce_partition", "core.reduce"),
    ("repro.distributed.cluster", "", "run_compress", "core.compress"),
    ("repro.core.checkpoint", "CheckpointManager", "mark", "core.checkpoint"),
    ("repro.core.checkpoint", "CheckpointManager", "mark_chunk", "core.checkpoint"),
    ("repro.core.checkpoint", "CheckpointManager", "save_graph", "core.checkpoint"),
    ("repro.core.pipeline", "", "load_graph_file", "core.checkpoint"),
    ("repro.core.load_phase", "", "fastq_read_batches", "seq"),
    ("repro.seq.packing", "PackedReadStore", "append_batch", "seq"),
    ("repro.seq.packing", "PackedReadStore", "read_slice", "seq"),
    ("repro.seq.packing", "PackedReadStore", "read_packed_slice", "seq"),
    ("repro.fingerprint.scheme", "FingerprintScheme", "key_matrices",
     "fingerprint", _rows),
    ("repro.device.gpu", "VirtualGPU", "to_device", "device"),
    ("repro.device.gpu", "VirtualGPU", "to_host", "device"),
    ("repro.device.gpu", "VirtualGPU", "empty", "device"),
    ("repro.device.gpu", "VirtualGPU", "sort_pairs", "device"),
    ("repro.device.gpu", "VirtualGPU", "sort_records_device", "device"),
    ("repro.device.gpu", "VirtualGPU", "merge_pairs", "device"),
    ("repro.device.gpu", "VirtualGPU", "merge_records_device", "device"),
    ("repro.device.gpu", "VirtualGPU", "merge_records_device_k", "device"),
    ("repro.device.gpu", "VirtualGPU", "bounds", "device"),
    ("repro.device.gpu", "VirtualGPU", "bounds_records", "device"),
    ("repro.device.gpu", "VirtualGPU", "gather", "device"),
    ("repro.device.gpu", "VirtualGPU", "exclusive_scan", "device"),
    ("repro.extmem.streams", "RunWriter", "append", "extmem.streams", _rows),
    ("repro.extmem.streams", "RunWriter", "close", "extmem.streams"),
    ("repro.extmem.streams", "RunReader", "read", "extmem.streams"),
    ("repro.extmem.streams", "RunReader", "skip", "extmem.streams"),
    ("repro.extmem.streams", "RunReader", "close", "extmem.streams"),
    ("repro.extmem.sort", "ExternalSorter", "sort_file", "extmem.sort"),
    ("repro.extmem.partitions", "PartitionStore", "append", "extmem.partitions"),
    ("repro.extmem.partitions", "PartitionStore", "append_pairs",
     "extmem.partitions"),
    ("repro.extmem.partitions", "PartitionStore", "finalize", "extmem.partitions"),
    ("repro.graph.string_graph", "GreedyStringGraph", "add_candidates", "graph"),
    ("repro.core.compress_phase", "", "extract_paths", "graph"),
    ("repro.distributed.cluster", "DistributedAssembler", "assemble",
     "distributed.cluster"),
    ("repro.distributed.resilience", "ClusterSupervisor", "map_phase",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "shuffle_phase",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "sort_phase",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "reduce_partition",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "partition_has_data",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "commit_chunk",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "chunk_resume",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "finish_partition",
     "distributed.supervisor"),
    ("repro.distributed.resilience", "ClusterSupervisor", "degraded_report",
     "distributed.supervisor"),
    ("repro.distributed.message", "ActiveMessageLayer", "request",
     "distributed.messages"),
    ("repro.service.scheduler", "AssemblyService", "run_jobs", "service.sched"),
    ("repro.service.content_store", "ContentStore", "fetch", "service.cache.fetch"),
    ("repro.service.content_store", "ContentStore", "put", "service.cache.put"),
)

#: Generator functions: timed per ``next()`` instead of per call.
GENERATORS = {"fastq_read_batches"}

#: Targets whose return values are kept (their reports carry exact counts
#: the public result objects do not expose for every workload).
KEEP_RETURNS = {"run_map", "ExternalSorter.sort_file"}

#: Classes whose instances are collected during the traced repetition, so
#: their meters can be read afterwards.
CAPTURE_INSTANCES = (
    ("repro.core.context", "RunContext"),
    ("repro.distributed.message", "ActiveMessageLayer"),
)


def self_times(t0: np.ndarray, t1: np.ndarray, parent: np.ndarray,
               thread: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the interval its children cover."""
    duration = t1 - t0
    child = np.nonzero(parent >= 0)[0]
    same = thread[child] == thread[parent[child]]
    # Same-thread children run one after another inside the parent, so the
    # interval they cover is the sum of their durations.
    covered = np.bincount(parent[child[same]], weights=duration[child[same]],
                          minlength=duration.shape[0])
    out = duration - covered
    # A parent with children on other threads (run_jobs over concurrent
    # jobs) loses the *union* of all its children's intervals.
    foreign = child[~same]
    for index in np.unique(parent[foreign]):
        kids = child[parent[child] == index]
        order = np.argsort(t0[kids])
        union, edge = 0.0, t0[index]
        for start, stop in zip(t0[kids][order], t1[kids][order]):
            start = max(start, edge)
            if stop > start:
                union += stop - start
                edge = stop
        out[index] = duration[index] - union
    return out


class SpanRecorder:
    """Records spans from wrapped calls; install/restore the wrappers."""

    def __init__(self) -> None:
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.key = array("l")
        self.thread = array("l")
        self.units = array("d")
        #: ``(layer, name)`` per key index.
        self.keys: list[tuple[str, str]] = []
        #: Kept return values, by span name.
        self.returns: dict[str, list] = {}
        #: Captured instances, by class name.
        self.instances: dict[str, list] = {}
        #: Targets that no longer exist in the program (skipped, reported).
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = self._home = []
        self._local.tid = 0
        self._threads = 1

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            with self._lock:
                self._local.tid = self._threads
                self._threads += 1
            self._local.stack = []
            return self._local.stack

    def _open(self, key: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home else -1
        tid = self._local.tid
        with self._lock:
            index = len(self.t0)
            self.parent.append(parent)
            self.key.append(key)
            self.thread.append(tid)
            self.units.append(0.0)
            self.t1.append(0.0)
            self.t0.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.t1[index] = time.perf_counter()
        self._local.stack.pop()

    def _key(self, layer: str, name: str) -> int:
        self.keys.append((layer, name))
        return len(self.keys) - 1

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around the benchmark's own call into the program."""
        index = self._open(self._key(layer, name))
        try:
            yield index
        finally:
            self._close(index)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, key: int, units, keep: list | None):
        opened, closed, unit_counts = self._open, self._close, self.units

        def wrapper(*args, **kwargs):
            index = opened(key)
            if units is not None:
                unit_counts[index] = units(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(index)
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, key: int):
        opened, closed = self._open, self._close

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    index = opened(key)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        closed(index)
                    yield item
            finally:
                iterator.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _capture(self, init, bucket: list):
        def wrapper(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            bucket.append(instance)

        wrapper.__wrapped__ = init
        return wrapper

    def _replace(self, owner, attr: str, make) -> bool:
        original = vars(owner).get(attr)
        if original is None:
            return False
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    @staticmethod
    def _owner(module: str, cls: str):
        try:
            owner = import_module(module)
            return getattr(owner, cls) if cls else owner
        except (ImportError, AttributeError):
            return None

    def install(self) -> None:
        """Replace every target with its recording wrapper.

        A target the program no longer has (renamed or removed by a later
        change) is skipped and listed in :attr:`missing`; the benchmark
        reports the count rather than failing the run.
        """
        for module, cls, attr, layer, *rest in TARGETS:
            name = f"{cls}.{attr}" if cls else attr
            units = rest[0] if rest else None
            owner = self._owner(module, cls)
            key = self._key(layer, name)
            if attr in GENERATORS:
                def make(fn, key=key):
                    return self._wrap_generator(fn, key)
            else:
                keep = self.returns.setdefault(name, []) \
                    if name in KEEP_RETURNS else None

                def make(fn, key=key, units=units, keep=keep):
                    return self._wrap(fn, key, units, keep)
            if owner is None or not self._replace(owner, attr, make):
                self.missing.append(f"{module}:{name}")
        for module, cls in CAPTURE_INSTANCES:
            owner = self._owner(module, cls)
            bucket = self.instances.setdefault(cls, [])
            if owner is None or not self._replace(
                    owner, "__init__",
                    lambda init, bucket=bucket: self._capture(init, bucket)):
                self.missing.append(f"{module}:{cls}.__init__")
        for entry in self.missing:
            print(f"perf: trace target missing: {entry}", file=sys.stderr)

    def restore(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """``install()`` for the duration of the block, restored in finally."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time (see :func:`self_times`)."""
        return self_times(np.frombuffer(self.t0, dtype=np.float64),
                          np.frombuffer(self.t1, dtype=np.float64),
                          np.frombuffer(self.parent, dtype=np.int64),
                          np.asarray(self.thread, dtype=np.int64))

    def by_key(self) -> dict[tuple[str, str], tuple[float, int, float]]:
        """``(layer, name) -> (self seconds, calls, units)``."""
        key = np.asarray(self.key, dtype=np.int64)
        n_keys = len(self.keys)
        busy = np.bincount(key, weights=self.self_times(), minlength=n_keys)
        calls = np.bincount(key, minlength=n_keys)
        units = np.bincount(key, weights=np.frombuffer(self.units, dtype=np.float64),
                            minlength=n_keys)
        out: dict[tuple[str, str], tuple[float, int, float]] = {}
        for index, name in enumerate(self.keys):
            previous = out.get(name, (0.0, 0, 0.0))
            out[name] = (previous[0] + float(busy[index]),
                         previous[1] + int(calls[index]),
                         previous[2] + float(units[index]))
        return out

    def write_jsonl(self, handle, workload: str) -> None:
        """Append every span as one JSON object per line."""
        for index in range(len(self.t0)):
            layer, name = self.keys[self.key[index]]
            handle.write(json.dumps({
                "id": index, "parent": self.parent[index], "layer": layer,
                "name": name, "t0": self.t0[index], "t1": self.t1[index],
                "thread": self.thread[index], "workload": workload}) + "\n")
