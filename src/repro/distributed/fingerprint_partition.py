"""Fingerprint-range partitioning for the reduce phase (paper future work).

The paper's length partitioning serializes graph building: the node owning
length ``l`` must wait for the out-degree bit-vector from the node owning
``l+1``, bounding reduce scalability at ``n_max = t_o / t_g`` (§III.E.3).
The authors' stated future direction is "partitioning the suffixes/prefixes
based on their fingerprints rather than on lengths".

This module implements that alternative in the simulated cluster:

* every sorted partition (length ``l``, sides S/P) is split into ``n``
  *contiguous key ranges* (the runs are key-sorted, so a range is a
  contiguous slice — each node reads only its share of every partition),
* nodes find suffix–prefix matches for **all lengths of their own range in
  parallel** — no cross-node data dependency, because a fingerprint match
  can only pair records inside one range,
* the resulting candidate lists are applied to the greedy graph centrally,
  still in descending length order (and, within a length, range-major
  stream order), so the greedy semantics stay deterministic.

The reduce critical path becomes ``max_node(t_find) + t_apply`` instead of
``t_o·p/n + t_g·p``: edge application is no longer interleaved with ``p``
token hops. ``benchmarks/bench_ablation_partitioning.py`` compares both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import AssemblyConfig
from ..core.reduce_phase import REDUCE_WINDOW_DIVISOR, ReduceReport, reduce_partition
from ..core.context import RunContext
from ..device import SimClock, VirtualGPU
from ..device.specs import DiskSpec
from ..errors import ConfigError
from ..extmem import HeldRun, IOAccountant, PartitionStore
from ..extmem.records import KEY_FIELD
from ..graph import GreedyStringGraph
from ..seq.packing import PackedReadStore


@dataclass
class FPReduceResult:
    """Outcome of a fingerprint-partitioned reduce."""

    graph: GreedyStringGraph
    report: ReduceReport
    critical_seconds: float
    per_node_find_seconds: list[float]
    apply_seconds: float
    notes: dict[str, float] = field(default_factory=dict)


class _NodeContext:
    """The slice of :class:`~repro.core.context.RunContext` reduce needs:
    a clock, a metered virtual GPU, a disk accountant, and host charging."""

    def __init__(self, config: AssemblyConfig, disk: DiskSpec | None):
        from ..device.specs import HostSpec

        self.config = config
        self.clock = SimClock()
        self.accountant = IOAccountant(disk if disk is not None else DiskSpec(),
                                       self.clock)
        self.gpu = VirtualGPU(config.device_name,
                              capacity_bytes=config.memory.device_bytes,
                              clock=self.clock)
        self.host_spec = HostSpec()

    charge_host = RunContext.charge_host


def _range_boundaries(n_ranges: int) -> np.ndarray:
    """Key-space split points: n equal slices of the uint64 key space."""
    edges = np.linspace(0, float(2**63), n_ranges + 1)
    return edges.astype(np.uint64)


def reduce_fingerprint_partitioned(config: AssemblyConfig,
                                   partitions: PartitionStore,
                                   store: PackedReadStore,
                                   n_nodes: int, *,
                                   disk: DiskSpec | None = None) -> FPReduceResult:
    """Run the fingerprint-partitioned reduce over sorted partitions.

    ``partitions`` must already be sorted (the standard sort phase output).
    The per-node find work really executes; per-node clocks model the time;
    the critical path is ``max(find) + apply``.
    """
    if n_nodes < 1:
        raise ConfigError("n_nodes must be >= 1")
    boundaries = _range_boundaries(n_nodes)
    graph = GreedyStringGraph(store.n_reads, store.read_length)
    report = ReduceReport()
    _, m_d = config.resolved_blocks(partitions.dtype.itemsize)
    window = max(1, m_d // REDUCE_WINDOW_DIVISOR)

    node_contexts = [_NodeContext(config, disk) for _ in range(n_nodes)]

    # Collected candidates: (length, node, sources, targets) in stream order.
    collected: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    class _CollectingGraph:
        """Greedy-graph stand-in that records candidates instead of applying."""

        read_length = store.read_length

        def __init__(self, length: int, node_id: int):
            self._length = length
            self._node_id = node_id

        def add_candidates(self, sources, targets, length):
            collected.append((length, self._node_id,
                              np.asarray(sources), np.asarray(targets)))
            return 0

    for length in sorted(partitions.lengths(), reverse=True):
        s_path = partitions.path("S", length, sorted_run=True)
        p_path = partitions.path("P", length, sorted_run=True)
        if not (s_path.exists() and p_path.exists()):
            continue
        with partitions.open_run("S", length, sorted_run=True) as reader:
            suffixes = reader.read_all()
        with partitions.open_run("P", length, sorted_run=True) as reader:
            prefixes = reader.read_all()
        s_cuts = np.searchsorted(suffixes[KEY_FIELD], boundaries)
        p_cuts = np.searchsorted(prefixes[KEY_FIELD], boundaries)
        for node_id, ctx in enumerate(node_contexts):
            s_slice = suffixes[s_cuts[node_id]:s_cuts[node_id + 1]]
            p_slice = prefixes[p_cuts[node_id]:p_cuts[node_id + 1]]
            # Each node reads only its contiguous slice of the sorted run.
            ctx.accountant.add_read(int(s_slice.nbytes + p_slice.nbytes), seeks=2)
            if s_slice.shape[0] == 0 or p_slice.shape[0] == 0:
                continue
            sink = _CollectingGraph(length, node_id)
            reduce_partition(ctx, sink, HeldRun(s_slice), HeldRun(p_slice),
                             length, window, report)
        report.partitions_processed += 1

    find_seconds = [ctx.clock.total_seconds for ctx in node_contexts]

    # Central application: descending length, then node (range) order — the
    # same deterministic order a single node streaming ranges would produce.
    apply_clock = SimClock()
    from ..device import costs
    from ..device.specs import HostSpec

    collected.sort(key=lambda item: (-item[0], item[1]))
    for length, _node, sources, targets in collected:
        graph.add_candidates(sources, targets, length)
        apply_clock.charge("host", costs.host_work_seconds(
            HostSpec(), int(sources.shape[0]) * 16))
    report.edges_added = graph.n_edges
    apply_seconds = apply_clock.total_seconds
    return FPReduceResult(
        graph=graph,
        report=report,
        critical_seconds=(max(find_seconds) if find_seconds else 0.0) + apply_seconds,
        per_node_find_seconds=find_seconds,
        apply_seconds=apply_seconds,
        notes={"candidates": float(report.candidates)},
    )
