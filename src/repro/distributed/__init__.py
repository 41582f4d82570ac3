"""Distributed LaSAGNA (§III.E): a simulated multi-node cluster.

The paper distributes the pipeline over GASNet active messages: a master
load-balances map blocks, nodes shuffle partitions all-to-all into private
storage, sort locally, and serialize graph building by passing the
out-degree bit-vector between the nodes that own consecutive length
partitions. This package reproduces that structure in-process:

* :mod:`repro.distributed.message` — the active-message layer (handlers
  registered per node, request/response with payload accounting),
* :mod:`repro.distributed.node` — one worker: private storage directory,
  private budgets, its own virtual GPU and simulated clock,
* :mod:`repro.distributed.cluster` — the distributed assembler and its
  phase barriers; produces per-node, per-phase timings (the data behind
  Fig. 10) and the same contigs a single-node run yields,
* :mod:`repro.distributed.resilience` — the failure ladder: heartbeat
  detection, node restart (the operation that needs a partition rebuilds
  it from lineage), partition failover and degraded-mode completion.

Every node's disk and the interconnect the layer charges are the config's
``disk`` and ``network`` (a 56 Gb/s InfiniBand class by default).
Every node's work actually executes (on this process), so the distributed
pipeline is functionally real; only *time* is simulated, with barriers
taking the maximum clock across participants.
"""

from ..device.specs import NetworkSpec
from .message import ActiveMessageLayer, node_scope
from .node import WorkerNode
from .resilience import (ClusterSupervisor, DegradedRunReport,
                         DroppedPartition)
from .cluster import DistributedAssembler, DistributedResult

__all__ = [
    "NetworkSpec",
    "ActiveMessageLayer",
    "node_scope",
    "WorkerNode",
    "ClusterSupervisor",
    "DegradedRunReport",
    "DroppedPartition",
    "DistributedAssembler",
    "DistributedResult",
]
