"""Cluster scaling model (Fig. 10).

Phase-level composition over ``n`` nodes:

* **map** and **sort** divide by ``n`` (independent blocks / partitions,
  aggregate disk bandwidth — the effect the paper attributes the speedup
  to),
* **shuffle** exists only for ``n > 1``: each node re-reads its map output,
  ships the ``(n−1)/n`` remote fraction over the network, and writes its
  owned partitions — all concurrently across nodes,
* **reduce** follows the paper's own law ``t_o · p/n + t_g · p`` (overlap
  finding parallel, bit-vector token serial), with
  ``n_max = t_o / t_g`` bounding useful scaling,
* **load**/**compress** stay serial on the master.

``kept_fraction`` is the share of mapped records the cluster's rounds let
through their out-degree filter (1.0: the paper's eager schedule, which the
defaults are calibrated on). A serving node still reads its whole map
piece, so the shuffle's read term stays; what is written, sent, sorted and
matched (``t_o``) scales with it. Edge insertion (``t_g``) does not: the
accepted edges are the same.
"""

from __future__ import annotations

from ..config import AssemblyConfig
from .single_node import MODEL_DISK_READ, MODEL_DISK_WRITE, model_phase_seconds
from .workload import Workload

#: Fraction of reduce-phase time spent inserting greedy edges (t_g / (t_o+t_g)).
REDUCE_GRAPH_FRACTION = 0.06


def model_distributed_seconds(workload: Workload, config: AssemblyConfig,
                              n_nodes: int, *, kept_fraction: float = 1.0,
                              ) -> dict[str, float]:
    """Modeled per-phase seconds for an ``n_nodes`` cluster run on
    ``config``'s machine: its memory, device and interconnect."""
    single = model_phase_seconds(workload, config.memory, config.device_name)
    total_tuple_bytes = workload.total_tuple_nbytes

    phases: dict[str, float] = {}
    phases["load"] = single["load"]
    phases["map"] = single["map"] / n_nodes
    if n_nodes > 1:
        per_node_bytes = total_tuple_bytes / n_nodes
        remote_fraction = (n_nodes - 1) / n_nodes
        kept_bytes = kept_fraction * per_node_bytes
        phases["shuffle"] = (per_node_bytes / MODEL_DISK_READ
                             + kept_bytes / MODEL_DISK_WRITE
                             + config.network.transfer_seconds(
                                 int(kept_bytes * remote_fraction)))
    else:
        phases["shuffle"] = 0.0
    phases["sort"] = kept_fraction * single["sort"] / n_nodes

    p = 2 * workload.n_partition_lengths
    t_total = single["reduce"]
    t_g = REDUCE_GRAPH_FRACTION * t_total / p
    t_o = (1.0 - REDUCE_GRAPH_FRACTION) * t_total / p
    phases["reduce"] = kept_fraction * t_o * p / n_nodes + t_g * p
    phases["compress"] = single["compress"]
    phases["total"] = sum(phases.values())
    return phases
