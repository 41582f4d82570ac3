"""Per-phase time and peak-memory model (Tables II–V).

The time model composes the shared kernel/transfer formulas of
:mod:`repro.device.costs` with a disk model whose three constants are
*fitted once* against the paper's H.Genome/K40 row and then applied to
every dataset, GPU, and memory configuration:

* ``MODEL_DISK_READ`` / ``MODEL_DISK_WRITE`` — pure sequential streaming
  bandwidths of the testbed's storage (fitted from the reduce and map
  phases, which are single-direction),
* ``DUPLEX_EFFICIENCY`` — the throughput fraction retained when a phase
  reads and writes concurrently (fitted from the sort phase, which streams
  runs in while writing runs out).

The memory model reproduces the structure of Tables IV/V: device peaks are
fixed per-phase fractions of device capacity (the paper: "a fixed amount of
device memory is allocated for each phase regardless of the data size");
host peaks follow the working set (batch buffers for map, min(partition,
budget) for sort, graph + windows for reduce, graph + contigs for contig
generation).
"""

from __future__ import annotations

from ..config import DEFAULT_BUFFER_FRACTION, MemoryConfig
from ..device import costs
from ..device.specs import HOST, DeviceSpec, get_device_spec
from .workload import Workload

#: Fitted sequential disk bandwidths (bytes/s) of the paper's testbeds.
MODEL_DISK_READ = 420e6
MODEL_DISK_WRITE = 320e6
#: Fraction of streaming bandwidth retained under concurrent read+write.
DUPLEX_EFFICIENCY = 0.55

#: Device-memory fraction each phase allocates (Tables IV/V, both GPUs).
DEVICE_FRACTION = {"map": 0.90, "sort": 0.75, "reduce": 0.41}

#: Host fraction the map phase's batch/staging buffers occupy.
MAP_HOST_FRACTION = 0.13


def model_phase_seconds(workload: Workload, memory: MemoryConfig,
                        device: DeviceSpec | str) -> dict[str, float]:
    """Modeled seconds per phase (the Table II/III row for one dataset)."""
    components = model_phase_components(workload, memory, device)
    phases = {phase: sum(parts.values()) for phase, parts in components.items()}
    phases["total"] = sum(phases.values())
    return phases


def model_phase_components(workload: Workload, memory: MemoryConfig,
                           device: DeviceSpec | str,
                           ) -> dict[str, dict[str, float]]:
    """Per-phase time decomposed into ``disk`` / ``device`` / ``host`` parts.

    ``device`` covers kernel time plus PCIe transfers (what additional GPUs
    parallelize); ``disk`` is the shared storage stream (what they do not)
    — the decomposition behind the multi-GPU saturation study.
    """
    spec = get_device_spec(device) if isinstance(device, str) else device
    rec = workload.record_nbytes
    n_part = workload.records_per_partition
    partitions = 2 * workload.n_partition_lengths  # S and P sides
    total_tuples_bytes = workload.total_tuple_nbytes

    out: dict[str, dict[str, float]] = {}

    # -- load: stream FASTQ in, packed store out (read-dominated) -----------
    out["load"] = {
        "disk": (workload.fastq_bytes / MODEL_DISK_READ
                 + workload.packed_store_nbytes / MODEL_DISK_WRITE),
        "device": 0.0,
        "host": 0.0,
    }

    # -- map: read packed store, fingerprint on device, write all tuples -----
    scan = 8 * costs.scan_seconds(spec, workload.n_reads, workload.read_length)
    pcie = costs.transfer_seconds(spec, workload.packed_store_nbytes * 2
                                  + total_tuples_bytes)
    out["map"] = {
        "disk": (workload.packed_store_nbytes / MODEL_DISK_READ
                 + total_tuples_bytes / MODEL_DISK_WRITE),
        "device": scan + pcie,
        "host": 0.0,
    }

    # -- sort: two-level external sort of every partition ----------------------
    # Figs. 8–9's partition sort, once per partition (imported here:
    # sorting.py imports this module's disk constants).
    from ..extmem.sort import DEVICE_SORT_FOOTPRINT, HOST_SORT_FOOTPRINT
    from .sorting import partition_sort_components

    host_block = max(2, memory.host_pairs(rec) // HOST_SORT_FOOTPRINT)
    device_chunk = max(2, memory.device_pairs(rec) // DEVICE_SORT_FOOTPRINT)
    sort = partition_sort_components(spec, n_part, rec, host_block,
                                     device_chunk)
    out["sort"] = {"disk": partitions * sort["disk"],
                   "device": partitions * sort["device"], "host": 0.0}

    # -- reduce: one streaming pass over all sorted partitions ------------------
    out["reduce"] = {
        "disk": total_tuples_bytes / MODEL_DISK_READ,
        "device": (partitions * 2 * costs.search_seconds(spec, n_part, n_part)
                   + costs.transfer_seconds(spec, total_tuples_bytes)),
        "host": costs.host_work_seconds(HOST, workload.graph_nbytes * 4),
    }

    # -- compress: stream packed reads once, write contigs ----------------------
    out["compress"] = {
        "disk": (workload.packed_store_nbytes / MODEL_DISK_READ
                 + workload.contig_nbytes / MODEL_DISK_WRITE),
        "device": 0.0,
        "host": 0.0,
    }
    return out


def model_multi_gpu_seconds(workload: Workload, memory: MemoryConfig,
                            device: DeviceSpec | str, n_gpus: int,
                            ) -> dict[str, float]:
    """Phase times with ``n_gpus`` sharing one node's disk.

    Fingerprinting is independent per read and each partition sorts
    independently, so kernel and PCIe work divide across GPUs — but every
    byte still crosses the *same* local storage. The result saturates at
    the disk bound, which is the paper's argument for scaling out to more
    *nodes* (aggregate I/O bandwidth) rather than more GPUs per node
    (§III.E: "the most prominent bottleneck in the pipeline is the I/O
    throughput").
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    components = model_phase_components(workload, memory, device)
    phases = {
        phase: parts["disk"] + parts["device"] / n_gpus + parts["host"]
        for phase, parts in components.items()
    }
    phases["total"] = sum(phases.values())
    return phases


def model_memory_peaks(workload: Workload, memory: MemoryConfig,
                       device: DeviceSpec | str) -> dict[str, dict[str, float]]:
    """Modeled peak bytes per phase (the Table IV/V row for one dataset)."""
    spec = get_device_spec(device) if isinstance(device, str) else device
    device_cap = min(memory.device_bytes, spec.mem_bytes)
    map_host = MAP_HOST_FRACTION * memory.host_bytes
    sort_host = min(max(map_host, 2.0 * workload.partition_nbytes),
                    DEFAULT_BUFFER_FRACTION * memory.host_bytes)
    reduce_host = workload.graph_nbytes + 0.1 * memory.host_bytes * 0.5
    contig_host = workload.graph_nbytes + workload.contig_nbytes \
        + 0.05 * memory.host_bytes
    return {
        "host": {"map": map_host, "sort": sort_host, "reduce": reduce_host,
                 "contig": contig_host},
        "device": {phase: fraction * device_cap
                   for phase, fraction in DEVICE_FRACTION.items()},
    }
