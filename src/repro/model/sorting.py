"""Block-size and GPU sorting model (Figs. 8–9).

Average sort time of one H.Genome partition (2.5 G records of 20 bytes) as
a function of the host block-size ``m_h``, the device block-size ``m_d``,
the merge fanout ``k``, and the GPU. The structure mirrors
:mod:`repro.extmem.sort` exactly:

* disk passes = ``1 + ⌈log_k(initial runs)⌉`` — controlled by ``m_h`` and
  the fanout (``k = 2`` is the paper's pairwise Algorithm 1),
* device merge rounds inside a host block = ``⌈log_k(m_h / m_d)⌉`` —
  controlled by ``m_d`` and executed at device-memory bandwidth,

which yields both headline observations: host block-size dominates (disk
passes are the expensive axis) and GPUs converge as blocks shrink (the
disk term swamps the device term). A fanout-k merge round performs
``⌈log₂ k⌉`` comparison levels per record (the tournament depth of the
gathered kernel), so raising ``k`` trades kernel comparisons — cheap — for
disk passes — expensive. The program does one device trip per record per
disk round at every fanout, as ``device_touches`` below charges: a level-1
window too large for the device is streamed through the same k-way launch.
"""

from __future__ import annotations

import math

from ..device import costs
from ..device.specs import DeviceSpec, get_device_spec
from ..extmem.sort import HOST_SORT_FOOTPRINT, merge_rounds_for
from .single_node import DUPLEX_EFFICIENCY, MODEL_DISK_READ, MODEL_DISK_WRITE
from .workload import PAPER_RECORD_NBYTES

#: Fig. 8/9 reference partition: one H.Genome partition (2 × 1.25 G reads).
PARTITION_RECORDS = 2_495_036_784


def predicted_sort_passes(n_records: int, host_block_pairs: int, *,
                          merge_fanout: int = 2) -> int:
    """Disk passes :meth:`~repro.extmem.sort.ExternalSorter.sort_file` makes.

    Mirrors the implementation exactly — initial runs are host blocks of
    ``m_h / HOST_SORT_FOOTPRINT`` records and merge rounds fold them
    ``merge_fanout`` at a time — so for any ``(m_h, m_d, k)`` this equals
    the ``disk_passes`` of the :class:`~repro.extmem.sort.SortReport` the
    sorter returns.
    """
    if n_records <= 0:
        return 0
    host_block = max(2, host_block_pairs // HOST_SORT_FOOTPRINT)
    initial_runs = math.ceil(n_records / host_block)
    return 1 + merge_rounds_for(initial_runs, merge_fanout)


def model_partition_sort_seconds(host_block_records: int, device_block_records: int,
                                 device: DeviceSpec | str = "K40", *,
                                 merge_fanout: int = 2,
                                 partition_records: int = PARTITION_RECORDS,
                                 record_nbytes: int = PAPER_RECORD_NBYTES) -> float:
    """Modeled seconds to sort one partition under the given block sizes."""
    spec = get_device_spec(device) if isinstance(device, str) else device
    parts = partition_sort_components(
        spec, partition_records, record_nbytes, host_block_records,
        device_block_records, merge_fanout=merge_fanout)
    return parts["disk"] + parts["device"]


def partition_sort_components(spec: DeviceSpec, n_records: int,
                              record_nbytes: int, host_block_records: int,
                              device_block_records: int, *,
                              merge_fanout: int = 2) -> dict[str, float]:
    """One partition's sort time as ``disk`` and ``device`` seconds.

    Figs. 8–9 read it for one H.Genome partition; Tables II–V
    (:func:`repro.model.single_node.model_phase_components`) scale it by
    the partition count.
    """
    nbytes = n_records * record_nbytes

    runs = max(1, math.ceil(n_records / max(1, host_block_records)))
    disk_rounds = merge_rounds_for(runs, merge_fanout)
    one_pass = nbytes / MODEL_DISK_READ + nbytes / MODEL_DISK_WRITE
    # Run formation interleaves reading input blocks with writing sorted
    # runs and pays the duplex penalty; merge rounds stream long runs into
    # one at full bandwidth.
    disk = one_pass / DUPLEX_EFFICIENCY + disk_rounds * one_pass

    device_runs = max(1, math.ceil(host_block_records
                                   / max(1, device_block_records)))
    level2_rounds = merge_rounds_for(device_runs, merge_fanout)
    # A k-way round merges via a tournament ⌈log₂ k⌉ deep.
    round_depth = max(1, math.ceil(math.log2(merge_fanout)))
    # One radix sort of everything, plus one merge sweep per level-2 round
    # (inside a host block) and per level-1 round (on disk).
    device_touches = 1 + level2_rounds + disk_rounds
    kernels = (costs.sort_pairs_seconds(spec, n_records, 16, 4)
               + (level2_rounds + disk_rounds) * round_depth
               * costs.merge_pairs_seconds(spec, n_records, 16, 4))
    pcie = device_touches * 2 * costs.transfer_seconds(spec, nbytes)
    return {"disk": disk, "device": kernels + pcie}
