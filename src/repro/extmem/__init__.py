"""External-memory substrate: streams, partitions, and the two-level sort.

This package implements the paper's semi-streaming machinery (§III):

* :mod:`repro.extmem.records` — the (fingerprint, read-id) KV record layout,
* :mod:`repro.extmem.io_stats` — disk accounting + modeled disk time,
* :mod:`repro.extmem.streams` — sequential read-only / write-only run files
  (the paper's Fig. 3 memory types), and a run still in host memory read
  the same way,
* :mod:`repro.extmem.partitions` — the per-overlap-length partition store
  produced by the map phase,
* :mod:`repro.extmem.merge` — Algorithm 1 generalized to fanout-k
  (window-equalized merge of k sorted runs; pairwise is ``k = 2``),
* :mod:`repro.extmem.sort` — the hybrid two-level external sort
  (disk → host blocks of ``m_h`` → device chunks of ``m_d``), merging
  ``merge_fanout`` runs per round.
"""

from .records import kv_dtype, make_records, record_fields
from .io_stats import IOAccountant
from .streams import HeldRun, RunReader, RunWriter
from .partitions import PartitionStore
from .merge import merge_in_memory_k, merge_streams_k
from .sort import ExternalSorter, SortReport, merge_rounds_for

__all__ = [
    "kv_dtype",
    "make_records",
    "record_fields",
    "IOAccountant",
    "HeldRun",
    "RunReader",
    "RunWriter",
    "PartitionStore",
    "merge_in_memory_k",
    "merge_streams_k",
    "ExternalSorter",
    "SortReport",
    "merge_rounds_for",
]
