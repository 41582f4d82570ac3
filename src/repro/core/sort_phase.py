"""Sort phase: external sort of every partition by fingerprint (§III.B).

Each ``(side, length)`` partition file is sorted independently through the
two-level :class:`~repro.extmem.sort.ExternalSorter` — disk blocks of
``m_h`` records buffered in host memory, device chunks of ``m_d`` records
sorted/merged on the virtual GPU. The unsorted partition is deleted once
its sorted counterpart exists (write-only/read-only file discipline).

Given the out-degree bit-vector of the greedy graph built so far, the sort
also *filters*: reduce runs longest overlap first and a vertex takes one
out-edge, so a record whose vertex claim is already taken when its length's
turn comes can never produce an edge. Such records are dropped while the
runs are formed; they are neither sorted nor written nor streamed through
reduce. :func:`_open_claims` is that filter; the map applies the same
rule upstream (:mod:`repro.core.map_phase`), on one node and on every
cluster node alike.

A sort with the run's :class:`~repro.core.residency.Residency` plan may
also *hold* its runs for the reduce that comes next: a partition the sort
leaves in one run (no merge round) is still in the sorter's host buffer
before it is written, so the store keeps that array, its bytes reserved
in the host pool, and reduce reads it from there instead of off the disk
(the plan says when, by one rule for a call of one length or of several).
A held run is never written, with a checkpoint ledger or without: the
array is its only copy and reduce its only reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from ..config import DEFAULT_BUFFER_FRACTION
from ..extmem import ExternalSorter, PartitionStore
from ..extmem.records import VAL_FIELD
from ..extmem.sort import SortReport
from ..graph.bitvector import PackedBitVector
from .context import RunContext


@dataclass(frozen=True)
class SortPhaseReport:
    """Aggregate of all partition sorts."""

    reports: dict[tuple[str, int], SortReport]

    @property
    def total_records(self) -> int:
        """Records sorted across all partitions."""
        return sum(r.n_records for r in self.reports.values())

    @property
    def max_disk_passes(self) -> int:
        """Worst-case disk passes over any one partition."""
        return max((r.disk_passes for r in self.reports.values()), default=0)

    def to_json(self) -> dict:
        """The report's JSON form (ledger state and cache meta alike).

        All four SortReport fields must round-trip: dropping fanout would
        resurrect the default (2) on resume and silently change both the
        report and the fingerprint-relevant sort shape.
        """
        return {f"{side}:{length}": [r.n_records, r.initial_runs,
                                     r.merge_rounds, r.fanout]
                for (side, length), r in self.reports.items()}

    @classmethod
    def from_json(cls, saved: dict) -> SortPhaseReport:
        """Inverse of :meth:`to_json`."""
        reports = {}
        for key, values in saved.items():
            side, length = key.split(":")
            reports[(side, int(length))] = SortReport(*values)
        return cls(reports)


def make_sorter(ctx: RunContext, dtype, resident_bytes: int = 0) -> ExternalSorter:
    """Build the external sorter for this run's budgets and record dtype.

    ``resident_bytes`` is host memory something else holds while the sorter
    works (the string graph, from the second length on): ``m_h`` is then
    cut from what is left of the host budget. An explicit
    ``host_block_pairs`` wins either way.
    """
    config = ctx.config
    m_h, m_d = config.resolved_blocks(dtype.itemsize)
    if resident_bytes and not config.host_block_pairs:
        left = int((config.memory.host_bytes - resident_bytes)
                   * DEFAULT_BUFFER_FRACTION)
        m_h = max(2, left // dtype.itemsize)
    return ExternalSorter(gpu=ctx.gpu, host_pool=ctx.host_pool,
                          accountant=ctx.accountant, dtype=dtype,
                          host_block_pairs=m_h, device_block_pairs=m_d,
                          merge_fanout=config.merge_fanout, tracer=ctx.tracer)


def _open_claims(ctx: RunContext, closed: PackedBitVector, side: str):
    """The ``keep`` filter of one side: records whose claim is still open.

    ``closed`` is the graph's out-degree bit-vector, or any older copy of
    it. A candidate ``u → v`` claims ``u`` and ``v ^ 1`` (the two bits
    :meth:`~repro.graph.GreedyStringGraph.add_candidates` tests); ``u`` is
    the suffix record's vertex, ``v`` the prefix record's. Bits are only
    ever set, so a record closed now is refused in every candidate it
    could still take part in, and a stale copy only keeps more.
    """
    def keep(piece):
        ctx.charge_host(piece.nbytes)
        vertices = piece[VAL_FIELD]
        return ~closed.get(vertices if side == "S" else vertices ^ 1)

    return keep


def run_sort(ctx: RunContext, partitions: PartitionStore, *,
             lengths: Iterable[int] | None = None,
             closed: PackedBitVector | None = None,
             plan=None) -> SortPhaseReport:
    """Sort every S/P partition in place; returns per-partition reports.

    A resumed run may find some partitions already sorted (their unsorted
    input consumed by the interrupted attempt); their reports are
    reconstructed from the sorted record count so the phase report is
    identical to an uninterrupted run's.

    ``lengths`` restricts the call to those partitions. With ``closed``
    (the out-degree bit-vector after every longer length) the records it
    has already closed are dropped.

    With the run's residency ``plan`` the sorter's host block is cut from
    what its :attr:`~repro.core.residency.Residency.resident_bytes` (the
    graph) leave of the budget, and the plan's
    :meth:`~repro.core.residency.Residency.hold` decides which freshly
    sorted runs stay in host memory for the reduce that comes next, told
    whether a run of the call is still to be sorted after each (every one
    but the last length's ``P``). A held run gets no file. Without a plan
    nothing is held.
    """
    sorter = make_sorter(ctx, partitions.dtype,
                         0 if plan is None else plan.resident_bytes)
    lengths = partitions.lengths() if lengths is None else list(lengths)
    reports: dict[tuple[str, int], SortReport] = {}
    for index, length in enumerate(lengths):
        for side in ("S", "P"):
            unsorted_path = partitions.path(side, length)
            sorted_path = partitions.path(side, length, sorted_run=True)
            if partitions.kept(side, length):
                source = partitions.open_run(side, length)
            elif unsorted_path.exists():
                source = unsorted_path
            else:
                if sorted_path.exists():
                    reports[(side, length)] = sorter.report_for(
                        partitions.records_in(side, length, sorted_run=True))
                continue
            reports[(side, length)] = sorter.sort_file(
                source, sorted_path,
                keep=_open_claims(ctx, closed, side) if closed is not None else None,
                hold=partial(plan.hold, partitions, side, length,
                             side == "S" or index < len(lengths) - 1)
                if plan is not None else None)
            partitions.delete(side, length)
    return SortPhaseReport(reports)
