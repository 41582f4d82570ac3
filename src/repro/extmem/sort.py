"""The hybrid two-level external sort (§III.B), with fanout-k merging.

Level 1 (disk ↔ host): the input run is read in *host blocks* of ``m_h``
records, each block is sorted and written back as an initial run; runs are
then merged ``merge_fanout`` at a time (Algorithm 1 generalized to k
streams, each windowed at ``m_h / (HOST_KWAY_FOOTPRINT · k)`` records)
until one remains. Disk passes: ``1 + ⌈log_k(number of initial runs)⌉`` —
the paper's pairwise merge is the ``k = 2`` case, and raising the fanout
trades host window size for disk passes exactly as the k-way external
merges of Bonizzoni et al. and Guidi et al. do.

Level 2 (host ↔ device): a host block is sorted by splitting it into
*device chunks* of ``m_d`` records, radix-sorting each on the virtual GPU,
and merging the sorted chunks ``merge_fanout`` at a time with Algorithm 1
streaming device-sized windows — so the device never holds more than its
capacity, while the disk sees only the level-1 traffic. This is the
paper's key optimization: host buffering cuts disk passes by
``log(m_h/m_d)`` without changing the device-side work.

Footprint divisors translate the paper's "``m`` elements fit in memory"
into concrete buffer sizes that include the scratch space the kernels need
(ping-pong sort buffers, merge inputs + output).

Crash safety: all intermediate runs live in a ``<out>.scratch`` directory
that is removed whether the sort succeeds or raises, and the final run is
moved into place with an atomic :meth:`Path.replace` — an interrupted sort
never leaves partial output or scratch residue behind.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..device.gpu import VirtualGPU
from ..device.kernels import raw_view
from ..device.memory import MemoryPool
from ..errors import ConfigError
from ..faults import plan as faults
from ..trace.tracer import NULL_TRACER
from .io_stats import IOAccountant
from .merge import merge_in_memory_k, merge_streams_k
from .streams import HeldRun, RunReader, RunWriter

#: A block being sorted in host memory needs itself + its sorted copy.
HOST_SORT_FOOTPRINT = 2
#: Per-way cost of a fanout-k merge: one input window plus that window's
#: share of the merged output. k ways therefore claim
#: ``HOST_KWAY_FOOTPRINT · k`` windows of host budget, so each window is
#: ``m_h / (HOST_KWAY_FOOTPRINT · k)`` records.
HOST_KWAY_FOOTPRINT = 2
#: Device radix sort: input + ping-pong scratch + output.
DEVICE_SORT_FOOTPRINT = 3
#: Per-way device cost of a gathered k-way merge (inputs + output).
DEVICE_KWAY_FOOTPRINT = 2


def merge_rounds_for(initial_runs: int, fanout: int) -> int:
    """``⌈log_k R⌉`` — merge rounds to fold ``initial_runs`` into one.

    Computed by iterated ceil-division, exactly as the merge loop groups
    runs, so model and implementation can never disagree on rounding.
    """
    rounds = 0
    runs = max(0, initial_runs)
    while runs > 1:
        runs = math.ceil(runs / fanout)
        rounds += 1
    return rounds


@dataclass(frozen=True)
class SortReport:
    """What one external sort did."""

    n_records: int
    initial_runs: int
    merge_rounds: int
    #: Merge fanout ``k`` used for the level-1 rounds (2 = pairwise).
    fanout: int = 2

    @property
    def disk_passes(self) -> int:
        """Times the whole dataset crossed the disk (run formation + rounds)."""
        return (1 + self.merge_rounds) if self.n_records else 0


class ExternalSorter:
    """Sorts run files larger than memory through the two-level hierarchy."""

    def __init__(self, *, gpu: VirtualGPU, host_pool: MemoryPool,
                 accountant: IOAccountant | None, dtype: np.dtype,
                 host_block_pairs: int, device_block_pairs: int,
                 merge_fanout: int = 2, tracer=None):
        if host_block_pairs < 2 or device_block_pairs < 2:
            raise ConfigError("block sizes must be >= 2 records")
        if merge_fanout < 2:
            raise ConfigError("merge_fanout must be >= 2")
        self.gpu = gpu
        self.host_pool = host_pool
        self.accountant = accountant
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dtype = np.dtype(dtype)
        self.m_h = host_block_pairs
        self.m_d = min(device_block_pairs, host_block_pairs)
        self.fanout = merge_fanout
        self.host_block = max(2, self.m_h // HOST_SORT_FOOTPRINT)
        self.host_kway_window = max(
            1, self.m_h // (HOST_KWAY_FOOTPRINT * self.fanout))
        self.device_chunk = max(2, self.m_d // DEVICE_SORT_FOOTPRINT)
        self.device_kway_window = max(
            1, self.m_d // (DEVICE_KWAY_FOOTPRINT * self.fanout))
        #: Largest equalized-window total the gathered device k-way kernel
        #: may see (inputs + merged output must both fit the device pool).
        self.device_kway_budget = max(2, self.m_d // DEVICE_KWAY_FOOTPRINT)

    # -- level 2: device-backed host-block sorting ----------------------------

    def _device_sort_chunk(self, records: np.ndarray) -> np.ndarray:
        chunk_d = self.gpu.to_device(records, label="sort-chunk")
        sorted_d = self.gpu.sort_records_device(chunk_d)
        chunk_d.free()
        # Sort the caller's chunk in place when it may be written:
        # run-formation chunks are private (freshly read, or slices of one
        # fresh block), so writing back spares a same-size host allocation
        # per chunk.
        out = self.gpu.to_host(
            sorted_d, out=records if records.flags.writeable else None)
        sorted_d.free()
        return out

    def merge_windows(self, parts: list[np.ndarray],
                      out: np.ndarray | None = None) -> np.ndarray:
        """Merge equalized window prefixes through the device (k-ary executor).

        Totals within the device budget go through one fused k-way launch.
        Larger totals (a level-1 host window's prefixes) are streamed
        through the same launch by Algorithm 1 itself, in windows of
        ``device_kway_window`` records a part, as a host block's sorted
        chunks are: every record crosses the device once per merge, at any
        fanout, and the device pool bound holds for any host window size.
        The merged run lands in ``out`` when one is given.
        """
        parts = [part for part in parts if part.shape[0]]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        if len(parts) == 1:
            return parts[0]
        total = sum(part.shape[0] for part in parts)
        if total <= self.device_kway_budget:
            return self.gpu.merge_records_device_k(parts, out=out)
        # At most ``fanout`` windows of ``device_kway_window`` records fit
        # the budget, so the inner merges launch directly (windows of one
        # record, on a device too small for that, only pass through).
        return merge_in_memory_k(
            parts, window_records=self.device_kway_window,
            merge_fn_k=self.merge_windows, out=out)

    def sort_block_in_host(self, records: np.ndarray) -> np.ndarray:
        """Sort one host-resident block by streaming device chunks (level 2)."""
        if records.shape[0] <= self.device_chunk:
            return self._device_sort_chunk(records) if records.shape[0] else records
        runs = [self._device_sort_chunk(records[start:start + self.device_chunk])
                for start in range(0, records.shape[0], self.device_chunk)]
        while len(runs) > 1:
            next_runs = []
            for start in range(0, len(runs), self.fanout):
                group = runs[start:start + self.fanout]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                next_runs.append(merge_in_memory_k(
                    group, window_records=self.device_kway_window,
                    merge_fn_k=self.merge_windows))
            runs = next_runs
        return runs[0]

    # -- level 1: disk-backed run sorting ---------------------------------------

    def report_for(self, n_records: int) -> SortReport:
        """The :class:`SortReport` this sorter would produce for ``n_records``.

        Lets a resumed run reconstruct the report of a partition whose
        sorted file already exists (the unsorted input was consumed), so a
        recovered pipeline returns byte-identical reports.
        """
        initial_runs = math.ceil(n_records / self.host_block) if n_records else 0
        return SortReport(n_records, initial_runs,
                          merge_rounds_for(initial_runs, self.fanout),
                          self.fanout)

    def sort_file(self, in_path: str | Path | HeldRun, out_path: str | Path, *,
                  keep=None, hold=None) -> SortReport:
        """Sort a run file into ``out_path``; returns the :class:`SortReport`.

        ``in_path`` may also be a run already in host memory (a
        :class:`~repro.extmem.streams.HeldRun`): it is read from there, and
        closed once read.

        ``keep(records) -> bool mask`` filters the input during run
        formation: only the records it keeps are sorted, written and
        counted, so the report (and :meth:`report_for` of the sorted file's
        size) describes the surviving records alone.

        ``hold(records) -> bool`` is offered the sorted run, still in host
        memory, when run formation makes exactly one (no merge round), and
        says whether it kept the array: a kept run is never written (no
        ``out_path`` appears), and the array is its only copy.

        Crash-safe: scratch space (made by the first run written) is torn
        down on both success and failure, and ``out_path`` appears
        atomically (rename of a finished run).
        """
        if isinstance(in_path, str):
            in_path = Path(in_path)
        out_path = Path(out_path)
        read = (in_path.stat().st_size // self.dtype.itemsize
                if isinstance(in_path, Path) else in_path.total_records)
        scratch_dir = out_path.parent / (out_path.name + ".scratch")
        try:
            with self.tracer.span(f"sort:{out_path.name}", track="sort",
                                  det=True) as span:
                report, held = self._sort_into(in_path, out_path, scratch_dir,
                                               keep, hold)
                span.note(read=read, kept=report.n_records,
                          runs=report.initial_runs,
                          rounds=report.merge_rounds, held=int(held))
            return report
        finally:
            # A real crash never runs cleanup: when an injected crash is
            # unwinding, leave the scratch residue for recovery to face.
            if scratch_dir.exists() and not faults.crash_pending():
                for stray in scratch_dir.iterdir():
                    stray.unlink()
                scratch_dir.rmdir()

    def _blocks(self, reader: RunReader, keep):
        """Run-formation blocks of ``host_block`` records, in file order,
        each with whether it is known to be the last.

        Without ``keep`` a block is one read. With it, each piece read is
        filtered and its survivors are carried over until exactly
        ``host_block`` of them are held (the last block may be shorter):
        the run count then follows the *surviving* records, which is what
        lets :meth:`report_for` reconstruct the report from the sorted
        file's size. One raw piece plus the carried block is the
        ``HOST_SORT_FOOTPRINT · host_block`` a run reserves anyway.
        """
        if keep is None:
            while not reader.exhausted:
                block = reader.read(self.host_block)
                yield block, reader.exhausted
            return
        # A file shorter than a block never fills one: do not ask for more.
        capacity = min(self.host_block, reader.total_records)
        held = np.empty(capacity, dtype=self.dtype)
        n_held = 0
        full_blocks = 0
        while not reader.exhausted:
            piece = reader.read(self.host_block)
            survivors = np.flatnonzero(keep(piece))
            while survivors.shape[0]:
                take = survivors[:self.host_block - n_held]
                survivors = survivors[take.shape[0]:]
                # Records move through the byte view (``take`` indexes the
                # piece, so mode="clip" never clips; it lets numpy gather
                # straight into ``held`` instead of through a buffer).
                np.take(raw_view(piece), take, mode="clip",
                        out=raw_view(held)[n_held:n_held + take.shape[0]])
                n_held += take.shape[0]
                if n_held == self.host_block:
                    # The caller has written the block's run by the time it
                    # pulls again, so the next block fills the same buffer.
                    # Later pieces may all be filtered out: then this block
                    # proves to be the last only once the reader is.
                    yield held, reader.exhausted and not survivors.shape[0]
                    full_blocks += 1
                    n_held = 0
        if n_held and not full_blocks:
            # The only block, so the only run: copy it out and drop the
            # buffer. A run kept after the sort then retains its records'
            # bytes, not the unfiltered file's. (An in-place resize checks
            # refcounts, which a trace function such as pdb's raises.)
            held = held[:n_held].copy()
            yield held, True
        elif n_held:
            yield held[:n_held], True

    def _write_run(self, scratch_dir: Path, index: int,
                   records: np.ndarray) -> Path:
        """Write one initial run into ``scratch_dir``; returns its path."""
        run_path = scratch_dir / f"run_{index:05d}.run"
        # det=False keeps the per-run spans out of the sim export (its size).
        with self.tracer.span("run:write", track="sort"), \
                RunWriter(run_path, self.dtype, self.accountant) as writer:
            writer.append(records)
        return run_path

    def _sort_into(self, in_path: Path | HeldRun, out_path: Path,
                   scratch_dir: Path, keep, hold) -> tuple[SortReport, bool]:
        """The sort, and whether ``hold`` kept its one run (see
        :meth:`sort_file`)."""
        record_nbytes = self.dtype.itemsize

        # Run formation: each host block is read, sorted through the device
        # and written as a run before the next is read. A last block that
        # is the only one waits: it is offered to ``hold`` first.
        run_paths: list[Path] = []
        pending = None
        n_records = 0
        with self.tracer.span("runs", track="sort", det=True) as runs_span, \
                (RunReader(in_path, self.dtype, self.accountant)
                 if isinstance(in_path, Path) else in_path) as reader:
            for block, last in self._blocks(reader, keep):
                sorted_block = self.sort_block_in_host(block)
                with self.host_pool.alloc(sorted_block.shape[0] * record_nbytes *
                                          HOST_SORT_FOOTPRINT, label="sort-block"):
                    n_records += sorted_block.shape[0]
                    if hold is not None and last and not run_paths:
                        pending = sorted_block
                    else:
                        run_paths.append(self._write_run(
                            scratch_dir, len(run_paths), sorted_block))
            initial_runs = len(run_paths) + (pending is not None)
            # Offered once the block's reservation is gone, as the finished
            # sort's run. A full block is written before the reader shows
            # it was the last: that run is offered after its write.
            held = hold is not None and initial_runs == 1 and hold(
                sorted_block if pending is None else pending)
            if pending is not None and not held:
                run_paths.append(self._write_run(scratch_dir, 0, pending))
            runs_span.note(runs=initial_runs, records=n_records)

        report = SortReport(n_records, initial_runs,
                            merge_rounds_for(initial_runs, self.fanout),
                            self.fanout)
        if held:
            for path in run_paths:
                path.unlink()
            return report, True

        if initial_runs == 0:
            # Nothing to write: an empty file appears whole or not at all.
            faults.barrier(faults.RENAME, str(out_path))
            out_path.write_bytes(b"")
            return report, False

        # Merge rounds: fanout-k Algorithm 1 through host windows.
        merge_rounds = 0
        generation = 0
        while len(run_paths) > 1:
            merge_rounds += 1
            next_paths: list[Path] = []
            with self.tracer.span("merge-round", track="sort", det=True,
                                  round=merge_rounds, runs=len(run_paths)):
                for group_index, start in enumerate(range(0, len(run_paths),
                                                          self.fanout)):
                    group = run_paths[start:start + self.fanout]
                    if len(group) == 1:
                        next_paths.append(group[0])
                        continue
                    merged_path = (scratch_dir /
                                   f"merge_{generation:03d}_{group_index:05d}.run")
                    group_records = (sum(p.stat().st_size for p in group)
                                     // record_nbytes)
                    working = min(
                        self.host_kway_window * HOST_KWAY_FOOTPRINT * len(group),
                        2 * group_records) * record_nbytes
                    with self.tracer.span("merge-group", track="sort", det=True,
                                          ways=len(group),
                                          records=group_records), \
                            self.host_pool.alloc(working, label="merge-windows"), \
                            ExitStack() as stack:
                        readers = [stack.enter_context(
                            RunReader(p, self.dtype, self.accountant))
                            for p in group]
                        writer = stack.enter_context(
                            RunWriter(merged_path, self.dtype, self.accountant))
                        merge_streams_k(readers, writer.append,
                                        window_records=self.host_kway_window,
                                        merge_fn_k=self.merge_windows,
                                        tracer=self.tracer)
                    for path in group:
                        path.unlink()
                    next_paths.append(merged_path)
            run_paths = next_paths
            generation += 1

        faults.barrier(faults.RENAME, str(out_path))
        run_paths[0].replace(out_path)
        return report, False
