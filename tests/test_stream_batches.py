"""Load and compress stream the reads in steps sized by the host budget.

Each step is the largest batch of reads that fits what the host pool has
free (:func:`~repro.core.residency.stream_batch_reads`): a FASTQ read costs
load its text, its codes and its packed bytes, and a read costs compress
its codes and their reverse complement beside the placement tables. Each
step is reserved in the pool (``load-batch``, ``compress-batch``). So a run
whose read set is larger than its host budget loads and spells contigs in
several steps, to the same store and the same contigs as one step, and the
heap of the two phases follows the budget, not the read set.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import Assembler, AssemblyConfig, MemoryConfig
from repro.core import load_phase, pipeline
from repro.core.context import RunContext
from repro.core.residency import (STREAM_BATCH_READS, compress_read_bytes,
                                  load_read_bytes, stream_batch_reads)
from repro.device.memory import MemoryPool
from repro.seq.simulate import ReadSimulator, simulate_genome

READ_LENGTH = 100
MIN_OVERLAP = 63


def _fastq(directory, genome_length: int, seed: int = 7):
    genome = simulate_genome(genome_length, seed=seed)
    path = directory / "reads.fastq"
    ReadSimulator(genome, READ_LENGTH, 40.0, seed=seed + 1).to_fastq(path)
    return path


def _config(host_bytes: int, device_bytes: int) -> AssemblyConfig:
    """The out-of-core benchmark recipe's configuration, on these budgets."""
    return AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2,
                          memory=MemoryConfig(host_bytes, device_bytes))


@pytest.fixture()
def reservations(monkeypatch) -> dict[str, list[int]]:
    """The bytes of each host-pool reservation, by label."""
    made: dict[str, list[int]] = {}
    alloc = MemoryPool.alloc

    def recording(self, nbytes, *, label=""):
        made.setdefault(label, []).append(nbytes)
        return alloc(self, nbytes, label=label)

    monkeypatch.setattr(MemoryPool, "alloc", recording)
    return made


def test_the_step_is_what_the_budget_leaves(tmp_path):
    """A step takes the pool's free bytes over a read's cost, between one
    read and the 65,536-read cap."""
    per_read = load_read_bytes(READ_LENGTH, fastq=True)
    assert per_read == (2 * READ_LENGTH + 16) + READ_LENGTH + READ_LENGTH // 4
    assert load_read_bytes(READ_LENGTH, fastq=False) \
        == READ_LENGTH + 2 * (READ_LENGTH // 4)
    assert compress_read_bytes(READ_LENGTH) == 2 * READ_LENGTH
    for host_bytes, reads in ((100, 1), (10 * per_read + 5, 10),
                              (1 << 40, STREAM_BATCH_READS)):
        ctx = RunContext(_config(host_bytes, 50), workdir=tmp_path)
        assert stream_batch_reads(ctx, per_read) == reads


def test_a_fastq_in_several_steps_loads_the_store_of_one_step(
        tmp_path, monkeypatch, reservations):
    """The store a FASTQ loads to in budget-sized steps is byte for byte
    the one-step store, its read ids run on from step to step, and the run
    assembles the contigs of a one-step run."""
    source = _fastq(tmp_path, 4_000)
    steps = []
    batches = load_phase.fastq_read_batches

    def spying(*args, **kwargs):
        for batch in batches(*args, **kwargs):
            steps.append((batch.start_id, batch.n_reads))
            yield batch

    monkeypatch.setattr(load_phase, "fastq_read_batches", spying)
    tight = _config(82_000, 60_000)
    stepped = Assembler(tight).assemble(source, workdir=tmp_path / "stepped")
    n_reads = stepped.n_reads
    per_read = load_read_bytes(READ_LENGTH, fastq=True)
    step = 82_000 // per_read
    assert [n for _, n in steps] == [step] * (n_reads // step) \
        + [n_reads % step] * bool(n_reads % step)
    assert len(steps) > 1
    assert [start for start, _ in steps] \
        == list(np.cumsum([0] + [n for _, n in steps[:-1]]))
    assert reservations["load-batch"] == [n * per_read for _, n in steps]
    assert len(reservations["compress-batch"]) > 1
    assert stepped.telemetry["load"].peaks["host_bytes"] == step * per_read

    steps.clear()
    whole = Assembler(_config(256 << 20, 16 << 20)).assemble(
        source, workdir=tmp_path / "whole")
    assert steps == [(0, n_reads)]
    assert (tmp_path / "stepped" / "reads.lsgr").read_bytes() \
        == (tmp_path / "whole" / "reads.lsgr").read_bytes()
    assert stepped.contigs.flat_codes.tobytes() \
        == whole.contigs.flat_codes.tobytes()
    assert np.array_equal(stepped.contigs.offsets, whole.contigs.offsets)


def test_a_packed_source_loads_in_steps_too(tmp_path, reservations):
    """A packed store is copied in steps of the same rule: a read costs
    its packed bytes twice and its codes."""
    source = _fastq(tmp_path, 2_000)
    ctx = RunContext(_config(256 << 20, 16 << 20), workdir=tmp_path / "fastq")
    load_phase.run_load(ctx, source).close()
    packed = tmp_path / "fastq" / "reads.lsgr"
    per_read = load_read_bytes(READ_LENGTH, fastq=False)
    ctx = RunContext(_config(100 * per_read, 10_000),
                     workdir=tmp_path / "packed")
    with load_phase.run_load(ctx, packed) as store:
        n_reads = store.n_reads
    assert reservations["load-batch"][-2:] \
        == [100 * per_read, (n_reads % 100 or 100) * per_read]
    assert len(reservations["load-batch"]) == 1 + -(-n_reads // 100)
    assert (tmp_path / "packed" / "reads.lsgr").read_bytes() \
        == packed.read_bytes()


def _heap_peaks(monkeypatch, source, config, workdir) -> dict[str, int]:
    """The heap each of load and compress allocates at its peak: traced
    from the phase's start, so what earlier phases left is not counted."""
    peaks = {}

    def traced(name):
        phase = getattr(pipeline, name)

        def run(*args, **kwargs):
            gc.collect()
            tracemalloc.start()
            try:
                return phase(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        monkeypatch.setattr(pipeline, name, run)

    traced("run_load")
    traced("run_compress")
    Assembler(config).assemble(source, workdir=workdir)
    return peaks


def test_load_and_compress_heap_follows_the_budget(tmp_path, monkeypatch):
    """The out-of-core recipe at 1/15.5 of the benchmark's size, at x1 and
    x4 with data and budgets scaled together: load's and compress's heap
    peaks grow no faster than the host budget, and at x4 stay within 2.5
    times it. Holding the whole read set, as one 65,536-read step does
    here, load takes 9 times the budget and compress 6.6 at every scale."""
    if tracemalloc.is_tracing():
        pytest.skip("the process is traced already")
    budgets, peaks = {}, {}
    for scale in (1, 4):
        directory = tmp_path / f"x{scale}"
        directory.mkdir()
        source = _fastq(directory, 4_000 * scale)
        budgets[scale] = 82_000 * scale
        peaks[scale] = _heap_peaks(monkeypatch, source,
                                   _config(budgets[scale], 60_000 * scale),
                                   directory / "work")
        monkeypatch.undo()
    growth = budgets[4] / budgets[1]
    for phase in ("run_load", "run_compress"):
        assert peaks[4][phase] / peaks[1][phase] <= growth, (phase, peaks)
        assert peaks[4][phase] <= 2.5 * budgets[4], (phase, peaks)
