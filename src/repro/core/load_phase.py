"""Load phase: bring reads into the 2-bit packed working store.

Accepts either a FASTQ file or an existing packed store (e.g. a
materialized benchmark dataset); in both cases the phase streams every read
once and writes the run's private packed store into the working directory,
so the disk accountant sees the same one-read/one-write traffic the paper's
load phase performs. Each streaming step is the largest batch of reads
that fits the host budget (:func:`~repro.core.residency.stream_batch_reads`),
reserved in the host pool while it is held, so the phase's memory follows
the budget, not the read set.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from ..errors import DatasetError
from ..seq.fastq import fastq_read_batches
from ..seq.packing import PackedReadStore
from .context import RunContext
from .residency import load_read_bytes, stream_batch_reads


def run_load(ctx: RunContext, source: str | Path | PackedReadStore) -> PackedReadStore:
    """Stream ``source`` into the run's packed store; returns it (read mode)."""
    store_path = ctx.workdir / "reads.lsgr"
    with ExitStack() as files:
        if isinstance(source, PackedReadStore):
            packed = source
        else:
            source = Path(source)
            if not source.exists():
                raise DatasetError(f"input not found: {source}")
            packed = files.enter_context(PackedReadStore.open(
                source, ctx.accountant)) if source.suffix == ".lsgr" else None
        fastq = packed is None

        def read_bytes(read_length: int) -> int:
            return load_read_bytes(read_length, fastq=fastq)

        def step(read_length: int) -> int:
            return stream_batch_reads(ctx, read_bytes(read_length))

        batches = fastq_read_batches(source, batch_reads=step,
                                     on_invalid="mask") if fastq \
            else packed.iter_batches(step(packed.read_length))

        writer: PackedReadStore | None = None
        n_reads = 0
        with ctx.tracer.span("load:stream", track="pipeline", det=True) as span:
            for batch in batches:
                if writer is None:
                    writer = files.enter_context(PackedReadStore.create(
                        store_path, batch.read_length, ctx.accountant))
                with ctx.host_pool.alloc(
                        batch.n_reads * read_bytes(batch.read_length),
                        label="load-batch"):
                    if fastq:
                        # Model the FASTQ text traffic: sequence + quality
                        # lines + headers.
                        ctx.accountant.add_read(
                            batch.n_reads * (2 * batch.read_length + 16))
                    writer.append_batch(batch)
                n_reads += batch.n_reads
            span.note(reads=n_reads)
    if writer is None:
        raise DatasetError(
            f"input contains no reads: {getattr(source, 'path', source)}")
    return PackedReadStore.open(store_path, ctx.accountant)
