"""Load phase: bring reads into the 2-bit packed working store.

Accepts either a FASTQ file or an existing packed store (e.g. a
materialized benchmark dataset); in both cases the phase streams every read
once and writes the run's private packed store into the working directory,
so the disk accountant sees the same one-read/one-write traffic the paper's
load phase performs. Each streaming step is the largest batch of reads
that fits the host budget (:func:`~repro.core.residency.stream_batch_reads`),
reserved in the host pool while it is held, so the phase's memory follows
the budget, not the read set.

While the reads so far are few enough for an in-core run
(:func:`~repro.core.residency.in_core_reads`, the residency plan's own
bound), load also keeps the packed bytes of each step it writes, in one
``held-store`` reservation that grows by each step, and the store it
returns holds them (:meth:`~repro.seq.packing.PackedReadStore.adopt`): an
in-core run reads its input once, here, and never the store off the disk.
Once a step would take the count past the bound the copy is let go
before the step is reserved, and load streams alone. While a copy may be
held beside a later step, every step is sized to fit beside the largest
copy load can hold (``in_core_reads`` reads' packed bytes).
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from ..errors import DatasetError
from ..seq.fastq import fastq_read_batches
from ..seq.packing import PackedReadStore
from .context import RunContext
from .residency import in_core_reads, load_read_bytes, stream_batch_reads


def run_load(ctx: RunContext, source: str | Path | PackedReadStore) -> PackedReadStore:
    """Stream ``source`` into the run's packed store; returns it (read mode),
    holding its reads in host memory if the run is in core."""
    store_path = ctx.workdir / "reads.lsgr"
    with ExitStack() as files, ExitStack() as holding:
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

        bound = 0

        def step(read_length: int) -> int:
            nonlocal bound
            bound = in_core_reads(ctx, read_length)
            reads = stream_batch_reads(ctx, read_bytes(read_length))
            if reads < bound:
                # A later step may be taken beside the copy of up to
                # ``bound`` reads: every step fits beside the whole copy.
                reads = stream_batch_reads(
                    ctx, read_bytes(read_length),
                    beside=bound * -(-read_length // 4))
            return reads

        batches = fastq_read_batches(source, batch_reads=step,
                                     on_invalid="mask") if fastq \
            else packed.iter_batches(step(packed.read_length))

        writer: PackedReadStore | None = None
        n_reads = 0
        # The packed bytes of each step, while the run stays in core.
        steps, held = [], None
        with ctx.tracer.span("load:stream", track="pipeline", det=True) as span:
            for batch in batches:
                if writer is None:
                    writer = files.enter_context(PackedReadStore.create(
                        store_path, batch.read_length, ctx.accountant))
                in_core = n_reads + batch.n_reads <= bound
                if not in_core:
                    # Out of core: the copy goes before the step is
                    # reserved, and load streams alone.
                    holding.close()
                    steps = []
                with ctx.host_pool.alloc(
                        batch.n_reads * read_bytes(batch.read_length),
                        label="load-batch"):
                    if fastq:
                        # Model the FASTQ text traffic: sequence + quality
                        # lines + headers.
                        ctx.accountant.add_read(
                            batch.n_reads * (2 * batch.read_length + 16))
                    written = writer.append_batch(batch)
                n_reads += batch.n_reads
                if not in_core:
                    continue
                if held is None:
                    held = holding.enter_context(ctx.host_pool.alloc(
                        written.nbytes, label="held-store"))
                else:
                    held.grow(written.nbytes, label="held-store")
                steps.append(written)
            span.note(reads=n_reads)
        if writer is None:
            raise DatasetError(
                f"input contains no reads: {getattr(source, 'path', source)}")
        writer.close()
        store = PackedReadStore.open(store_path, ctx.accountant)
        if steps:
            store.adopt(steps, held)
            holding.pop_all()
    return store
