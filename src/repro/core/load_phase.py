"""Load phase: bring reads into the 2-bit packed working store.

Accepts either a FASTQ file (parsed streamingly) or an existing packed
store (e.g. a materialized benchmark dataset); in both cases the phase
streams every read once and writes the run's private packed store into the
working directory, so the disk accountant sees the same one-read/one-write
traffic the paper's load phase performs.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from ..errors import DatasetError
from ..seq.fastq import fastq_read_batches
from ..seq.packing import PackedReadStore
from .context import RunContext

#: Reads converted per streaming step during load.
LOAD_BATCH_READS = 65536


def run_load(ctx: RunContext, source: str | Path | PackedReadStore) -> PackedReadStore:
    """Stream ``source`` into the run's packed store; returns it (read mode)."""
    store_path = ctx.workdir / "reads.lsgr"
    fastq_source = False
    with ExitStack() as files:
        if isinstance(source, PackedReadStore):
            batches = source.iter_batches(LOAD_BATCH_READS)
        else:
            source = Path(source)
            if not source.exists():
                raise DatasetError(f"input not found: {source}")
            if source.suffix == ".lsgr":
                batches = files.enter_context(PackedReadStore.open(
                    source, ctx.accountant)).iter_batches(LOAD_BATCH_READS)
            else:
                fastq_source = True
                batches = fastq_read_batches(source, batch_reads=LOAD_BATCH_READS,
                                             on_invalid="mask")

        writer: PackedReadStore | None = None
        n_reads = 0
        with ctx.tracer.span("load:stream", track="pipeline", det=True) as span:
            for batch in batches:
                if writer is None:
                    writer = files.enter_context(PackedReadStore.create(
                        store_path, batch.read_length, ctx.accountant))
                if fastq_source:
                    # Model the FASTQ text traffic: sequence + quality lines + headers.
                    ctx.accountant.add_read(batch.n_reads * (2 * batch.read_length + 16))
                writer.append_batch(batch)
                n_reads += batch.n_reads
            span.note(reads=n_reads)
    if writer is None:
        raise DatasetError("input contains no reads")
    return PackedReadStore.open(store_path, ctx.accountant)
