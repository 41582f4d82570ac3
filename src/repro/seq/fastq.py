"""Streaming FASTA/FASTQ readers and writers.

The load phase consumes FASTQ (the format every Table I dataset ships in)
and the contig output is FASTA. Both readers are generators that hold one
record at a time, matching the read-only-memory contract of the
semi-streaming model. :func:`fastq_read_batches` groups records into
batches for the GPU and holds one batch at a time: as many reads as its
caller asks for, which the load phase sizes from the host budget.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from ..errors import DatasetError
from .records import ReadBatch


def _open_text(path: str | Path | TextIO, mode: str = "r") -> tuple[TextIO, bool]:
    if hasattr(path, "read") or hasattr(path, "write"):
        return path, False  # caller-owned handle
    return open(path, mode, encoding="ascii", buffering=io.DEFAULT_BUFFER_SIZE * 16), True


def read_fastq(path: str | Path | TextIO) -> Iterator[tuple[str, str, str]]:
    """Yield ``(name, sequence, quality)`` triples from a FASTQ file."""
    handle, owned = _open_text(path)
    try:
        while True:
            header = handle.readline()
            if not header:
                return
            header = header.rstrip("\n")
            if not header:
                continue
            if not header.startswith("@"):
                raise DatasetError(f"malformed FASTQ: expected '@', got {header[:20]!r}")
            seq = handle.readline().rstrip("\n")
            plus = handle.readline().rstrip("\n")
            qual = handle.readline().rstrip("\n")
            if not plus.startswith("+"):
                raise DatasetError("malformed FASTQ: missing '+' separator line")
            if len(qual) != len(seq):
                raise DatasetError("malformed FASTQ: quality length != sequence length")
            yield header[1:], seq, qual
    finally:
        if owned:
            handle.close()


def read_fasta(path: str | Path | TextIO) -> Iterator[tuple[str, str]]:
    """Yield ``(name, sequence)`` pairs from a (possibly wrapped) FASTA file."""
    handle, owned = _open_text(path)
    try:
        name: str | None = None
        chunks: list[str] = []
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield name, "".join(chunks)
                name = line[1:]
                chunks = []
            else:
                if name is None:
                    raise DatasetError("malformed FASTA: sequence before first header")
                chunks.append(line)
        if name is not None:
            yield name, "".join(chunks)
    finally:
        if owned:
            handle.close()


def write_fastq(path: str | Path | TextIO, records: Iterable[tuple[str, str, str]]) -> int:
    """Write ``(name, sequence, quality)`` records; returns the record count."""
    handle, owned = _open_text(path, "w")
    count = 0
    try:
        for name, seq, qual in records:
            handle.write(f"@{name}\n{seq}\n+\n{qual}\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def write_fasta(path: str | Path | TextIO, records: Iterable[tuple[str, str]],
                *, line_width: int = 70) -> int:
    """Write ``(name, sequence)`` records wrapped at ``line_width`` columns."""
    handle, owned = _open_text(path, "w")
    count = 0
    try:
        for name, seq in records:
            handle.write(f">{name}\n")
            for start in range(0, len(seq), line_width):
                handle.write(seq[start:start + line_width] + "\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def fastq_read_batches(path: str | Path, *,
                       batch_reads: int | Callable[[int], int],
                       on_invalid: str = "strict") -> Iterator[ReadBatch]:
    """Stream a FASTQ file as :class:`ReadBatch` objects of ``batch_reads``.

    ``batch_reads`` may be a function of the read length, which is known
    once the first record is read: the load phase's batch rule. All reads
    must share one length (fixed-length Illumina datasets); a mismatch
    raises :class:`~repro.errors.DatasetError`.
    """
    step = batch_reads if callable(batch_reads) else lambda _: batch_reads
    if not callable(batch_reads) and batch_reads < 1:
        raise DatasetError("batch_reads must be >= 1")
    pending: list[str] = []
    start_id = 0
    read_length: int | None = None
    for _, seq, _ in read_fastq(path):
        if read_length is None:
            read_length = len(seq)
            size = step(read_length)
        elif len(seq) != read_length:
            raise DatasetError(
                f"variable read length ({len(seq)} vs {read_length}); "
                "fixed-length datasets are required (see DESIGN.md)"
            )
        pending.append(seq)
        if len(pending) == size:
            yield ReadBatch.from_strings(pending, start_id=start_id, on_invalid=on_invalid)
            start_id += len(pending)
            pending = []
    if pending:
        yield ReadBatch.from_strings(pending, start_id=start_id, on_invalid=on_invalid)
