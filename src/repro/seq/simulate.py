"""Reference-genome and shotgun-read simulation.

The paper evaluates on Illumina archives (9.2–398 GB) that are not shipped
here; this module is the documented substitute (DESIGN.md §1). It generates

* a random reference genome, optionally with implanted exact repeats longer
  than typical k-mer sizes (the case where de Bruijn assemblers collapse and
  string graphs do not — the paper's §II.A.1 motivation), and
* uniform shotgun reads of one fixed length at a target coverage, from both
  strands, with an optional per-base substitution error rate.

Everything is deterministic under an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import DatasetError
from .alphabet import ALPHABET_SIZE, decode, reverse_complement
from .records import ReadBatch
from .fastq import write_fastq


def simulate_genome(length: int, *, seed: int = 0, repeat_fraction: float = 0.0,
                    repeat_length: int = 500) -> np.ndarray:
    """Generate a random genome as a 1-D ``uint8`` code array.

    ``repeat_fraction`` of the genome is overwritten with copies of a single
    ``repeat_length`` template, creating exact long repeats.
    """
    if length < 1:
        raise DatasetError("genome length must be >= 1")
    if not 0.0 <= repeat_fraction < 1.0:
        raise DatasetError("repeat_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, ALPHABET_SIZE, size=length, dtype=np.uint8)
    if repeat_fraction > 0.0 and length > repeat_length * 2:
        template = genome[:repeat_length].copy()
        n_copies = max(1, int(length * repeat_fraction / repeat_length))
        # Copies never overwrite the template region, so the template itself
        # always survives as one more occurrence.
        starts = rng.integers(repeat_length, length - repeat_length, size=n_copies)
        for start in starts:
            genome[start:start + repeat_length] = template
    return genome


@dataclass(frozen=True)
class ReadSimulator:
    """Uniform shotgun read sampler over a simulated genome.

    Parameters
    ----------
    genome:
        1-D ``uint8`` code array (see :func:`simulate_genome`).
    read_length:
        Fixed read length; must not exceed the genome length.
    coverage:
        Target mean coverage; the read count is
        ``round(coverage * len(genome) / read_length)``.
    error_rate:
        Per-base substitution probability (0 = error-free, the regime the
        paper's exact-fingerprint overlaps assume).
    rc_fraction:
        Fraction of reads sampled from the reverse strand.
    seed:
        RNG seed. Randomness is *stateless per read* (a splitmix64 hash of
        ``(seed, read index)``), so read ``i`` is identical no matter how
        the stream is batched — the property that lets the distributed map
        phase hand arbitrary read ranges to different nodes.
    """

    genome: np.ndarray
    read_length: int
    coverage: float
    error_rate: float = 0.0
    rc_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        genome = np.asarray(self.genome, dtype=np.uint8)
        object.__setattr__(self, "genome", genome)
        if self.read_length < 2 or self.read_length > genome.size:
            raise DatasetError("read_length must be in [2, len(genome)]")
        if self.coverage <= 0:
            raise DatasetError("coverage must be positive")
        if not 0.0 <= self.error_rate < 1.0 or not 0.0 <= self.rc_fraction <= 1.0:
            raise DatasetError("error_rate in [0,1) and rc_fraction in [0,1] required")

    @property
    def n_reads(self) -> int:
        """Total number of reads the simulator will produce."""
        return max(1, int(round(self.coverage * self.genome.size / self.read_length)))

    def _uniform(self, indices: np.ndarray, stream: int) -> np.ndarray:
        """Stateless per-index uniforms in [0, 1) via splitmix64.

        All arithmetic is intentionally modular in uint64 (splitmix64's
        definition), so numpy's overflow warnings are suppressed.
        """
        stream_offset = (stream * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        with np.errstate(over="ignore"):
            x = (indices.astype(np.uint64)
                 + np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
                 + np.uint64(stream_offset))
            x = (x + np.uint64(0x9E3779B97F4A7C15))
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            x = x ^ (x >> np.uint64(31))
        return x.astype(np.float64) / float(2**64)

    def batches(self, batch_reads: int = 65536) -> Iterator[ReadBatch]:
        """Yield the reads as :class:`ReadBatch` chunks.

        Read ``i`` is a pure function of ``(seed, i)`` — rebatching or
        slicing the stream never changes any read.
        """
        if batch_reads < 1:
            raise DatasetError("batch_reads must be >= 1")
        total = self.n_reads
        window = np.arange(self.read_length, dtype=np.int64)
        produced = 0
        while produced < total:
            n = min(batch_reads, total - produced)
            indices = np.arange(produced, produced + n, dtype=np.uint64)
            span = self.genome.size - self.read_length + 1
            starts = (self._uniform(indices, 0) * span).astype(np.int64)
            codes = self.genome[starts[:, None] + window]
            flip = self._uniform(indices, 1) < self.rc_fraction
            if flip.any():
                codes = codes.copy()
                codes[flip] = reverse_complement(codes[flip])
            if self.error_rate > 0.0:
                base_index = indices[:, None] * np.uint64(self.read_length) \
                    + window.astype(np.uint64)[None, :]
                mask = self._uniform(base_index.ravel(), 2).reshape(codes.shape) \
                    < self.error_rate
                if mask.any():
                    codes = codes.copy()
                    shifts = (self._uniform(base_index.ravel(), 3).reshape(
                        codes.shape)[mask] * (ALPHABET_SIZE - 1)).astype(np.uint8) + 1
                    codes[mask] = (codes[mask] + shifts) % ALPHABET_SIZE
            yield ReadBatch(np.ascontiguousarray(codes), start_id=produced)
            produced += n

    def all_reads(self) -> ReadBatch:
        """Materialize every read in one batch (small datasets only)."""
        batches = list(self.batches(batch_reads=self.n_reads))
        return batches[0]

    def to_fastq(self, path, *, name_prefix: str = "sim") -> int:
        """Write all reads to a FASTQ file; returns the read count."""
        quality = "I" * self.read_length

        def records():
            for batch in self.batches():
                for offset, row in enumerate(batch.codes):
                    yield f"{name_prefix}.{batch.start_id + offset}", decode(row), quality

        return write_fastq(path, records())

