"""The five workloads: seeded inputs, one run through a public entry point,
and reference-based verification of what the run returned.

Every workload runs the program with its *default* ``workers`` and
``executor_backend`` (never pinned here, so a later change of the default
shows up in the numbers) and hands it only generated input files.

Sizes. The common read set ``R`` is the Table I H.Genome analog (100 bp
reads, 40x, ``l_min`` = 63, two fingerprint lanes = the paper's 20-byte
record) at scale 2e-5: a 62 kb genome, 24,800 reads. ``outofcore`` gives it
the paper's 64 GB host and 6 GB device at the same scale (1,280,000 B: two
disk passes; 120,000 B: 5 reads per map launch). The serve sources are half
the 30 kb ISSUE.md sized them at: the driver makes 114 runs inside 3420 s,
five repetitions of every workload at the issue's sizes do not fit, and the
shape the issue was sized on lives in ``R``, not in the job mix.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import Assembler, AssemblyConfig
from repro.config import MemoryConfig, ServiceConfig
from repro.distributed import DistributedAssembler
from repro.seq.alphabet import reverse_complement
from repro.seq.packing import PackedReadStore
from repro.seq.simulate import ReadSimulator, simulate_genome
from repro.service import AssemblyService, JobSpec, TrafficMix, default_job_config

#: Assemblies below this reference coverage fail verification.
MIN_GENOME_FRACTION = 0.99


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale (full or ``--smoke``)."""

    genome: int
    outofcore_host: int
    outofcore_device: int
    n_jobs: int
    n_sources: int
    source_genome: int


FULL = Sizes(genome=62_000, outofcore_host=1_280_000, outofcore_device=120_000,
             n_jobs=24, n_sources=6, source_genome=15_000)
SMOKE = Sizes(genome=4_000, outofcore_host=82_000, outofcore_device=60_000,
              n_jobs=6, n_sources=2, source_genome=2_000)

READ_LENGTH = 100
COVERAGE = 40.0
MIN_OVERLAP = 63
N_NODES = 4


@dataclass
class Observation:
    """What one run returned, reduced to what the benchmark compares."""

    sim_s: float
    #: Hash of every contig byte the run produced (per job, for the service).
    digest: str
    #: Verification units: 1 per assemble run, one per job for the service.
    attempted: int
    failed: int
    genome_fraction: float
    dup_ratio: float
    problems: list[str] = field(default_factory=list)
    #: Wall seconds per pipeline phase (summed over executed jobs).
    phase_wall: dict[str, float] = field(default_factory=dict)
    #: ``JobOutcome.wall_seconds`` of the executed jobs, and how many jobs
    #: ended ``done`` (serve workloads only).
    job_walls: list[float] = field(default_factory=list)
    n_done: int = 0
    #: Result objects of the pipelines that actually executed, and the
    #: service's own report (serve workloads only). The benchmark keeps
    #: these for the traced repetition alone.
    results: list = field(default_factory=list)
    report: object = None


def contig_digest(contigs) -> str:
    """Content hash of a :class:`~repro.graph.contigs.ContigSet`."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(contigs.flat_codes).tobytes())
    h.update(np.ascontiguousarray(contigs.offsets).tobytes())
    return h.hexdigest()


def assembly_quality(contigs, genome: np.ndarray) -> tuple[int, float, float]:
    """``(misassembled contigs, genome_fraction, dup_ratio)`` against ``genome``.

    A contig counts only if it is an exact substring of the genome or of
    its reverse complement; ``genome_fraction`` is the share of reference
    bases such contigs cover and ``dup_ratio`` the contig bases spent per
    covered base.
    """
    forward = genome.tobytes()
    reverse = reverse_complement(genome).tobytes()
    size = genome.shape[0]
    edges = np.zeros(size + 1, dtype=np.int64)
    misassembled = total = 0
    for codes in contigs:
        text = codes.tobytes()
        total += len(text)
        at = forward.find(text)
        if at < 0:
            at = reverse.find(text)
            if at < 0:
                misassembled += 1
                continue
            at = size - at - len(text)
        edges[at] += 1
        edges[at + len(text)] -= 1
    covered = int(np.count_nonzero(np.cumsum(edges[:-1]) > 0))
    return (misassembled, covered / size,
            total / covered if covered else float("inf"))


def _check_quality(contigs, genome, label: str) -> tuple[float, float, list[str]]:
    bad, fraction, dup = assembly_quality(contigs, genome)
    problems = []
    if bad:
        problems.append(f"{label}: {bad} contigs match neither strand of the genome")
    if fraction < MIN_GENOME_FRACTION:
        problems.append(f"{label}: genome_fraction {fraction:.4f} < "
                        f"{MIN_GENOME_FRACTION}")
    return fraction, dup, problems


def _read_config(memory: MemoryConfig) -> AssemblyConfig:
    return AssemblyConfig(min_overlap=MIN_OVERLAP, fingerprint_lanes=2,
                          memory=memory)


INCORE_MEMORY = MemoryConfig(256 << 20, 16 << 20, name="incore")


class AssembleWorkload:
    """``Assembler.assemble`` of the read set ``R`` as FASTQ."""

    #: Whether ``run`` takes ``trace_dir`` (the program's own tracer).
    program_tracer = True

    def __init__(self, name: str, memory: MemoryConfig, sizes: Sizes):
        self.name = name
        self.config = _read_config(memory)
        self.sizes = sizes
        self._quality: dict[str, tuple[float, float, list[str]]] = {}

    def prepare(self, seed: int, directory: Path) -> None:
        self.genome = simulate_genome(self.sizes.genome, seed=seed)
        self.source = directory / "reads.fastq"
        ReadSimulator(self.genome, READ_LENGTH, COVERAGE,
                      seed=seed + 1).to_fastq(self.source)

    def warm_up(self, workdir: Path) -> None:
        self.run(workdir)

    def run(self, workdir: Path, trace_dir: str = ""):
        """One run; ``trace_dir`` switches the program's own tracer on."""
        config = replace(self.config, trace=trace_dir)
        return Assembler(config).assemble(self.source, workdir=workdir)

    def observe(self, result) -> Observation:
        digest = contig_digest(result.contigs)
        if digest not in self._quality:
            self._quality[digest] = _check_quality(result.contigs, self.genome,
                                                   self.name)
        fraction, dup, problems = self._quality[digest]
        problems = problems + self._own_problems(result, digest)
        return Observation(
            sim_s=self._sim_s(result), digest=digest,
            attempted=1, failed=1 if problems else 0,
            genome_fraction=fraction, dup_ratio=dup, problems=problems,
            phase_wall=self._phase_wall(result), results=[result])

    def _sim_s(self, result) -> float:
        return result.telemetry.total_sim_seconds()

    def _phase_wall(self, result) -> dict[str, float]:
        return result.phase_seconds()

    def _own_problems(self, result, digest: str) -> list[str]:
        return []

    def layer_extras(self, traced_result, scratch: Path) -> dict:
        """Workload-specific inputs of the per-layer derivations."""
        return {}


class DistributedWorkload(AssembleWorkload):
    """``DistributedAssembler.assemble`` of ``R`` as a packed store, 4 nodes."""

    program_tracer = False

    def __init__(self, sizes: Sizes):
        super().__init__("distributed4", INCORE_MEMORY, sizes)
        self._reference: tuple[str, float] | None = None

    def prepare(self, seed: int, directory: Path) -> None:
        self.genome = simulate_genome(self.sizes.genome, seed=seed)
        self.source = directory / "reads.lsgr"
        simulator = ReadSimulator(self.genome, READ_LENGTH, COVERAGE, seed=seed + 1)
        with PackedReadStore.create(self.source, READ_LENGTH) as store:
            for batch in simulator.batches():
                store.append_batch(batch)
        self._scratch = directory / "reference"
        self._reference = None

    def run(self, workdir: Path):
        return DistributedAssembler(self.config, N_NODES).assemble(
            self.source, workdir=workdir)

    def reference(self) -> tuple[str, float]:
        """``(contig digest, wall seconds)`` of the in-core run of the same reads."""
        if self._reference is None:
            start = time.perf_counter()
            result = Assembler(self.config).assemble(self.source,
                                                     workdir=self._scratch)
            wall = time.perf_counter() - start
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._reference = (contig_digest(result.contigs), wall)
        return self._reference

    def _sim_s(self, result) -> float:
        return result.total_seconds

    def _phase_wall(self, result) -> dict[str, float]:
        return {}  # DistributedResult carries modeled phase times only

    def _own_problems(self, result, digest: str) -> list[str]:
        problems = []
        if digest != self.reference()[0]:
            problems.append("distributed4: contigs differ from the in-core run")
        if result.degraded is not None:
            problems.append("distributed4: run completed in degraded mode")
        return problems

    def layer_extras(self, traced_result, scratch: Path) -> dict:
        return {"distributed": traced_result, "incore_wall": self.reference()[1]}


class ServeWorkload:
    """``AssemblyService.run_jobs`` on 24 jobs over 6 seeded sources.

    ``serve_cold`` starts every run from an empty cache directory;
    ``serve_warm`` fills one cache during set-up and then runs a new
    service, with a new working directory, against it each time.
    """

    program_tracer = False

    def __init__(self, name: str, sizes: Sizes, *, warm: bool):
        self.name = name
        self.sizes = sizes
        self.warm = warm
        self._references: dict[Path, str] | None = None
        self._quality: dict[Path, tuple[float, float, list[str]]] = {}

    def prepare(self, seed: int, directory: Path) -> None:
        sizes = self.sizes
        self.mix = TrafficMix(n_jobs=sizes.n_jobs, n_sources=sizes.n_sources,
                              genome_length=sizes.source_genome, coverage=20.0,
                              seed=seed)
        mix = self.mix
        self.genomes: dict[Path, np.ndarray] = {}
        data = directory / "data"
        data.mkdir(parents=True)
        for index in range(mix.n_sources):
            path = data / f"source_{index:02d}.fastq"
            genome = simulate_genome(mix.genome_length, seed=seed * 1000 + index)
            ReadSimulator(genome, mix.read_length, mix.coverage,
                          seed=seed * 1000 + index).to_fastq(path)
            self.genomes[path] = genome
        self.config = default_job_config(mix)
        # One shape for every seed: job i reads source i mod n_sources for
        # tenant i mod 2. A drawn mix (generate_jobs) moves the leaders
        # between tenants, and with them the coalesced batches and the two
        # threads' makespan: 3 to 4 pipeline runs deep depending on the seed.
        sources = list(self.genomes)
        self.jobs = [JobSpec(f"job{index:03d}", mix.tenants[index % len(mix.tenants)],
                             sources[index % mix.n_sources], self.config)
                     for index in range(mix.n_jobs)]
        self.cache = directory / "cache"
        self._scratch = directory / "reference"
        self._references = None
        self._quality = {}

    def _service(self, workdir: Path, cache: Path | None) -> AssemblyService:
        return AssemblyService(ServiceConfig(
            workdir=str(workdir), cache_dir=str(cache) if cache else "",
            cache_bytes=256 << 20, host_budget_bytes=512 << 20,
            device_budget_bytes=64 << 20, max_parallel=2,
            tenant_weights={"alice": 2.0}))

    def warm_up(self, workdir: Path) -> None:
        if self.warm:
            self._service(workdir / "fill", self.cache).run_jobs(self.jobs)
        self.run(workdir / "run")

    def run(self, workdir: Path):
        cache = self.cache if self.warm else workdir / "cache"
        return self._service(workdir / "jobs", cache).run_jobs(self.jobs)

    def layer_extras(self, traced_result, scratch: Path) -> dict:
        """``serve_cold``: wall of the same jobs with caching off."""
        if self.warm:
            return {}
        start = time.perf_counter()
        self._service(scratch / "jobs", None).run_jobs(self.jobs)
        return {"uncached_wall": time.perf_counter() - start}

    def references(self) -> dict[Path, str]:
        """Contig digest of a direct ``Assembler.assemble`` of each source."""
        if self._references is None:
            self._references = {}
            for source in self.genomes:
                result = Assembler(self.config).assemble(source, workdir=self._scratch)
                shutil.rmtree(self._scratch, ignore_errors=True)
                self._references[source] = contig_digest(result.contigs)
        return self._references

    def observe(self, report) -> Observation:
        references = self.references()
        problems: list[str] = []
        failed = 0
        digests = []
        per_source: dict[Path, tuple[float, float]] = {}
        for outcome in report.outcomes:
            source = Path(outcome.spec.source)
            bad = []
            if not outcome.ok:
                bad.append(f"{outcome.spec.job_id}: status {outcome.status} "
                           f"({outcome.error})")
                digests.append("")
            else:
                digest = contig_digest(outcome.result.contigs)
                digests.append(digest)
                if digest != references[source]:
                    bad.append(f"{outcome.spec.job_id}: contigs differ from a "
                               "direct assembly of its source")
                if source not in self._quality:
                    self._quality[source] = _check_quality(
                        outcome.result.contigs, self.genomes[source], source.name)
                fraction, dup, quality_problems = self._quality[source]
                per_source[source] = (fraction, dup)
                bad.extend(quality_problems)
            if bad:
                failed += 1
                problems.extend(bad)
        if self.warm and report.hit_rate != 1.0:
            problems.append(f"serve_warm: cache hit_frac {report.hit_rate} != 1.0")
        executed = [o for o in report.outcomes if o.executed and o.ok]
        phase_wall: dict[str, float] = {}
        for outcome in executed:
            for phase, seconds in outcome.result.phase_seconds().items():
                phase_wall[phase] = phase_wall.get(phase, 0.0) + seconds
        fractions = [fraction for fraction, _ in per_source.values()]
        dups = [dup for _, dup in per_source.values()]
        return Observation(
            sim_s=sum(o.sim_seconds for o in report.outcomes),
            digest=hashlib.sha256("|".join(digests).encode()).hexdigest(),
            attempted=len(report.outcomes), failed=failed,
            genome_fraction=float(np.mean(fractions)) if fractions else 0.0,
            dup_ratio=float(np.mean(dups)) if dups else 0.0,
            problems=problems, phase_wall=phase_wall,
            job_walls=[o.wall_seconds for o in report.outcomes if o.executed],
            n_done=report.n_done,
            results=[o.result for o in executed], report=report)


def build(sizes: Sizes) -> dict[str, object]:
    """The workloads by name, in the benchmark's fixed order."""
    outofcore = MemoryConfig(sizes.outofcore_host, sizes.outofcore_device,
                             name="outofcore")
    return {
        "incore": AssembleWorkload("incore", INCORE_MEMORY, sizes),
        "outofcore": AssembleWorkload("outofcore", outofcore, sizes),
        "distributed4": DistributedWorkload(sizes),
        "serve_cold": ServeWorkload("serve_cold", sizes, warm=False),
        "serve_warm": ServeWorkload("serve_warm", sizes, warm=True),
    }
