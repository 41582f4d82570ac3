"""The ``lasagna`` command-line interface.

Subcommands::

    lasagna simulate-reads  --genome-length 50000 --coverage 30 -o reads.fastq
    lasagna correct-reads reads.fastq -o corrected.fastq
    lasagna assemble reads.fastq --min-overlap 31 -o contigs.fasta
    lasagna distributed reads.fastq --nodes 4 --min-overlap 31 -o contigs.fasta
    lasagna serve --cache-dir cache --min-overlap 31 alice:reads.fastq bob:reads.fastq
    lasagna stats contigs.fasta [--reference genome.fasta]
    lasagna datasets
    lasagna model --dataset hgenome_sim --memory qb2 --device K40
    lasagna figures

``assemble`` runs the full pipeline with laptop-scale default budgets;
``distributed`` runs it on a simulated cluster and ``serve`` runs many
tenants' jobs through the service and its content cache; ``model`` prints
the analytic paper-scale phase times for a registered dataset (the Table
II/III regeneration without running anything) and ``figures`` charts them.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from . import __version__
from .config import AssemblyConfig, MemoryConfig
from .units import format_duration, format_size, parse_size


def _cmd_simulate_reads(args: argparse.Namespace) -> int:
    from .seq.simulate import ReadSimulator, simulate_genome

    genome = simulate_genome(args.genome_length, seed=args.seed,
                             repeat_fraction=args.repeat_fraction)
    simulator = ReadSimulator(genome=genome, read_length=args.read_length,
                              coverage=args.coverage, error_rate=args.error_rate,
                              seed=args.seed + 1)
    count = simulator.to_fastq(args.output)
    if args.genome_out:
        from .seq.alphabet import decode
        from .seq.fastq import write_fasta

        write_fasta(args.genome_out, [("reference", decode(genome))])
    print(f"wrote {count} reads of length {args.read_length} to {args.output}")
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    from .core import Assembler

    memory = MemoryConfig(parse_size(args.host_mem), parse_size(args.device_mem))
    config = AssemblyConfig(min_overlap=args.min_overlap, memory=memory,
                            device_name=args.device, fingerprint_lanes=args.lanes,
                            trace=args.trace)
    result = Assembler(config).assemble(args.reads, workdir=args.workdir,
                                        resume=args.resume, gfa_path=args.gfa)
    print(result.summary())
    if args.trace:
        print(f"wrote span trace to {args.trace} "
              f"(load trace.json at chrome://tracing or ui.perfetto.dev)")
    if args.output:
        written = result.write_fasta(args.output, min_length=args.min_contig)
        print(f"wrote {written} contigs to {args.output}")
    return 0


def _cmd_correct_reads(args: argparse.Namespace) -> int:
    from .errors import DatasetError
    from .seq.correction import correct_and_filter
    from .seq.fastq import fastq_read_batches, write_fastq
    from .seq.alphabet import decode
    from .seq.records import ReadBatch
    import numpy as np

    batches = list(fastq_read_batches(args.reads, batch_reads=1 << 30))
    if not batches:
        raise DatasetError(f"input contains no reads: {args.reads}")
    batch = batches[0] if len(batches) == 1 else ReadBatch(
        np.concatenate([b.codes for b in batches]))
    filtered, report, dropped = correct_and_filter(
        batch, k=args.k, solid_threshold=args.solid_threshold)
    quality = "I" * filtered.read_length

    def records():
        for index, row in enumerate(filtered.codes):
            yield f"corrected.{index}", decode(row), quality

    write_fastq(args.output, records())
    print(f"corrected {report.bases_corrected} bases in "
          f"{report.reads_changed}/{report.reads_scanned} reads "
          f"(k={report.k}, solid>={report.solid_threshold}); "
          f"dropped {dropped} uncorrectable reads")
    print(f"wrote {filtered.n_reads} reads to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .seq.fastq import read_fasta
    from .seq.stats import assembly_stats

    sequences = [seq for _, seq in read_fasta(args.fasta)]
    for key, value in assembly_stats(map(len, sequences)).items():
        print(f"{key}: {value}")
    if args.reference:
        from .analysis.metrics import assembly_quality
        from .seq.alphabet import encode

        genome = encode("".join(seq for _, seq in read_fasta(args.reference)))
        quality = assembly_quality([encode(seq) for seq in sequences], genome)
        print(f"genome_fraction: {quality['genome_fraction']:.6f}")
        print(f"dup_ratio: {quality['dup_ratio']:.6f}")
        print(f"aligned_n50: {quality['aligned_n50']}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .seq.datasets import active_scale, dataset_registry

    scale = args.scale if args.scale else active_scale()
    print(f"scale factor: {scale:g}")
    header = f"{'name':<15}{'paper':<11}{'len':>4}{'l_min':>6}{'paper reads':>15}" \
             f"{'paper size':>12}{'scaled reads':>14}"
    print(header)
    for spec in dataset_registry().values():
        print(f"{spec.name:<15}{spec.paper_name:<11}{spec.read_length:>4}"
              f"{spec.min_overlap:>6}{spec.paper.reads:>15,}"
              f"{format_size(spec.paper.size_bytes):>12}"
              f"{spec.scaled_reads(scale):>14,}")
    return 0


def _pack_fastq(source: str, config: AssemblyConfig, scratch: Path) -> Path:
    """Pack the FASTQ ``source`` into a read store in ``scratch``: the load
    phase's streaming steps, sized by ``config``'s host budget."""
    from .core.context import RunContext
    from .core.load_phase import run_load

    with run_load(RunContext(config, workdir=scratch), source) as store:
        return store.path


def _cmd_distributed(args: argparse.Namespace) -> int:
    from .distributed import DistributedAssembler

    memory = MemoryConfig(parse_size(args.host_mem), parse_size(args.device_mem))
    config = AssemblyConfig(min_overlap=args.min_overlap, memory=memory,
                            device_name=args.device, trace=args.trace,
                            heartbeat_interval=args.heartbeat_interval,
                            node_timeout=args.node_timeout,
                            node_restarts=args.node_restarts,
                            allow_degraded=not args.no_degraded)
    # The simulated cluster's shared input store is packed: a FASTQ is
    # converted into a scratch directory that lives as long as the run.
    with tempfile.TemporaryDirectory(prefix="lasagna-pack-") as scratch:
        source = args.reads
        if not str(source).endswith(".lsgr"):
            source = _pack_fastq(source, config, Path(scratch))
        result = DistributedAssembler(config, args.nodes).assemble(source)
    print(f"assembled on {args.nodes} simulated nodes: "
          f"{result.n_reads:,} reads -> {result.contigs.n_contigs} contigs "
          f"(N50 {result.stats()['n50']})")
    for phase, seconds in result.phase_seconds.items():
        print(f"  {phase:<9} {format_duration(seconds)}")
    print(f"  total     {format_duration(result.total_seconds)} (modeled)")
    notes = result.notes
    print(f"  rounds    {int(notes['rounds'])}: the whole-read length, then "
          f"{args.nodes} overlap lengths a round (one per node), longest first")
    print(f"  dropped   {result.reduce_report.reads_closed:,} duplicate reads "
          f"at the whole-read length")
    print(f"  shuffled  {int(notes['records_shuffled']):,} mapped records of "
          f"the eager map's {int(notes['records_eager']):,} "
          f"({notes['records_shuffled'] / notes['records_eager']:.1%}) were "
          f"still open when pulled; {result.shuffle_bytes:,} B over the network")
    if result.degraded is not None:
        # Degraded completion is a successful exit: the survivors finished
        # and the report says exactly what the output is missing.
        print(result.degraded.summary())
    if args.output:
        from .seq.alphabet import decode
        from .seq.fastq import write_fasta

        write_fasta(args.output,
                    ((f"contig.{i} length={len(c)}", decode(c))
                     for i, c in enumerate(result.contigs)))
        print(f"wrote contigs to {args.output}")
    if args.trace:
        print(f"wrote span trace to {args.trace}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .config import ServiceConfig
    from .service import AssemblyService, JobSpec

    weights = {}
    for item in args.weight or ():
        tenant, _, value = item.partition("=")
        try:
            weights[tenant] = float(value)
        except ValueError:
            raise SystemExit(f"bad --weight {item!r}; expected TENANT=FLOAT")
    memory = MemoryConfig(parse_size(args.host_mem), parse_size(args.device_mem))
    job_config = AssemblyConfig(min_overlap=args.min_overlap, memory=memory)
    specs = []
    for round_index in range(args.rounds):
        for index, item in enumerate(args.jobs):
            tenant, sep, path = item.partition(":")
            if not sep:
                tenant, path = "default", item
            specs.append(JobSpec(f"job{len(specs):03d}", tenant, path,
                                 job_config, deadline_s=args.deadline))
    service = AssemblyService(ServiceConfig(
        max_parallel=args.max_parallel,
        host_budget_bytes=parse_size(args.host_budget),
        device_budget_bytes=parse_size(args.device_budget),
        cache_dir=args.cache_dir,
        cache_bytes=parse_size(args.cache_bytes),
        tenant_weights=weights,
        workdir=args.workdir or "",
        job_max_attempts=args.job_max_attempts,
        max_queued=args.max_queued,
    ))
    report = service.run_jobs(specs)
    print(report.summary())
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"  {outcome.spec.job_id} ({outcome.spec.tenant}) "
                  f"{outcome.status.upper()}: {outcome.error}")
    return 1 if report.n_done < len(report.outcomes) else 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .model import model_phase_seconds
    from .model.workload import Workload
    from .seq.datasets import get_dataset

    memory = MemoryConfig.preset(args.memory)
    workload = Workload.from_spec(get_dataset(args.dataset))
    phases = model_phase_seconds(workload, memory, args.device)
    print(f"modeled paper-scale phase times: {args.dataset} on "
          f"{args.device} / {args.memory}")
    for phase in ("load", "map", "sort", "reduce", "compress", "total"):
        print(f"  {phase:<9} {format_duration(phases[phase])}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis import AsciiChart
    from .config import MemoryConfig as MC
    from .model.distributed import model_distributed_seconds
    from .model.paper_values import (FIG8_DEVICE_BLOCKS, FIG8_HOST_BLOCKS,
                                     FIG10_TOTAL_HOURS)
    from .model.sorting import model_partition_sort_seconds
    from .model.workload import Workload
    from .seq.datasets import get_dataset

    fig8 = AsciiChart("Fig. 8 (model) - partition sort seconds on K40",
                      [f"{b // 10**6}M" for b in FIG8_HOST_BLOCKS], y_log=True)
    for m_d in FIG8_DEVICE_BLOCKS:
        fig8.add_series(f"m_d={m_d // 10**6}M",
                        [model_partition_sort_seconds(b, m_d)
                         for b in FIG8_HOST_BLOCKS])
    fig9 = AsciiChart("Fig. 9 (model) - sort seconds by GPU, m_d = 20M",
                      [f"{b // 10**6}M" for b in FIG8_HOST_BLOCKS], y_log=True)
    for gpu in ("K40", "P40", "P100", "V100"):
        fig9.add_series(gpu, [model_partition_sort_seconds(b, 20_000_000, gpu)
                              for b in FIG8_HOST_BLOCKS])
    workload = Workload.from_spec(get_dataset("hgenome_sim"))
    nodes = (1, 2, 4, 8)
    fig10 = AsciiChart("Fig. 10 - H.Genome total hours vs nodes",
                       [str(n) for n in nodes])
    fig10.add_series("model", [
        model_distributed_seconds(workload, MC.preset("supermic"), "K20X",
                                  n)["total"] / 3600 for n in nodes])
    fig10.add_series("paper", [FIG10_TOTAL_HOURS[n] for n in nodes])
    for chart in (fig8, fig9, fig10):
        print(chart.render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="lasagna",
        description="LaSAGNA reproduction: semi-streaming string-graph assembly")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-reads", help="generate a synthetic dataset")
    sim.add_argument("--genome-length", type=int, default=50_000)
    sim.add_argument("--read-length", type=int, default=100)
    sim.add_argument("--coverage", type=float, default=30.0)
    sim.add_argument("--error-rate", type=float, default=0.0)
    sim.add_argument("--repeat-fraction", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--genome-out", help="also write the reference FASTA")
    sim.set_defaults(func=_cmd_simulate_reads)

    asm = sub.add_parser("assemble", help="assemble a FASTQ or packed read file")
    asm.add_argument("reads")
    asm.add_argument("--min-overlap", type=int, required=True)
    asm.add_argument("-o", "--output", help="contig FASTA path")
    asm.add_argument("--min-contig", type=int, default=0)
    asm.add_argument("--host-mem", default="1 GB")
    asm.add_argument("--device-mem", default="96 MB")
    asm.add_argument("--device", default="K40")
    asm.add_argument("--lanes", type=int, default=1, choices=(1, 2))
    asm.add_argument("--trace", metavar="PATH", default="",
                     help="dump a span trace (JSONL + Perfetto JSON) into "
                          "this directory")
    asm.add_argument("--workdir")
    asm.add_argument("--resume", action="store_true",
                     help="continue a prior interrupted run (needs --workdir)")
    asm.add_argument("--gfa", help="also export the string graph as GFA 1.0")
    asm.set_defaults(func=_cmd_assemble)

    correct = sub.add_parser("correct-reads",
                             help="k-mer-spectrum error correction + filter")
    correct.add_argument("reads")
    correct.add_argument("-o", "--output", required=True)
    correct.add_argument("--k", type=int, default=17)
    correct.add_argument("--solid-threshold", type=int, default=0)
    correct.set_defaults(func=_cmd_correct_reads)

    stats = sub.add_parser("stats", help="contig statistics of a FASTA")
    stats.add_argument("fasta")
    stats.add_argument("--reference", default="",
                       help="reference FASTA: also print genome_fraction, "
                            "dup_ratio and the reference-aligned N50")
    stats.set_defaults(func=_cmd_stats)

    datasets = sub.add_parser("datasets", help="list the Table I analog registry")
    datasets.add_argument("--scale", type=float, default=0.0)
    datasets.set_defaults(func=_cmd_datasets)

    distributed = sub.add_parser("distributed",
                                 help="assemble on a simulated multi-node cluster")
    distributed.add_argument("reads")
    distributed.add_argument("--nodes", type=int, default=4)
    distributed.add_argument("--min-overlap", type=int, required=True)
    distributed.add_argument("-o", "--output")
    distributed.add_argument("--host-mem", default="1 GB")
    distributed.add_argument("--device-mem", default="96 MB")
    distributed.add_argument("--device", default="K20X")
    distributed.add_argument("--heartbeat-interval", type=float, default=0.25,
                             metavar="S",
                             help="simulated seconds between node heartbeats")
    distributed.add_argument("--node-timeout", type=float, default=1.0,
                             metavar="S",
                             help="simulated seconds without a heartbeat "
                                  "before a node is declared dead")
    distributed.add_argument("--node-restarts", type=int, default=1,
                             metavar="N",
                             help="restarts granted per node before it is "
                                  "permanently lost")
    distributed.add_argument("--no-degraded", action="store_true",
                             help="fail the run instead of completing in "
                                  "degraded mode when partitions are lost")
    distributed.add_argument("--trace", metavar="PATH", default="",
                             help="dump a cluster-wide span trace (one track "
                                  "per node) into this directory")
    distributed.set_defaults(func=_cmd_distributed)

    serve = sub.add_parser(
        "serve", help="run a multi-tenant batch of assembly jobs")
    serve.add_argument("jobs", nargs="+", metavar="[TENANT:]READS",
                       help="one job per operand; optional tenant prefix "
                            "(default tenant: 'default')")
    serve.add_argument("--min-overlap", type=int, required=True)
    serve.add_argument("--rounds", type=int, default=1,
                       help="submit the whole job list this many times "
                            "(repeats exercise the cache)")
    serve.add_argument("--max-parallel", type=int, default=1,
                       help="jobs executing concurrently (1 = "
                            "deterministic fair order)")
    serve.add_argument("--host-mem", default="1 GB",
                       help="per-job host budget (= admission demand)")
    serve.add_argument("--device-mem", default="96 MB",
                       help="per-job device budget (= admission demand)")
    serve.add_argument("--host-budget", default="4 GB",
                       help="shared host budget admission control enforces")
    serve.add_argument("--device-budget", default="512 MB",
                       help="shared device budget admission control enforces")
    serve.add_argument("--cache-dir", default="",
                       help="content-addressed artifact cache directory "
                            "(empty = caching off)")
    serve.add_argument("--cache-bytes", default="256 MB",
                       help="cache capacity (LRU eviction past it)")
    serve.add_argument("--weight", action="append", metavar="TENANT=W",
                       help="fair-share weight for a tenant (repeatable; "
                            "default 1.0)")
    serve.add_argument("--workdir",
                       help="root for per-job workdirs (default: temp)")
    serve.add_argument("--job-max-attempts", type=int, default=1,
                       help="executions a failing job may burn before it "
                            "fails (1 = no retries)")
    serve.add_argument("--deadline", type=float, default=0.0,
                       metavar="SECONDS",
                       help="per-job simulated-clock deadline; jobs past it "
                            "time out at the next phase boundary (0 = none)")
    serve.add_argument("--max-queued", type=int, default=0,
                       help="queue-depth bound; excess jobs are shed with an "
                            "admission_shed outcome (0 = unbounded)")
    serve.set_defaults(func=_cmd_serve)

    model = sub.add_parser("model", help="analytic paper-scale phase times")
    model.add_argument("--dataset", default="hgenome_sim")
    model.add_argument("--memory", default="qb2", choices=("qb2", "supermic"))
    model.add_argument("--device", default="K40")
    model.set_defaults(func=_cmd_model)

    figures = sub.add_parser("figures",
                             help="render the paper's figures from the model")
    figures.set_defaults(func=_cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
