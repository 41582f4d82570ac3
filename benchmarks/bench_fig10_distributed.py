"""Fig. 10 — distributed execution times for 1–8 nodes (H.Genome on K20s).

Measured: the simulated cluster actually runs the whole pipeline per node
count on the scaled dataset; the phase times are per-node modeled hardware
seconds with barrier semantics. Model: the paper-scale composition,
including the headline "a little over 5 hours on 8 nodes".

Reproduction targets: map/sort scale ~1/n; the all-to-all shuffle appears
only for n > 1 (n = 2 barely improving on n = 1, as the paper observes);
reduce saturates under the bit-vector token law; the assembly output is
invariant to the node count.

The cluster shuffles, sorts and reduces the whole-read length alone (its
owner drops the duplicate reads), then rounds of ``n`` overlap lengths
whose pulls are filtered by the out-degree bit-vector of the rounds before
(DESIGN.md D7 on the cluster). The second table sweeps the round size
(1, n, 2n, all lengths at once = the paper's eager schedule; the sweep
cuts every length, the whole-read one included, ``size`` a round) through
``DistributedAssembler._rounds`` and shows why ``n`` is the rule; the first
one carries a second paper-scale column, the model with the shuffle write,
network, sort and overlap-finding terms scaled by the measured share of
records the filter lets through.
"""

from dataclasses import replace

import pytest

from repro import AssemblyConfig
from repro.analysis import ComparisonTable
from repro.distributed import DistributedAssembler
from repro.model.distributed import model_distributed_seconds
from repro.model.paper_values import FIG10_TOTAL_HOURS
from repro.config import MemoryConfig
from repro.units import format_duration

from _common import dataset, emit, scale, scaled_memory, workload

NODE_COUNTS = (1, 2, 4, 8)
PHASES = ("map", "shuffle", "sort", "reduce", "compress")


class RoundsOf(DistributedAssembler):
    """The cluster with ``size`` lengths a round (0: all of them in one)."""

    def __init__(self, config, n_nodes, size):
        super().__init__(config, n_nodes)
        self.size = size

    def _rounds(self, lengths):
        ordered = sorted(lengths, reverse=True)
        size = self.size or len(ordered)
        return [ordered[i:i + size] for i in range(0, len(ordered), size)]


def _kept(result) -> float:
    """The share of the eager map's records that reach a sorted partition
    (the rounds' maps write only what each round's snapshot leaves open)."""
    return result.notes["records_shuffled"] / result.notes["records_eager"]


@pytest.mark.benchmark(group="fig10")
def test_fig10_distributed_scaling(benchmark):
    materialized = dataset("H.Genome")
    config = AssemblyConfig(min_overlap=materialized.spec.min_overlap,
                            memory=scaled_memory("supermic"),
                            device_name="K20X", fingerprint_lanes=2)

    def run_all():
        # (nodes, round size) -> result; size n is the program's own rule.
        runs = {(n, n): DistributedAssembler(config, n).assemble(
            materialized.store_path) for n in NODE_COUNTS}
        for n in NODE_COUNTS:
            for size in (1, 2 * n, 0):
                runs.setdefault((n, size), RoundsOf(config, n, size).assemble(
                    materialized.store_path))
        return runs

    sweep = benchmark.pedantic(run_all, rounds=1, iterations=1)
    results = {n: sweep[(n, n)] for n in NODE_COUNTS}

    w = workload("H.Genome")
    # The run's machine at the paper's memory budgets.
    paper = replace(config, memory=MemoryConfig.preset("supermic"))
    table = ComparisonTable(
        f"Fig. 10 - H.Genome on K20 nodes (scaled x{scale():g})",
        ["nodes"] + [f"meas {p}" for p in PHASES]
        + ["meas total", "shuffle bytes", "candidates", "kept",
           "model total (paper)", "model total (kept)", "paper total"],
    )
    for n in NODE_COUNTS:
        result = results[n]
        model = model_distributed_seconds(w, paper, n)
        filtered = model_distributed_seconds(w, paper, n,
                                             kept_fraction=_kept(result))
        table.add_row(
            n,
            *(format_duration(result.phase_seconds[p]) for p in PHASES),
            format_duration(result.total_seconds),
            f"{result.shuffle_bytes:,}",
            f"{result.reduce_report.candidates:,}",
            f"{_kept(result):.3f}",
            f"{model['total'] / 3600:.1f}h",
            f"{filtered['total'] / 3600:.1f}h",
            f"~{FIG10_TOTAL_HOURS[n]}h",
        )
    table.add_note("measured = per-node modeled hardware seconds with barriers; "
                   "the distributed work itself really executed")
    table.add_note("model total (paper) = the paper-calibrated eager schedule; "
                   "(kept) = the same model with shuffle write + network, sort "
                   "and t_o scaled by the measured kept fraction")

    rounds_table = ComparisonTable(
        "Round size (lengths per round; 0 = all in one round, the eager "
        "schedule)",
        ["nodes", "round size", "rounds", "total", "shuffle", "sort", "reduce",
         "shuffle bytes", "candidates", "kept"],
    )
    for (n, size), result in sorted(sweep.items(),
                                    key=lambda kv: (kv[0][0], kv[0][1] or 10**6)):
        rounds_table.add_row(
            n, f"{size}{' = n' if size == n else ''}",
            int(result.notes["rounds"]),
            f"{result.total_seconds:.4f}s",
            *(f"{result.phase_seconds[p]:.3f}s"
              for p in ("shuffle", "sort", "reduce")),
            f"{result.shuffle_bytes:,}",
            f"{result.reduce_report.candidates:,}",
            f"{_kept(result):.3f}",
        )

    from repro.analysis import AsciiChart
    chart = AsciiChart("Fig. 10 - total hours vs nodes (paper scale)",
                       [str(n) for n in NODE_COUNTS])
    chart.add_series("model", [
        model_distributed_seconds(w, paper, n)["total"] / 3600
        for n in NODE_COUNTS])
    chart.add_series("paper", [FIG10_TOTAL_HOURS[n] for n in NODE_COUNTS])
    emit("fig10", table, rounds_table, chart)

    # Output invariant to node count and round size.
    assert len({result.edges for result in sweep.values()}) == 1
    # One length per owner per round beats serial rounds and the eager
    # schedule alike, and the eager schedule filters nothing.
    for n in NODE_COUNTS[1:]:
        assert sweep[(n, n)].total_seconds < sweep[(n, 1)].total_seconds
        assert sweep[(n, n)].total_seconds < sweep[(n, 0)].total_seconds
        assert sweep[(n, n)].shuffle_bytes < sweep[(n, 0)].shuffle_bytes
        assert _kept(sweep[(n, 0)]) == 1.0
    # map, sort and reduce scale; shuffle exists only for n > 1.
    for phase in ("map", "sort", "reduce"):
        times = [results[n].phase_seconds[phase] for n in NODE_COUNTS]
        assert times == sorted(times, reverse=True)
    assert results[1].phase_seconds["shuffle"] == 0.0
    assert all(results[n].phase_seconds["shuffle"] > 0 for n in NODE_COUNTS[1:])
    # Total improves monotonically from 2 nodes on.
    totals = [results[n].total_seconds for n in NODE_COUNTS]
    assert totals[1] > totals[2] > totals[3]
    # Paper-scale model hits the 8-node headline within 35%.
    model8 = model_distributed_seconds(w, paper, 8)["total"] / 3600
    assert abs(model8 - FIG10_TOTAL_HOURS[8]) / FIG10_TOTAL_HOURS[8] < 0.35
