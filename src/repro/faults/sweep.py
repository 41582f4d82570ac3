"""The fault sweep: one fault at each cell of a clean run, one outcome rule.

A 16-hour semi-streaming run that resumes *almost* correctly produces a
wrong genome, not an error, so recovery is checked at every injectable
operation. A probe (an empty :class:`~repro.faults.FaultPlan`) records a
clean run's trace; :func:`cells` turns each traced operation into one
cell per distinct behaviour of the kinds its site takes, and
:func:`run_cell` applies the rule every entry point shares (``Assembler``,
``DistributedAssembler``, ``AssemblyService``): if the fault kills the run
(:class:`~repro.errors.FaultInjected`, or the ``OSError(ENOSPC)`` of a
full disk), it is resumed once, unarmed; the cell then ends with the clean
run's result or a named :class:`~repro.errors.ReproError`, nothing else.
The sweeps pass only the first (every cell recovers) and count a named
error apart. On a single node the clean result is an equal
:func:`result_digest`, a converged ledger (:func:`ledger_converged`) and
no residue (:func:`scan_residue`). Tier-1 runs a fixed :func:`sample` of
the cells.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.checkpoint import STATE_FILE
from ..core.pipeline import PHASES
from ..core.results import AssemblyResult
from ..errors import FaultInjected, ReproError
from .plan import (CRASH, ENOSPC, FSYNC_LOSS, LEDGER, MESSAGE, MSG_DROP, NODE,
                   NODE_CRASH, PHASE, READ, RENAME, TORN, WRITE, Fault,
                   FaultPlan, TracePoint, inject)

_ONCE = (1,)
#: Operations between an ``fsync-loss`` and the death of its writer.
LOSS_DELAYS = (1, 4, 16, 64)

#: The kinds a sweep injects at each site, each at the delays that behave
#: differently: only an ``fsync-loss`` waits. At a node operation a
#: ``crash`` is retried in place and a ``node-crash`` restarts the node.
#: ``bitflip`` is silent, so it is no cell: the checks that look for it
#: answer for it (DESIGN.md §4b).
_SITE_KINDS = {
    WRITE: ((CRASH, _ONCE), (TORN, _ONCE), (ENOSPC, _ONCE),
            (FSYNC_LOSS, LOSS_DELAYS)),
    READ: ((CRASH, _ONCE),),
    LEDGER: ((CRASH, _ONCE), (TORN, _ONCE), (FSYNC_LOSS, LOSS_DELAYS)),
    RENAME: ((CRASH, _ONCE),),
    PHASE: ((CRASH, _ONCE),),
    MESSAGE: ((MSG_DROP, _ONCE), (NODE_CRASH, _ONCE)),
    NODE: ((CRASH, _ONCE), (NODE_CRASH, _ONCE)),
}
#: The first letter of a cell's test id, by site.
_SITE_TAGS = {WRITE: "w", READ: "r", LEDGER: "l", RENAME: "n", PHASE: "p",
              MESSAGE: "m", NODE: "o"}

#: Payload bytes a ``torn`` write leaves on disk (not a whole record).
TORN_OFFSET = 5
#: The seed of the tier-1 sample's hash (:func:`sample`).
_SAMPLE_SEED = 7


@dataclass(frozen=True)
class Cell:
    """One fault at one traced operation of a clean run."""

    point: TracePoint
    kind: str
    delay: int
    #: The cell's identity: site, path relative to the probe's workdir,
    #: how many earlier points of the site had that path, kind and delay.
    #: It does not move when other operations do.
    key: str
    #: Its test id: site, index among the site's points, kind and delay
    #: (``w003-torn-d1``).
    id: str

    def plan(self) -> FaultPlan:
        """A plan that injects this cell's fault."""
        return FaultPlan([Fault(self.kind, site=self.point.site,
                                at_op=self.point.op, delay=self.delay,
                                offset=TORN_OFFSET)])


def cells(trace: Iterable[TracePoint], root: str | Path,
          sites: Sequence[str] | None = None) -> list[Cell]:
    """The cells of a probe's ``trace``: each point at ``sites`` (all the
    sweep knows by default) with each kind its site takes, at each of that
    kind's delays. ``root`` is the probe's workdir: a file is named
    relative to it (its input too, outside it), so no key holds the name
    of a temporary directory and the sample is the same in every run."""
    seen: Counter = Counter()
    out = []
    for point in trace:
        if point.site not in (_SITE_KINDS if sites is None else sites):
            continue
        name = os.path.relpath(point.path, root) \
            if os.path.isabs(point.path) else point.path
        here = f"{point.site}:{name}#{seen[point.site, name]}"
        tag = f"{_SITE_TAGS[point.site]}{seen[point.site]:03d}"
        seen[point.site, name] += 1
        seen[point.site] += 1
        out.extend(Cell(point, kind, delay, f"{here}:{kind}:{delay}",
                        f"{tag}-{kind}-d{delay}")
                   for kind, delays in _SITE_KINDS[point.site]
                   for delay in delays)
    return out


def sample(all_cells: Iterable[Cell], fraction: float) -> list[Cell]:
    """The cells whose seeded hash of their :attr:`~Cell.key` falls below
    ``fraction``. Membership is each cell's own, so cells added to a
    sweep never move the earlier picks."""
    bound = fraction * 2 ** 64
    return [cell for cell in all_cells
            if int.from_bytes(hashlib.sha256(
                f"{_SAMPLE_SEED}:{cell.key}".encode()).digest()[:8],
                "big") < bound]


def run_cell(cell: Cell, run: Callable[[], object]):
    """The outcome rule for one cell: ``run()`` under its fault and, if
    the fault killed it, once more unarmed (the resume).

    Returns the plan (what fired is on its ``events``); then the result to
    compare with the clean run's and ``None``, or ``None`` and the named
    :class:`~repro.errors.ReproError` the cell ended with; then whether the
    armed run died and the cell needed the rerun. Any other exception
    fails the cell.
    """
    plan = cell.plan()
    rerun = False
    try:
        try:
            with inject(plan):
                return plan, run(), None, rerun
        except FaultInjected:
            pass
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
        rerun = True
        return plan, run(), None, rerun
    except ReproError as exc:
        return plan, None, exc, rerun


def result_digest(result: AssemblyResult) -> str:
    """Canonical digest of every deterministic field of a result.

    Two runs of the same configuration over the same input — fresh,
    resumed, or recovered from any crash point — must produce equal
    digests. Telemetry is excluded: timings are nondeterministic and a
    resumed run legitimately skips work.
    """
    h = hashlib.sha256()

    def put(tag: str, payload: bytes) -> None:
        h.update(tag.encode())
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)

    put("config", json.dumps(asdict(result.config), sort_keys=True,
                             default=str).encode())
    put("shape", f"{result.n_reads}:{result.read_length}:{result.n_paths}".encode())
    put("contig_codes", result.contigs.flat_codes.tobytes())
    put("contig_offsets", result.contigs.offsets.tobytes())
    if result.paths is not None:
        put("path_offsets", result.paths.path_offsets.tobytes())
        put("path_vertices", result.paths.vertices.tobytes())
        put("path_overhangs", result.paths.overhangs.tobytes())
    put("map", json.dumps(asdict(result.map_report), sort_keys=True).encode())
    sort_rows = sorted(
        (side, length, r.n_records, r.initial_runs, r.merge_rounds, r.fanout)
        for (side, length), r in result.sort_report.reports.items())
    put("sort", json.dumps(sort_rows).encode())
    put("reduce", json.dumps(asdict(result.reduce_report), sort_keys=True).encode())
    return h.hexdigest()


def ledger_converged(workdir: Path) -> bool:
    """Whether the ledger of ``workdir`` lists every phase it keeps (all
    but compress, which always runs) as completed."""
    try:
        state = json.loads((Path(workdir) / STATE_FILE).read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return set(state.get("completed", [])) == set(PHASES) - {"compress"}


def scan_residue(workdir: Path) -> list[str]:
    """Scratch/ledger residue a finished run must not leave behind.

    Residue is anything recovery should have consumed or torn down:
    ``*.scratch`` merge directories (and their contents) and unsorted
    partition files whose sorted counterpart exists.
    """
    workdir = Path(workdir)
    residue: list[str] = []
    for path in sorted(workdir.rglob("*.scratch")):
        residue.append(str(path.relative_to(workdir)))
    for sorted_run in sorted(workdir.rglob("*.sorted.run")):
        unsorted = sorted_run.with_name(
            sorted_run.name.replace(".sorted.run", ".run"))
        if unsorted.exists():
            residue.append(str(unsorted.relative_to(workdir)))
    return residue
