"""Deterministic fault injection: the hooks and plans
(:mod:`repro.faults.plan`, imported eagerly: production code calls the
hooks) and the fault sweep (:mod:`repro.faults.sweep`,
loaded lazily through module ``__getattr__``: it imports the pipeline,
which imports the instrumented substrate, so ``extmem → faults`` stays
free of import cycles).
"""

from __future__ import annotations

from .plan import (BITFLIP, CRASH, ENOSPC, FSYNC_LOSS, KINDS, LEDGER,
                   MESSAGE, NODE, NODE_CRASH, PHASE,
                   READ, RENAME, SITES, TORN, WRITE, Fault, FaultEvent,
                   FaultPlan, TracePoint, active_plan, barrier, clear_crash,
                   crash_pending, deliver_message, deliver_write,
                   filter_read, inject, ledger_write, node_op, note_phase,
                   scoped)

_SWEEP_NAMES = ("Cell", "cells", "ledger_converged", "result_digest",
                "run_cell", "sample", "scan_residue")

__all__ = [
    "BITFLIP", "CRASH", "ENOSPC", "FSYNC_LOSS", "KINDS",
    "LEDGER", "MESSAGE", "NODE", "NODE_CRASH",
    "PHASE", "READ", "RENAME", "SITES", "TORN", "WRITE",
    "Fault", "FaultEvent", "FaultPlan", "TracePoint",
    "active_plan", "barrier", "clear_crash", "crash_pending",
    "deliver_message", "deliver_write", "filter_read",
    "inject", "ledger_write", "node_op", "note_phase", "scoped",
    *_SWEEP_NAMES,
]


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweep
        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
