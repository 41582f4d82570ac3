"""Deterministic chaos-I/O fault injection for the extmem substrate.

``repro.faults`` has two halves:

* :mod:`repro.faults.plan` — the :class:`FaultPlan` value type and the
  module-level hooks (:func:`deliver_write`, :func:`filter_read`,
  :func:`ledger_write`, :func:`barrier`) the stream/ledger substrate routes
  every byte through. Importing this package pulls the hooks in eagerly —
  they must be cheap and always available to production code.
* :mod:`repro.faults.crashloop` — the :class:`CrashLoop` driver that kills
  ``Assembler.assemble(resume=True)`` at every injected point and checks
  recovery against a golden run. It imports the full pipeline, which in
  turn imports the (instrumented) substrate — so it is loaded lazily via
  module ``__getattr__`` to keep ``extmem → faults`` import-cycle free.
"""

from __future__ import annotations

from .plan import (BITFLIP, CRASH, ENOSPC, FSYNC_LOSS, KINDS, LEDGER,
                   MESSAGE, MSG_DELAY, MSG_DROP, NODE, NODE_CRASH, PHASE,
                   READ, RENAME, SITES, TORN, WRITE, Fault, FaultEvent,
                   FaultPlan, TracePoint, active, active_plan, barrier,
                   clear_crash, crash_pending, crashed_scopes,
                   deliver_message, deliver_write, filter_read, inject,
                   ledger_write, node_op, note_phase, scoped)
from .retry import RetryPolicy

__all__ = [
    "BITFLIP", "CRASH", "ENOSPC", "FSYNC_LOSS", "KINDS",
    "LEDGER", "MESSAGE", "MSG_DELAY", "MSG_DROP", "NODE", "NODE_CRASH",
    "PHASE", "READ", "RENAME", "SITES", "TORN", "WRITE",
    "Fault", "FaultEvent", "FaultPlan", "RetryPolicy", "TracePoint",
    "active", "active_plan", "barrier", "clear_crash", "crash_pending",
    "crashed_scopes", "deliver_message", "deliver_write", "filter_read",
    "inject", "ledger_write", "node_op", "note_phase", "scoped",
    "CrashLoop", "CrashLoopReport", "CrashOutcome",
    "result_digest", "scan_residue",
]

_CRASHLOOP_NAMES = frozenset({
    "CrashLoop", "CrashLoopReport", "CrashOutcome",
    "result_digest", "scan_residue",
})


def __getattr__(name: str):
    if name in _CRASHLOOP_NAMES:
        from . import crashloop
        return getattr(crashloop, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
