"""Deterministic chaos-I/O fault plans and the substrate hooks they drive.

The extmem stream/file substrate (:class:`~repro.extmem.streams.RunWriter` /
:class:`~repro.extmem.streams.RunReader`, the packed read store, the
checkpoint ledger, ``sort_file``'s atomic rename) routes every byte through
the module-level hooks below. With no plan active the hooks are
pass-throughs costing one global load; under :func:`inject` every hook
visit increments a global *operation counter* and is matched against the
plan's scheduled :class:`Fault` list, so a crash can be replayed at any
exact byte boundary of any run (arming a plan changes nothing else: no
code asks whether one is armed):

* ``crash``      — die before the operation (the write never happens),
* ``torn``       — write a prefix of the payload, then die,
* ``enospc``     — the device is full: a survivable ``OSError`` (ENOSPC),
* ``fsync-loss`` — the write is acknowledged but silently dropped (lost
  page-cache data); the process that wrote it (its scope: a cluster
  node, or ``None``) dies ``delay`` operations later, wherever the run
  is by then,
* ``bitflip``    — one payload bit is corrupted in flight; execution
  continues (silent corruption — the hardest failure to survive).

Plans are values: the same schedule reproduces the same faults at the
same operations, which is what lets a failed sweep cell from CI be
replayed locally (:mod:`repro.faults.sweep`). Every injected event is
recorded on the plan's ``events``; its :class:`~repro.telemetry.EventMeter`
counts the operations each phase visited (``fault_ops``).
"""

from __future__ import annotations

import errno
import fnmatch
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from ..errors import ConfigError, FaultInjected, MessageDropped
from ..telemetry import EventMeter

# -- fault kinds ---------------------------------------------------------------

CRASH = "crash"
TORN = "torn"
ENOSPC = "enospc"
FSYNC_LOSS = "fsync-loss"
BITFLIP = "bitflip"
NODE_CRASH = "node-crash"  #: a whole worker process dies at an op boundary
MSG_DROP = "msg-drop"      #: an active message vanishes in flight
KINDS = (CRASH, TORN, ENOSPC, FSYNC_LOSS, BITFLIP, NODE_CRASH, MSG_DROP)

# -- hook sites ---------------------------------------------------------------

WRITE = "write"      #: RunWriter.append / PackedReadStore writes
READ = "read"        #: RunReader.read / PackedReadStore reads
LEDGER = "ledger"    #: checkpoint state.json writes
RENAME = "rename"    #: sort_file's atomic publish of a finished run
PHASE = "phase"      #: pipeline phase boundaries (label = phase name)
MESSAGE = "message"  #: active-message delivery (label = "src->dst:handler")
NODE = "node"        #: distributed node-op boundaries (label = "scope:op")
SITES = (WRITE, READ, LEDGER, RENAME, PHASE, MESSAGE, NODE)

#: Sentinel: ``clear_crash()`` without a scope clears every scope (the
#: single-node chaos path, where no scopes exist). ``None`` is a real scope.
_ALL_SCOPES = object()


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``at_op`` pins the fault to the N-th hook visit of the run (the global
    operation counter), making crash-at-byte-N schedules exact and
    replayable; ``None`` fires at the first visit whose site and path name
    match. ``offset`` selects the payload byte for ``torn``/``bitflip``
    (``None`` = middle of the payload). ``once`` faults disarm after
    firing — a retry then succeeds; persistent faults model a dead node.
    """

    kind: str
    site: str = "*"
    match: str = "*"
    at_op: int | None = None
    offset: int | None = None
    delay: int = 1
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; options: {KINDS}")
        if self.site != "*" and self.site not in SITES:
            raise ConfigError(f"unknown fault site {self.site!r}; options: {SITES}")

    def triggers(self, op: int, site: str, name: str) -> bool:
        """Whether this fault fires at hook visit ``op`` of ``site``/``name``."""
        if self.site not in ("*", site):
            return False
        if self.at_op is not None and op != self.at_op:
            return False
        return fnmatch.fnmatch(name, self.match)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    op: int
    kind: str
    site: str
    path: str


@dataclass(frozen=True)
class TracePoint:
    """One instrumented operation observed by an active plan."""

    op: int
    site: str
    path: str
    phase: str | None


class FaultPlan:
    """A deterministic schedule of injectable failures.

    A plan with an empty fault list is a pure *probe*: it records the trace
    of every instrumented operation (and which pipeline phase it fell in),
    which is how the fault sweep (:func:`~repro.faults.sweep.cells`)
    enumerates the cells of a workload before injecting each one.
    """

    def __init__(self, faults: Sequence[Fault] = ()):
        self._pending = list(faults)
        self.events: list[FaultEvent] = []
        self.trace: list[TracePoint] = []
        #: Scopes (node labels; ``None`` = unscoped) with an unacknowledged
        #: simulated crash. One node's recovery clears only its own scope.
        self._crashed_scopes: set[str | None] = set()
        self.meter = EventMeter()
        self._op = 0
        self._scope: str | None = None
        self._phase: str | None = None
        self._armed_crash_op: int | None = None
        #: Acknowledged-but-unsynced writes: (path, offset, original,
        #: scope); ``original=None`` means the file did not exist before.
        #: Reverted when the crash fires, which kills the scope that wrote
        #: (``None``: unscoped).
        self._lost_writes: list[tuple[Path, int, bytes | None,
                                      str | None]] = []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def crash_at(cls, op: int, *, site: str = "*", match: str = "*") -> "FaultPlan":
        """A plan that dies at exactly the ``op``-th instrumented operation."""
        return cls([Fault(CRASH, site=site, match=match, at_op=op)])

    # -- state ----------------------------------------------------------------

    @property
    def ops_seen(self) -> int:
        """Instrumented operations visited so far."""
        return self._op

    @property
    def crashed_scopes(self) -> tuple[str | None, ...]:
        """Scopes with an unacknowledged crash (sorted, ``None`` first)."""
        return tuple(sorted(self._crashed_scopes,
                            key=lambda s: (s is not None, s)))

    def clear_crash(self, scope: str | None = _ALL_SCOPES) -> None:
        """Acknowledge a simulated crash (a survivor caught the failure).

        With a ``scope``, only that node's pending crash is acknowledged —
        one node's recovery cannot swallow another node's injected fault.
        Without one (the single-node chaos path), every scope is cleared.
        """
        if scope is _ALL_SCOPES:
            self._crashed_scopes.clear()
        else:
            self._crashed_scopes.discard(scope)

    # -- matching -------------------------------------------------------------

    def _visit(self, site: str, name: str) -> Fault | None:
        op = self._op
        self._op += 1
        self.trace.append(TracePoint(op, site, name, self._phase))
        self.meter.bump("fault_ops")
        if self._armed_crash_op is not None and op >= self._armed_crash_op:
            self._armed_crash_op = None
            # The page cache that lost the write belongs to the writer.
            writer = self._lost_writes[-1][3] if self._lost_writes \
                else self._scope
            self._die(FaultEvent(op, FSYNC_LOSS, site, name),
                      "crash after acknowledged-but-lost write", writer)
        for fault in self._pending:
            if fault.triggers(op, site, name):
                if fault.once:
                    self._pending.remove(fault)
                return fault
        return None

    def _record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def _revert_lost_writes(self) -> None:
        """Undo acknowledged-but-unsynced writes — the page cache just died."""
        for path, offset, original, _scope in self._lost_writes:
            try:
                if original is None:
                    path.unlink(missing_ok=True)
                else:
                    with open(path, "r+b") as handle:
                        handle.seek(offset)
                        handle.write(original)
                        handle.truncate(offset + len(original))
            except OSError:
                # The file moved or vanished since (e.g. an atomic rename
                # published it); the unsynced pages travelled with it.
                pass
        self._lost_writes.clear()

    def _die(self, event: FaultEvent, reason: str, scope: str | None) -> None:
        """Record ``event`` and kill ``scope`` (``None``: unscoped)."""
        self._record(event)
        self._revert_lost_writes()
        self._crashed_scopes.add(scope)
        raise FaultInjected(
            f"injected {event.kind} at op {event.op} ({event.site}: "
            f"{event.path}): {reason}", event.kind, scope)

    @staticmethod
    def _cut(payload: bytes, offset: int | None) -> int:
        if not payload:
            return 0
        cut = len(payload) // 2 if offset is None else offset
        return max(0, min(cut, len(payload) - 1))

    # -- per-site fault execution --------------------------------------------

    def deliver_write(self, path: Path, payload: bytes, handle: BinaryIO) -> None:
        """Execute one instrumented write, applying any matching fault."""
        fault = self._visit(WRITE, str(path))
        if fault is None:
            handle.write(payload)
            return
        event = FaultEvent(self._op - 1, fault.kind, WRITE, str(path))
        if fault.kind == ENOSPC:
            self._record(event)
            raise OSError(errno.ENOSPC,
                          f"injected: no space left on device writing {path}")
        if fault.kind == BITFLIP:  # corrupt one bit in flight, keep running
            self._record(event)
            handle.write(self._flip(payload, fault.offset))
            return
        if fault.kind == FSYNC_LOSS:
            # Page-cache semantics: the write is acknowledged and visible to
            # every in-process reader, but the bytes are reverted when the
            # armed crash fires ``delay`` operations later — unless an
            # atomic rename published the file first (then they survived).
            handle.flush()
            pos = handle.tell()
            original = b""
            try:
                with open(path, "rb") as snapshot:
                    snapshot.seek(pos)
                    original = snapshot.read(len(payload))
            except OSError:
                pass
            handle.write(payload)
            self._record(event)
            self._lost_writes.append((Path(path), pos, original, self._scope))
            self._armed_crash_op = self._op + fault.delay
            return
        if fault.kind == TORN:
            handle.write(payload[:self._cut(payload, fault.offset)])
            handle.flush()
        self._die(event, f"{fault.kind} at write", self._scope)

    def filter_read(self, path: Path, raw: bytes) -> bytes:
        """Pass freshly read bytes through the plan (crash or corrupt)."""
        fault = self._visit(READ, str(path))
        if fault is None:
            return raw
        event = FaultEvent(self._op - 1, fault.kind, READ, str(path))
        if fault.kind == BITFLIP:
            self._record(event)
            return self._flip(raw, fault.offset)
        self._die(event, "crash during read", self._scope)

    def ledger_write(self, path: Path, text: str) -> None:
        """Write checkpoint-ledger text, applying any matching fault: an
        ``fsync-loss`` is reverted when its crash fires, a ``torn`` write
        leaves a prefix and dies, any other kind dies before the write."""
        fault = self._visit(LEDGER, str(path))
        payload = text.encode()
        if fault is None:
            path.write_bytes(payload)
            return
        event = FaultEvent(self._op - 1, fault.kind, LEDGER, str(path))
        if fault.kind == FSYNC_LOSS:
            original = path.read_bytes() if path.exists() else None
            path.write_bytes(payload)
            self._record(event)
            self._lost_writes.append((Path(path), 0, original, self._scope))
            self._armed_crash_op = self._op + fault.delay
            return
        if fault.kind == TORN:
            path.write_bytes(payload[:self._cut(payload, fault.offset)])
        self._die(event, f"{fault.kind} at ledger write", self._scope)

    def barrier(self, site: str, label: str) -> None:
        """Visit a payload-less crash point (rename, phase): ``crash`` and
        ``node-crash`` die here (a node's sort publishes its runs through
        rename barriers inside a node operation)."""
        fault = self._visit(site, label)
        if fault is not None and fault.kind in (CRASH, NODE_CRASH):
            self._die(FaultEvent(self._op - 1, fault.kind, site, label),
                      "crash at barrier", self._scope)

    # -- node-level fault execution --------------------------------------------

    def deliver_message(self, src_scope: str, dst_scope: str,
                        handler: str) -> None:
        """Visit one active-message delivery.

        ``msg-drop`` raises :class:`~repro.errors.MessageDropped` (the
        handler never runs; the sender may retry). ``node-crash`` kills the
        *destination* node — its scope is marked crashed and
        :class:`~repro.errors.FaultInjected` unwinds to the requester, who
        observed the peer die mid-request.
        """
        label = f"{src_scope}->{dst_scope}:{handler}"
        fault = self._visit(MESSAGE, label)
        if fault is None:
            return
        event = FaultEvent(self._op - 1, fault.kind, MESSAGE, label)
        if fault.kind == MSG_DROP:
            self._record(event)
            raise MessageDropped(
                f"injected msg-drop at op {event.op}: {label} lost in flight",
                dst_scope)
        # NODE_CRASH: the destination process dies servicing the request.
        self._die(event, f"destination {dst_scope} died mid-request", dst_scope)

    def node_op(self, scope: str, op: str) -> None:
        """Visit one distributed node-operation boundary (may kill ``scope``)."""
        label = f"{scope}:{op}"
        fault = self._visit(NODE, label)
        if fault is not None and fault.kind in (NODE_CRASH, CRASH):
            self._die(FaultEvent(self._op - 1, fault.kind, NODE, label),
                      f"node {scope} crashed at {op}", scope)

    @staticmethod
    def _flip(payload: bytes, offset: int | None) -> bytes:
        if not payload:
            return payload
        index = (len(payload) // 2 if offset is None else offset) % len(payload)
        corrupted = bytearray(payload)
        corrupted[index] ^= 0x01
        return bytes(corrupted)


# -- the active plan and the substrate-facing hooks ---------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently injected plan, or ``None`` (production default)."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block (non-reentrant)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ConfigError("a fault plan is already active")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def crash_pending() -> bool:
    """Whether an injected crash is unwinding the stack right now.

    Cleanup code that a dead process could never run (scratch teardown in
    ``finally`` blocks) consults this to leave residue behind, so recovery
    is tested against realistic post-crash state.
    """
    return _ACTIVE is not None and bool(_ACTIVE._crashed_scopes)


def clear_crash(scope: str | None = _ALL_SCOPES) -> None:
    """Acknowledge a caught simulated crash (see :meth:`FaultPlan.clear_crash`).

    Pass a node scope (e.g. ``"node01"``) to acknowledge only that node's
    crash; the bare call clears everything (single-node recovery).
    """
    if _ACTIVE is not None:
        _ACTIVE.clear_crash(scope)


@contextmanager
def scoped(scope: str | None) -> Iterator[None]:
    """Attribute faults fired inside the block to ``scope`` (a node label).

    The distributed supervisor wraps each node operation so that an
    injected crash records *which node* died; ``clear_crash(scope=...)``
    then acknowledges exactly that node's failure.
    """
    if _ACTIVE is None:
        yield
        return
    previous = _ACTIVE._scope
    _ACTIVE._scope = scope
    try:
        yield
    finally:
        _ACTIVE._scope = previous


def node_op(scope: str, op: str) -> None:
    """Visit a distributed node-op boundary under the active plan."""
    if _ACTIVE is not None:
        _ACTIVE.node_op(scope, op)


def deliver_message(src_scope: str, dst_scope: str, handler: str) -> None:
    """Visit an active-message delivery under the active plan."""
    if _ACTIVE is not None:
        _ACTIVE.deliver_message(src_scope, dst_scope, handler)


def deliver_write(path: Path, payload, handle: BinaryIO) -> None:
    """Write ``payload`` to ``handle``, subject to the active plan.

    ``payload`` may be ``bytes`` or any buffer-protocol object (e.g. a
    contiguous record array). With no plan active it is handed straight to
    the OS; the bytes copy fault bookkeeping needs for slicing and flipping
    is only made when a plan is armed.
    """
    if _ACTIVE is None:
        handle.write(payload)
    else:
        if not isinstance(payload, (bytes, bytearray)):
            payload = payload.tobytes()
        _ACTIVE.deliver_write(path, payload, handle)


def filter_read(path: Path, raw):
    """Pass ``raw`` just read from ``path`` through the active plan.

    ``raw`` is ``bytes`` or a record array, and the same type comes back.
    With no plan active it is returned untouched.
    """
    if _ACTIVE is None:
        return raw
    if isinstance(raw, bytes):
        return _ACTIVE.filter_read(path, raw)
    filtered = _ACTIVE.filter_read(path, raw.tobytes())
    return np.frombuffer(filtered, dtype=raw.dtype).copy()


def ledger_write(path: Path, text: str) -> None:
    """Write checkpoint-ledger ``text`` to ``path`` under the active plan."""
    if _ACTIVE is None:
        path.write_text(text)
    else:
        _ACTIVE.ledger_write(path, text)


def barrier(site: str, label: str) -> None:
    """An injectable crash point with no payload (rename, phase end)."""
    if _ACTIVE is not None:
        _ACTIVE.barrier(site, label)


def note_phase(name: str | None) -> None:
    """Tell the active plan which pipeline phase is running (trace labels)."""
    if _ACTIVE is not None:
        _ACTIVE._phase = name
