"""Exception hierarchy for the LaSAGNA reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subsystems raise the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class DeviceError(ReproError):
    """The virtual GPU's transfer contract was violated.

    Raised when ``to_host(out=)`` is handed a read-only destination; also
    the base class of :class:`DeviceMemoryError`.
    """


class DeviceMemoryError(DeviceError, MemoryError):
    """A device-memory allocation exceeded the virtual GPU's capacity.

    Mirrors a CUDA out-of-memory failure: the virtual device enforces its
    configured capacity exactly, so pipeline code must chunk its working set
    the same way the paper's CUDA implementation does.
    """


class HostMemoryError(ReproError, MemoryError):
    """A host-memory allocation exceeded the configured host budget."""


class StreamProtocolError(ReproError):
    """A read-only/write-only stream was used against its access contract.

    The semi-streaming model (paper Fig. 3) requires that run files are read
    and written strictly sequentially and never both at once; violations are
    programming errors and surface as this exception.
    """


class SortContractError(ReproError):
    """Input to a merge/reduce stage violated its sortedness precondition."""


class GraphInvariantError(ReproError):
    """A string-graph invariant (degree bounds, complement symmetry) broke."""


class DatasetError(ReproError):
    """A dataset descriptor or on-disk dataset artefact is invalid."""


class DistributedProtocolError(ReproError):
    """A node violated the distributed pipeline's message protocol."""


class MessageDropped(DistributedProtocolError):
    """An active message was lost in flight (injected ``msg-drop``).

    The requester's handler never ran; the sender may retry — the supervisor
    treats this as a transient failure, unlike handler-side protocol errors.
    ``destination`` names the node scope the message was for.
    """

    def __init__(self, message: str, destination: str | None = None):
        super().__init__(message)
        self.destination = destination


class ServiceError(ReproError):
    """Base class for assembly-service (``repro.service``) failures.

    Distinguishes service-layer conditions — admission decisions, job
    lifecycle control — from pipeline errors: a caller of
    :meth:`~repro.service.AssemblyService.run_jobs` can treat a
    :class:`ServiceError` as "the service refused or interrupted the job"
    rather than "the assembly itself broke".
    """


class AdmissionError(ServiceError):
    """A job submission was invalid (e.g. duplicate job ids in one batch).

    Raised before any job executes; the submitter fixes the batch and
    retries. Distinct from per-job ``admission_rejected``/``admission_shed``
    outcomes, which fail individual jobs without aborting the batch.
    """


class JobCancelled(ServiceError):
    """A job observed its cancellation request at a phase boundary.

    Cooperative: :meth:`~repro.service.AssemblyService.cancel` only sets a
    flag, and the job's pipeline raises this at its next phase boundary.
    Maps to the ``"cancelled"`` job outcome — never to ``"failed"``.
    """


class JobDeadlineExceeded(ServiceError):
    """A job's simulated-clock budget (``JobSpec.deadline_s``) ran out.

    Checked at phase boundaries against the job's own modeled seconds, so
    the same seed and config time out at exactly the same boundary. Maps
    to the ``"timed_out"`` job outcome — never to ``"failed"``.
    """


class TraceError(ReproError):
    """A span trace is malformed (unbalanced events, bad Perfetto JSON)."""


class FaultInjected(ReproError):
    """A scheduled chaos fault fired (simulated crash, torn write, …).

    Raised only while a :class:`repro.faults.FaultPlan` is active; it models
    the process dying at an exact byte boundary, so production code must
    never catch it except where a real deployment would survive the
    corresponding failure (e.g. the distributed reduce retrying a dead
    node's partition). ``kind`` is the fault kind that fired and ``scope``
    the node scope that died (``None`` outside any node).
    """

    def __init__(self, message: str, kind: str | None = None,
                 scope: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.scope = scope

