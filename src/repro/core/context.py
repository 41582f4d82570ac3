"""Shared per-run state: budgets, meters, the virtual device, the clock."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

from ..config import AssemblyConfig
from ..device import SimClock, VirtualGPU
from ..device.memory import MemoryPool
from ..device.specs import DiskSpec, HostSpec
from ..errors import HostMemoryError
from ..extmem import IOAccountant
from ..faults import plan as faults
from ..fingerprint import FingerprintScheme
from ..telemetry import EventMeter, Telemetry
from ..trace.tracer import NULL_TRACER


class RunContext:
    """Everything one pipeline run shares across phases.

    Owns the working directory (a temp dir unless supplied), the simulated
    clock, the virtual GPU (capacity = the configured device budget), the
    host memory pool, the disk accountant, and the telemetry registry.
    """

    def __init__(self, config: AssemblyConfig, *, workdir: str | Path | None = None,
                 disk: DiskSpec | None = None, host: HostSpec | None = None,
                 tracer=None):
        self.config = config
        self._owns_workdir = workdir is None
        self.workdir = Path(tempfile.mkdtemp(prefix="lasagna-")) if workdir is None \
            else Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.disk = disk if disk is not None else DiskSpec()
        self.host_spec = host if host is not None else HostSpec()
        self.clock = SimClock()
        self.accountant = IOAccountant(self.disk, self.clock)
        self.gpu = VirtualGPU(config.device_name,
                              capacity_bytes=config.memory.device_bytes,
                              clock=self.clock)
        self.host_pool = MemoryPool("host", config.memory.host_bytes, HostMemoryError)
        self.scheme = FingerprintScheme(lanes=config.fingerprint_lanes,
                                        seed=config.seed & 0xFFFF)
        # The run's tracer view: the caller's tracer (a SpanTracer for a
        # traced single run, a node-prefixed one in a distributed cluster)
        # bound to this context's simulated clock, so every span
        # recorded below carries correct modeled timestamps.
        self.tracer = (tracer if tracer is not None else NULL_TRACER).bind(
            lambda: self.clock.total_seconds)
        # Read by benchmarks/perf/perf_metrics.py (``.meter.counters()``).
        self.executor = SimpleNamespace(meter=EventMeter())
        self.gpu.buffers = self.executor.meter
        self.telemetry = Telemetry(tracer=self.tracer)
        self.telemetry.register(self.clock)
        self.telemetry.register(self.accountant)
        self.telemetry.register(self.gpu.pool)
        self.telemetry.register(self.host_pool)
        #: Event counts per phase row (how many sorted runs reduce took
        #: from host memory and how many off the disk).
        self.events = EventMeter()
        self.telemetry.register(self.events)
        # Under fault injection, the operations each phase visited show up
        # as a per-phase counter (fault_ops).
        fault_plan = faults.active_plan()
        if fault_plan is not None:
            self.telemetry.register(fault_plan.meter)

    def charge_host(self, nbytes_touched: int) -> None:
        """Charge modeled host-side streaming work to the clock."""
        from ..device import costs

        self.clock.charge("host", costs.host_work_seconds(self.host_spec, nbytes_touched))

    def cleanup(self) -> None:
        """Remove an owned working directory."""
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
