"""The virtual GPU the pipeline programs against.

:class:`VirtualGPU` binds together

* a :class:`~repro.device.specs.DeviceSpec` (which GPU is being modeled),
* a capacity-enforcing device :class:`~repro.device.memory.MemoryPool`
  (exceeding it raises :class:`~repro.errors.DeviceMemoryError`, like a CUDA
  OOM), and
* a :class:`~repro.device.clock.SimClock` charged via the shared cost model
  for every transfer and kernel launch.

Data lives in :class:`DeviceArray` handles. Transfers are explicit
(:meth:`VirtualGPU.to_device` / :meth:`VirtualGPU.to_host`) so the PCIe
traffic of the two-level streaming model is visible to the telemetry, and
kernels only accept device-resident inputs — passing a bare numpy array is
a programming error, just as dereferencing host memory in a CUDA kernel is.
The one exception is the *streamed* merge launch of Algorithm 1
(:meth:`VirtualGPU.merge_records_device_k`): host windows in, merged host
run out, with the transfers reserved and charged inside the call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import (ConfigError, DeviceError, DeviceMemoryError,
                      SortContractError)
from . import costs, kernels
from .clock import SimClock
from .kernels import KEY_FIELD
from .memory import Allocation, MemoryPool
from .specs import DeviceSpec, get_device_spec


class DeviceArray:
    """A numpy array accounted against a device pool.

    :meth:`free` releases the reservation; the handle must not be reused
    afterwards (kernel entry points enforce this).
    """

    __slots__ = ("array", "_allocation")

    def __init__(self, array: np.ndarray, allocation: Allocation):
        self.array = array
        self._allocation = allocation

    @property
    def nbytes(self) -> int:
        """Accounted size in bytes."""
        return self._allocation.nbytes

    @property
    def live(self) -> bool:
        """Whether the backing device allocation is still held."""
        return self._allocation.live

    def free(self) -> None:
        """Release device memory (idempotent). The handle must not be reused."""
        self._allocation.free()

    def __enter__(self) -> "DeviceArray":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()

    def __len__(self) -> int:
        return self.array.shape[0]


class VirtualGPU:
    """Capacity- and time-accurate stand-in for one CUDA device."""

    def __init__(self, spec: DeviceSpec | str = "K40", *,
                 capacity_bytes: int | None = None,
                 clock: SimClock | None = None):
        self.spec = get_device_spec(spec) if isinstance(spec, str) else spec
        self.clock = clock if clock is not None else SimClock()
        self.pool = MemoryPool(
            "device",
            capacity_bytes if capacity_bytes is not None else self.spec.mem_bytes,
            DeviceMemoryError,
        )

    # -- transfers ----------------------------------------------------------

    def to_device(self, array: np.ndarray, *, label: str = "h2d") -> DeviceArray:
        """Copy a host array to the device (allocates + charges PCIe time)."""
        source = np.ascontiguousarray(array)
        allocation = self.pool.alloc(source.nbytes, label=label)
        self.clock.charge("h2d", costs.transfer_seconds(self.spec, source.nbytes))
        if source is not array:
            # ascontiguousarray already copied; a second copy would be waste.
            return DeviceArray(source, allocation)
        device = np.empty(source.shape, dtype=source.dtype)
        kernels.copy_records(device, source)
        return DeviceArray(device, allocation)

    def to_host(self, darray: DeviceArray, *,
                out: np.ndarray | None = None) -> np.ndarray:
        """Copy a device array back to the host (charges PCIe time).

        ``out=`` supplies the destination buffer (shape and dtype must
        match), sparing the allocation of a fresh host array.
        """
        self._check_live(darray)
        self.clock.charge("d2h", costs.transfer_seconds(self.spec, darray.array.nbytes))
        if out is None:
            out = np.empty(darray.array.shape, dtype=darray.array.dtype)
        elif not out.flags.writeable:
            raise DeviceError("to_host(out=): destination array is read-only")
        elif out.shape != darray.array.shape or out.dtype != darray.array.dtype:
            raise ConfigError("to_host out= buffer shape/dtype mismatch")
        kernels.copy_records(out, darray.array)
        return out

    def empty(self, shape, dtype, *, label: str = "empty") -> DeviceArray:
        """Allocate an uninitialized device array (no transfer cost)."""
        array = np.empty(shape, dtype=dtype)
        return DeviceArray(array, self.pool.alloc(array.nbytes, label=label))

    def _adopt(self, array: np.ndarray, *, label: str) -> DeviceArray:
        """Wrap a kernel-produced array as device-resident (alloc only)."""
        return DeviceArray(array, self.pool.alloc(array.nbytes, label=label))

    @staticmethod
    def _check_live(*darrays: DeviceArray) -> None:
        for darray in darrays:
            if not isinstance(darray, DeviceArray):
                raise ConfigError("kernel inputs must be DeviceArrays (call to_device first)")
            if not darray.live:
                raise DeviceMemoryError("use-after-free of a device array")

    # -- kernels --------------------------------------------------------------

    def sort_pairs(self, keys: DeviceArray, *payloads: DeviceArray
                   ) -> tuple[DeviceArray, ...]:
        """Radix-sort records by key; returns new device arrays.

        Accounts ping-pong scratch equal to the input size for the duration
        of the sort, as an LSD radix sort requires.
        """
        self._check_live(keys, *payloads)
        in_bytes = keys.array.nbytes + sum(p.array.nbytes for p in payloads)
        with self.pool.alloc(in_bytes, label="sort-scratch"):
            sorted_keys, sorted_payloads = kernels.sort_records(
                keys.array, *(p.array for p in payloads))
        self.clock.charge("kernel", costs.sort_pairs_seconds(
            self.spec, len(keys), keys.array.dtype.itemsize,
            sum(p.array.dtype.itemsize for p in payloads)))
        out = [self._adopt(sorted_keys, label="sort-out")]
        out.extend(self._adopt(p, label="sort-out") for p in sorted_payloads)
        return tuple(out)

    def merge_pairs(self, keys_a: DeviceArray, payloads_a: Sequence[DeviceArray],
                    keys_b: DeviceArray, payloads_b: Sequence[DeviceArray],
                    ) -> tuple[DeviceArray, ...]:
        """Merge two sorted runs of records into one (stable, A before B)."""
        self._check_live(keys_a, keys_b, *payloads_a, *payloads_b)
        kernels.require_sorted(keys_a.array, context="merge run A")
        kernels.require_sorted(keys_b.array, context="merge run B")
        merged_keys, merged_payloads = kernels.merge_sorted_records(
            keys_a.array, tuple(p.array for p in payloads_a),
            keys_b.array, tuple(p.array for p in payloads_b))
        value_bytes = sum(p.array.dtype.itemsize for p in payloads_a)
        self.clock.charge("kernel", costs.merge_pairs_seconds(
            self.spec, len(keys_a) + len(keys_b),
            keys_a.array.dtype.itemsize, value_bytes))
        out = [self._adopt(merged_keys, label="merge-out")]
        out.extend(self._adopt(p, label="merge-out") for p in merged_payloads)
        return tuple(out)

    def bounds(self, haystack: DeviceArray, queries: DeviceArray
               ) -> tuple[DeviceArray, DeviceArray]:
        """Vectorized lower/upper bounds of each query key in the haystack."""
        self._check_live(haystack, queries)
        kernels.require_sorted(haystack.array, context="bounds haystack")
        lower, upper = kernels.vectorized_bounds(haystack.array, queries.array)
        self.clock.charge("kernel", 2.0 * costs.search_seconds(
            self.spec, len(queries), len(haystack)))
        return self._adopt(lower, label="bounds"), self._adopt(upper, label="bounds")

    def exclusive_scan(self, values: DeviceArray) -> DeviceArray:
        """Exclusive prefix sum (offset computation of the compress phase)."""
        self._check_live(values)
        result = kernels.exclusive_scan(values.array)
        width = max(2, len(values))
        self.clock.charge("kernel", costs.elementwise_seconds(
            self.spec, int(values.array.nbytes * math.ceil(math.log2(width)))))
        return self._adopt(result, label="scan")

    def gather(self, source: DeviceArray, stencil: DeviceArray) -> DeviceArray:
        """``out[i] = source[stencil[i]]``."""
        self._check_live(source, stencil)
        result = kernels.gather(source.array, stencil.array)
        self.clock.charge("kernel", costs.elementwise_seconds(
            self.spec, result.nbytes + stencil.array.nbytes))
        return self._adopt(result, label="gather")

    # -- structured-record variants (KV records of the extmem substrate) ------

    @staticmethod
    def _key_column(records: np.ndarray) -> np.ndarray:
        if KEY_FIELD not in (records.dtype.names or ()):
            raise ConfigError(f"records lack key field {KEY_FIELD!r}")
        return records[KEY_FIELD]

    def sort_records_device(self, records: DeviceArray) -> DeviceArray:
        """Radix-sort packed KV records by their key field."""
        self._check_live(records)
        keys = self._key_column(records.array)
        out = np.empty(records.array.shape, dtype=records.array.dtype)
        with self.pool.alloc(records.array.nbytes, label="sort-scratch"):
            order = np.argsort(keys, kind="stable")
            # ``order`` is a permutation, so no index can be out of range:
            # mode="clip" only spares numpy the bounds pass (and the
            # whole-output buffering) that the default mode="raise" pays.
            np.take(kernels.raw_view(records.array), order, axis=0,
                    out=kernels.raw_view(out), mode="clip")
        self.clock.charge("kernel", costs.sort_pairs_seconds(
            self.spec, len(records), keys.dtype.itemsize,
            records.array.dtype.itemsize - keys.dtype.itemsize))
        return self._adopt(out, label="sort-out")

    def merge_records_device(self, run_a: np.ndarray, run_b: np.ndarray, *,
                             out: np.ndarray | None = None) -> np.ndarray:
        """The two-way spelling of :meth:`merge_records_device_k`
        (``GPU_MERGE`` of Algorithm 1; A-records precede equal B-records).

        The sorter launches the k-ary spelling for every fanout; this name
        is a patch target of ``benchmarks/perf/perf_spans.py``.
        """
        return self._merge_launch([run_a, run_b], out)

    def merge_records_device_k(self, parts: Sequence[np.ndarray], *,
                               out: np.ndarray | None = None) -> np.ndarray:
        """One streamed launch: ``k`` sorted host windows in, merged run out.

        The whole device round trip of one merge window — upload every
        part, gathered k-way merge, download — as a single call, so a
        window costs the bytes it moves rather than the calls it makes.
        The merged run lands in ``out`` when given (shape and dtype must
        match), in a fresh host array otherwise. Run order breaks ties.

        The model sees what the unfused sequence showed it: per part a
        reservation and an ``h2d`` charge; one kernel charge of
        ``⌈log₂ k⌉`` pairwise-merge levels (the gathered formulation still
        performs ``log k`` comparisons per record); the output reservation
        while the parts are still resident; the parts freed, the ``d2h``
        charge, the output freed. A launch that fails — over capacity,
        unsorted input — leaves nothing reserved.
        """
        parts = list(parts)
        if not parts:
            raise ConfigError("k-way merge needs at least one run")
        return self._merge_launch(parts, out)

    def _merge_launch(self, parts: list[np.ndarray],
                      out: np.ndarray | None) -> np.ndarray:
        record_dtype = parts[0].dtype
        total = sum(part.shape[0] for part in parts)
        if out is not None and (out.shape != (total,)
                                or out.dtype != record_dtype):
            raise ConfigError("merge out= buffer shape/dtype mismatch")
        reserved: list[Allocation] = []
        try:
            for part in parts:
                reserved.append(self.pool.alloc(part.nbytes, label="merge-way"))
                self.clock.charge(
                    "h2d", costs.transfer_seconds(self.spec, part.nbytes))
            key_columns = [self._key_column(part) for part in parts]
            for index, keys in enumerate(key_columns):
                kernels.require_sorted(keys, context=f"merge run {index}")
            if any(part.dtype != record_dtype for part in parts[1:]):
                raise SortContractError(
                    "cannot merge runs with different record dtypes")
            if out is None:
                out = np.empty(total, dtype=record_dtype)
            # Stable sort of the concatenated key columns: equal keys keep
            # run order, then position — the tie order of a pairwise fold.
            order = np.argsort(np.concatenate(key_columns), kind="stable")
            out_raw = kernels.raw_view(out)
            gathered = np.concatenate(
                [kernels.raw_view(part) for part in parts])
            # A permutation again: mode="clip" is safe (see the sort kernel).
            np.take(gathered, order, out=out_raw, mode="clip")
            key_nbytes = key_columns[0].dtype.itemsize
            # A lone part needs no comparison: depth 0, a free copy.
            depth = math.ceil(math.log2(len(parts)))
            self.clock.charge("kernel", depth * costs.merge_pairs_seconds(
                self.spec, total, key_nbytes,
                record_dtype.itemsize - key_nbytes))
            reserved.append(self.pool.alloc(out.nbytes, label="merge-out"))
            for allocation in reserved[:-1]:
                allocation.free()
            self.clock.charge(
                "d2h", costs.transfer_seconds(self.spec, out.nbytes))
            return out
        finally:
            for allocation in reserved:
                allocation.free()

    def bounds_records(self, haystack: DeviceArray, queries: DeviceArray
                       ) -> tuple[DeviceArray, DeviceArray]:
        """Vectorized bounds of query record keys within haystack record keys."""
        self._check_live(haystack, queries)
        hay_keys = self._key_column(haystack.array)
        query_keys = self._key_column(queries.array)
        kernels.require_sorted(hay_keys, context="bounds haystack")
        lower, upper = kernels.vectorized_bounds(hay_keys, query_keys)
        self.clock.charge("kernel", 2.0 * costs.search_seconds(
            self.spec, len(queries), len(haystack)))
        return self._adopt(lower, label="bounds"), self._adopt(upper, label="bounds")

    # -- escape hatches for composite kernels --------------------------------

    def charge_kernels(self, seconds: Sequence[float]) -> None:
        """Account a composite kernel's launches, one charge each, in order.

        The clock gains the values one by one (never pre-summed), so the
        float is the one ``len(seconds)`` separate charges would leave.
        """
        self.clock.charge_many("kernel", seconds)

    def charge_elementwise(self, nbytes_touched: int) -> None:
        """Account a custom streaming kernel over ``nbytes_touched``."""
        self.clock.charge("kernel", costs.elementwise_seconds(self.spec, nbytes_touched))

    def scratch(self, nbytes: int, *, label: str = "scratch") -> Allocation:
        """Reserve transient device memory for a composite kernel."""
        return self.pool.alloc(nbytes, label=label)
