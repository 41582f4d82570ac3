"""Edge cases of the pipelined executor primitives."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, inject
from repro.parallel import PipelineExecutor, PrefetchingSource, WriteBehind


@pytest.fixture()
def executor():
    ex = PipelineExecutor(4)
    yield ex
    ex.shutdown()


class TestMapOrdered:
    def test_results_in_submission_order(self, executor):
        # Reverse sleep times would reorder completion; delivery must not.
        import time

        def work(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert list(executor.map_ordered(work, range(8))) == \
            [i * i for i in range(8)]

    def test_worker_exception_propagates_with_traceback(self, executor):
        def work(i):
            if i == 3:
                raise ValueError("boom at 3")
            return i

        with pytest.raises(ValueError, match="boom at 3") as excinfo:
            list(executor.map_ordered(work, range(8)))
        # The original worker frame must be present in the chained traceback.
        frames = []
        tb = excinfo.value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "work" in frames

    def test_in_flight_window_is_bounded(self, executor):
        # Items are pulled on the caller thread, so at any submission point
        # pulled <= delivered + window exactly.
        window = 3
        pulled = []
        delivered = []

        def items():
            for i in range(20):
                assert len(pulled) <= len(delivered) + window
                pulled.append(i)
                yield i

        for result in executor.map_ordered(lambda x: x, items(), window=window):
            delivered.append(result)
        assert delivered == list(range(20))

    def test_serial_mode_runs_inline(self):
        executor = PipelineExecutor(1)
        main = threading.get_ident()
        threads = set(executor.map_ordered(
            lambda _: threading.get_ident(), range(4)))
        assert threads == {main}

    def test_armed_fault_plan_forces_serial(self, executor):
        main = threading.get_ident()
        with inject(FaultPlan(seed=1)):
            assert not executor.parallel
            threads = set(executor.map_ordered(
                lambda _: threading.get_ident(), range(4)))
        assert threads == {main}
        assert executor.parallel

    def test_invalid_window(self, executor):
        with pytest.raises(ConfigError):
            list(executor.map_ordered(lambda x: x, [1], window=0))


class TestPrefetch:
    def test_empty_iterator_yields_nothing(self, executor):
        assert list(executor.prefetch(iter(()))) == []

    def test_order_preserved(self, executor):
        assert list(executor.prefetch(range(100), depth=3)) == list(range(100))

    def test_producer_exception_relayed(self, executor):
        def items():
            yield 1
            raise RuntimeError("producer died")

        stream = executor.prefetch(items())
        assert next(stream) == 1
        with pytest.raises(RuntimeError, match="producer died"):
            list(stream)


class TestPrefetchingSource:
    class ArraySource:
        def __init__(self, data):
            self.data = data
            self.dtype = data.dtype
            self.pos = 0

        def read(self, n):
            out = self.data[self.pos:self.pos + n]
            self.pos += out.shape[0]
            return out

    def test_byte_equivalent_reads(self):
        data = np.arange(1000, dtype=np.uint32)
        wrapped = PrefetchingSource(self.ArraySource(data), 64, depth=2)
        parts = []
        for size in (1, 7, 300, 5, 999):  # odd sizes straddle chunk edges
            chunk = wrapped.read(size)
            assert chunk.dtype == data.dtype
            parts.append(chunk)
            if chunk.shape[0] < size:
                break
        assert np.array_equal(np.concatenate(parts), data)
        assert wrapped.read(10).shape[0] == 0

    def test_source_error_relayed(self):
        class Broken:
            dtype = np.dtype(np.uint8)

            def read(self, n):
                raise OSError("disk gone")

        wrapped = PrefetchingSource(Broken(), 4)
        with pytest.raises(OSError, match="disk gone"):
            wrapped.read(1)


class TestWriteBehind:
    def test_close_reraises_deferred_error(self):
        def write(_):
            raise OSError("disk full")

        sink = WriteBehind(write, depth=2)
        sink.put(b"x")  # the failure happens in the background
        with pytest.raises(OSError, match="disk full"):
            sink.close()

    def test_put_never_deadlocks_after_error(self):
        def write(_):
            raise OSError("disk full")

        sink = WriteBehind(write, depth=1)
        with pytest.raises(OSError, match="disk full"):
            # Depth 1: without drain-and-discard this would block forever.
            for i in range(50):
                sink.put(i)
        try:
            sink.close()  # may re-raise for the still-queued failed writes
        except OSError:
            pass
        with pytest.raises(ConfigError):
            sink.put(0)

    def test_writes_applied_in_order(self):
        out = []
        with WriteBehind(out.append, depth=2) as sink:
            for i in range(100):
                sink.put(i)
        assert out == list(range(100))

    def test_serial_mode_writes_inline(self):
        out = []
        sink = WriteBehind(out.append, serial=True)
        sink.put(1)
        assert out == [1]  # applied before close
        sink.close()

    def test_body_exception_not_masked(self):
        def write(_):
            raise OSError("deferred")

        with pytest.raises(KeyError, match="primary"):
            with WriteBehind(write) as sink:
                sink.put(1)
                raise KeyError("primary")


class TestExecutorConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            PipelineExecutor(-2)

    def test_auto_workers(self):
        assert PipelineExecutor(0).workers >= 1

    def test_shutdown_idempotent(self, executor):
        list(executor.map_ordered(lambda x: x, range(4)))
        executor.shutdown()
        executor.shutdown()


PROBE = "repro.parallel.process_backend:_probe_task"


class TestProcessBackend:
    def test_map_tasks_runs_in_workers_in_order(self):
        import os

        ex = PipelineExecutor(2, backend="processes")
        try:
            assert ex.process_parallel
            results = list(ex.map_tasks(PROBE, ({"i": i} for i in range(8))))
        finally:
            ex.shutdown()
        assert [r["i"] for r in results] == list(range(8))
        assert all(r["pid"] != os.getpid() for r in results)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_map_tasks_inline_without_process_backend(self, backend):
        import os

        ex = PipelineExecutor(2, backend=backend)
        try:
            assert not ex.process_parallel
            results = list(ex.map_tasks(PROBE, ({"i": i} for i in range(4))))
        finally:
            ex.shutdown()
        assert [r["i"] for r in results] == list(range(4))
        assert {r["pid"] for r in results} == {os.getpid()}

    def test_worker_exception_relayed_and_pool_survives(self):
        ex = PipelineExecutor(2, backend="processes")
        try:
            with pytest.raises(Exception, match="probe failure"):
                list(ex.map_tasks(
                    "repro.parallel.process_backend:_failing_probe_task",
                    ({"i": i} for i in range(4))))
            # The pool must stay usable after relaying a task failure.
            again = list(ex.map_tasks(PROBE, ({"i": i} for i in range(3))))
            assert [r["i"] for r in again] == [0, 1, 2]
        finally:
            ex.shutdown()

    def test_invalid_window_rejected(self):
        ex = PipelineExecutor(2, backend="processes")
        try:
            with pytest.raises(ConfigError):
                list(ex.map_tasks(PROBE, iter([{}]), window=0))
        finally:
            ex.shutdown()

    def test_armed_fault_plan_disables_process_dispatch(self):
        import os

        ex = PipelineExecutor(4, backend="processes")
        try:
            with inject(FaultPlan(seed=1)):
                assert not ex.parallel
                assert not ex.process_parallel
                results = list(ex.map_tasks(PROBE, ({"i": i} for i in range(3))))
                assert {r["pid"] for r in results} == {os.getpid()}
        finally:
            ex.shutdown()


class TestCleanupOnMidMapFailure:
    """A mid-map exception must leave no helper thread or scratch state.

    Helper threads (prefetch/read-ahead/write-behind) are joined in
    ``finally`` paths, every registered run file is closed, and every
    shared-memory segment is unlinked — under both in-process and
    process backends.
    """

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_no_thread_file_or_shm_residue(self, tmp_path, backend,
                                           monkeypatch):
        import os

        from repro.config import AssemblyConfig, MemoryConfig
        from repro.core import map_phase
        from repro.core.context import RunContext
        from repro.extmem import streams
        from repro.seq.datasets import tiny_dataset
        from repro.seq.packing import PackedReadStore

        calls = []
        real = map_phase._fingerprint_block

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("mid-map failure")
            return real(*args, **kwargs)

        # Patch BEFORE the RunContext exists: the process backend forks
        # its workers at executor construction and must inherit the patch.
        monkeypatch.setattr(map_phase, "_fingerprint_block", flaky)

        # Residue is judged as a delta: other tests in the same process
        # may hold open run files or threads of their own legitimately.
        base_paths = set(streams._OPEN_PATHS)
        base_threads = {t.name for t in threading.enumerate()}
        base_shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
            else set()

        md, _ = tiny_dataset(tmp_path / "data", genome_length=2000,
                             read_length=50, coverage=20.0, min_overlap=25,
                             seed=5)
        config = AssemblyConfig(min_overlap=25, workers=2,
                                executor_backend=backend,
                                memory=MemoryConfig(64 << 20, 1 << 20),
                                map_batch_reads=16,
                                host_block_pairs=500, device_block_pairs=128)
        ctx = RunContext(config, workdir=tmp_path / "work")
        try:
            with pytest.raises(Exception, match="mid-map failure"):
                with PackedReadStore.open(md.store_path) as store:
                    from repro.core.map_phase import run_map

                    run_map(ctx, store)
        finally:
            ctx.cleanup()

        left_open = set(streams._OPEN_PATHS) - base_paths
        assert left_open == set(), f"scratch run files left open: {left_open}"
        stragglers = [t.name for t in threading.enumerate()
                      if t.name.startswith("repro-") and t.is_alive()
                      and t.name not in base_threads]
        assert stragglers == [], f"helper threads still alive: {stragglers}"
        if os.path.isdir("/dev/shm"):
            leaked = [n for n in os.listdir("/dev/shm")
                      if n.startswith("psm_") and n not in base_shm]
            assert leaked == [], f"shared memory segments leaked: {leaked}"
