"""Kernel-launch instrumentation semantics."""

import numpy as np

from repro.autograd import KernelCounter, Tensor, record_launch, ops


class TestKernelCounter:
    def test_counts_primitive_ops(self):
        x = Tensor(np.ones(4))
        with KernelCounter() as kc:
            ops.add(x, x)
            ops.mul(x, x)
            ops.mul(x, x)
        assert kc.launches["add"] == 1
        assert kc.launches["mul"] == 2
        assert kc.total_launches == 3

    def test_records_bytes(self):
        x = Tensor(np.ones(100))
        with KernelCounter() as kc:
            ops.add(x, x)
        assert kc.total_bytes == 800

    def test_nested_counters_both_record(self):
        x = Tensor(np.ones(2))
        with KernelCounter() as outer:
            ops.add(x, x)
            with KernelCounter() as inner:
                ops.add(x, x)
        assert outer.total_launches == 2
        assert inner.total_launches == 1

    def test_no_counter_is_noop(self):
        record_launch("orphan", 8)  # must not raise

    def test_reset(self):
        x = Tensor(np.ones(2))
        with KernelCounter() as kc:
            ops.add(x, x)
            kc.reset()
            ops.add(x, x)
        assert kc.total_launches == 1

    def test_breakdown_sorted(self):
        x = Tensor(np.ones(2))
        with KernelCounter() as kc:
            for _ in range(3):
                ops.mul(x, x)
            ops.add(x, x)
        top = kc.breakdown(2)
        assert top[0] == ("mul", 3)

    def test_backward_ops_counted(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        with KernelCounter() as kc:
            y.backward()
        assert kc.total_launches > 0


class TestThreadLocalSinks:
    """The launch-sink stack is per-thread (like the tracer stacks): a
    counter installed on one thread must never see another thread's ops."""

    def test_counter_blind_to_other_threads(self):
        import threading

        x = Tensor(np.ones(8))
        errors = []

        def worker():
            try:
                # no sink installed on this thread: its ops go nowhere
                ops.add(x, x)
                ops.mul(x, x)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with KernelCounter() as kc:
            ops.add(x, x)
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert not errors
        assert kc.total_launches == 1

    def test_per_thread_counters_independent(self):
        import threading

        x = Tensor(np.ones(8))
        results = {}

        def worker(name, n):
            with KernelCounter() as kc:
                for _ in range(n):
                    ops.add(x, x)
            results[name] = kc.total_launches

        threads = [
            threading.Thread(target=worker, args=(f"t{i}", i + 1))
            for i in range(3)
        ]
        with KernelCounter() as main_kc:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {"t0": 1, "t1": 2, "t2": 3}
        assert main_kc.total_launches == 0

    def test_tape_on_one_thread_is_not_an_observer_on_another(self):
        import threading

        from repro.autograd import capture
        from repro.autograd.instrument import tensors_wanted, thread_tensors_wanted

        seen = {}

        def worker():
            seen["global"] = tensors_wanted()
            seen["thread"] = thread_tensors_wanted()

        with capture("tape"):
            assert thread_tensors_wanted()
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == {"global": True, "thread": False}
        assert not thread_tensors_wanted()

    def test_counting_under_thread_executor(self, cu_model, cu_batch):
        """Regression: a main-thread KernelCounter used to crash or
        miscount when ThreadExecutor workers launched ops concurrently
        (the sink stack was shared process-wide)."""
        from repro.optim import WorkerSpec
        from repro.parallel import ThreadExecutor

        spec = WorkerSpec(model=cu_model, fused_env=True)
        with ThreadExecutor(2) as ex:
            ex.start(spec)
            ex.broadcast("set_shard", cu_batch)
            with KernelCounter() as kc:
                ops.add(Tensor(np.ones(4)), Tensor(np.ones(4)))
                results = ex.broadcast("energy_task")
        assert len(results) == 2
        # worker-thread ops never leak into the main-thread counter
        assert kc.total_launches == 1
