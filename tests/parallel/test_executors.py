"""Executor backends: bitwise determinism, crash robustness, telemetry
merge, and the optim/parallel layering contract."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro.parallel as parallel_pkg
from repro.model import DeePMD, make_batch
from repro.optim import FaultInjector, KalmanConfig, WorkerSpec
from repro.parallel import (
    EXECUTOR_NAMES,
    DistributedFEKF,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerCrash,
    make_executor,
)
from repro.telemetry import Tracer
from repro.telemetry import metrics as _metrics


def _kcfg():
    return KalmanConfig(blocksize=1024, fused_update=True)


def _counter(name, **labels):
    return _metrics.REGISTRY.counter(name, **labels).value


def _train(cu_dataset, small_cfg, executor, world=2, steps=2, fault=None,
           fault_rank=1):
    """Run a short training and return (weights, checksum trace, abe trace)."""
    model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
    dist = DistributedFEKF(
        model, world_size=world, kalman_cfg=_kcfg(), seed=7, executor=executor
    )
    if fault is not None:
        dist.executor.inject_fault(fault_rank, fault)
    batch = make_batch(cu_dataset, np.arange(4), small_cfg)
    checksums, abes = [], []
    for _ in range(steps):
        stats = dist.step_batch(batch)
        checksums.append(dist.kalman.checksum())
        abes.append(stats["force_abe"])
    weights = model.params.flatten()
    dist.close()
    return weights, checksums, abes


class TestDeterminism:
    """Property: per-rank compute is a pure function of (weights, shard)
    and results reduce in rank order, so every backend is bit-identical."""

    @pytest.mark.parametrize("kind", ["thread", "process"])
    @pytest.mark.parametrize("world", [2, 3])
    def test_training_bitwise_matches_serial(self, cu_dataset, small_cfg, kind, world):
        w_ref, cks_ref, abe_ref = _train(cu_dataset, small_cfg, "serial", world)
        w, cks, abe = _train(cu_dataset, small_cfg, kind, world)
        assert np.array_equal(w_ref, w)  # bitwise, not allclose
        assert cks == cks_ref  # full KalmanState.checksum() trace
        assert abe == abe_ref  # reduced ABEs identical

    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    def test_shard_results_bitwise_identical(self, cu_dataset, small_cfg, kind):
        """The raw per-rank reduced gradients/ABEs coming back from an
        executor round are bit-identical to in-process evaluation."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        spec = WorkerSpec(model=model, fused_env=True)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        shards = [batch.frame_slice(0, 2), batch.frame_slice(2, 4)]
        ref = [spec.build(rank=r) for r in range(2)]
        expected = []
        for r, shard in enumerate(shards):
            ref[r].set_shard(shard)
            expected.append(ref[r].energy_task())
        with make_executor(kind, 2) as ex:
            ex.start(spec)
            ex.submit([("set_shard", (s,)) for s in shards])
            results = ex.submit([("energy_task", ())] * 2)
        for res, exp in zip(results, expected):
            assert np.array_equal(res.payload.grad, exp.grad)
            assert res.payload.abe_sum == exp.abe_sum
            assert res.payload.count == exp.count


class TestCrashRobustness:
    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    def test_single_failure_retried_in_place(self, cu_dataset, small_cfg, kind):
        """One injected failure is absorbed by the in-place retry: no
        fallback, and the result is bit-identical to a clean run."""
        retries0 = _counter("parallel.worker_retries", client="trainer")
        fallbacks0 = _counter("parallel.serial_fallbacks", client="trainer")
        w_ref, cks_ref, _ = _train(cu_dataset, small_cfg, kind)
        w, cks, _ = _train(
            cu_dataset, small_cfg, kind, fault=FaultInjector("energy_task", times=1)
        )
        assert np.array_equal(w_ref, w)
        assert cks == cks_ref
        assert _counter("parallel.worker_retries", client="trainer") == retries0 + 1
        assert _counter("parallel.serial_fallbacks", client="trainer") == fallbacks0

    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    @pytest.mark.parametrize("method", ["energy_task", "force_task"])
    def test_double_failure_falls_back_to_serial(
        self, cu_dataset, small_cfg, kind, method
    ):
        """A rank failing its task twice triggers the serial fallback for
        that step; training completes with bit-identical final weights
        and the telemetry counters record fallback + heal."""
        fallbacks0 = _counter("parallel.serial_fallbacks", client="trainer")
        heals0 = _counter("parallel.executor_heals", client="trainer")
        w_ref, cks_ref, abe_ref = _train(cu_dataset, small_cfg, kind)
        w, cks, abe = _train(
            cu_dataset, small_cfg, kind, fault=FaultInjector(method, times=2)
        )
        assert np.array_equal(w_ref, w)
        assert cks == cks_ref
        assert abe == abe_ref
        assert _counter("parallel.serial_fallbacks", client="trainer") == fallbacks0 + 1
        assert _counter("parallel.executor_heals", client="trainer") == heals0 + 1

    def test_dead_process_crashes_then_heals(self, cu_dataset, small_cfg):
        """A killed worker process surfaces as WorkerCrash; heal()
        respawns it and the executor serves tasks again."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        spec = WorkerSpec(model=model, fused_env=True)
        with ProcessExecutor(2) as ex:
            ex.start(spec)
            ex._procs[1].terminate()
            ex._procs[1].join()
            with pytest.raises(WorkerCrash):
                ex.broadcast("get_weights")
            ex.heal(spec, model.params.flatten())
            results = ex.broadcast("get_weights")
            for res in results:
                assert np.array_equal(res.payload, model.params.flatten())


class TestTelemetryMerge:
    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    def test_worker_spans_and_counters_reach_parent(
        self, cu_dataset, small_cfg, kind
    ):
        tasks0 = _counter("parallel.worker_tasks", executor=kind)
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor=kind
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with Tracer() as tracer:
            dist.step_batch(batch)
        dist.close()
        # worker-local spans were captured and merged into the parent
        # stream, tagged with their rank and nested under the parent's
        # parallel.compute span
        by_name = {}
        for ev in tracer.events:
            by_name.setdefault(ev.name, []).append(ev)
        assert "fekf.forward" in by_name
        ranks = {ev.attrs.get("rank") for ev in by_name["fekf.forward"]}
        assert ranks == {0, 1}
        # ... nested (via the worker.task wrapper) under parallel.compute
        compute_ids = {ev.span_id for ev in by_name["parallel.compute"]}
        parent_of = {ev.span_id: ev.parent_id for ev in tracer.events}
        for ev in by_name["fekf.forward"]:
            pid = ev.parent_id
            while pid is not None and pid not in compute_ids:
                pid = parent_of.get(pid)
            assert pid in compute_ids
        # worker task counters merged into the parent registry, labeled
        # by executor backend
        assert _counter("parallel.worker_tasks", executor=kind) > tasks0


class TestLayering:
    def test_no_private_imports_from_optim(self):
        """repro.parallel must consume repro.optim through its public
        surface only -- no underscore-prefixed imports."""
        pkg_dir = Path(parallel_pkg.__file__).parent
        import_re = re.compile(
            r"from\s+(?:repro\.optim|\.\.optim)[\w.]*\s+import\s+"
            r"(\([^)]*\)|[^\n]*)"
        )
        offenders = []
        for src_file in sorted(pkg_dir.glob("*.py")):
            for m in import_re.finditer(src_file.read_text()):
                for raw in re.split(r"[,\s()]+", m.group(1)):
                    name = raw.split("#")[0].strip()
                    if name.startswith("_"):
                        offenders.append(f"{src_file.name}: {name}")
        assert not offenders, f"private optim imports in repro.parallel: {offenders}"


class TestMakeExecutor:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert isinstance(make_executor(None, 2), ThreadExecutor)
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert isinstance(make_executor(None, 2), SerialExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            make_executor("mpi", 2)

    def test_instance_passthrough_checks_world_size(self):
        ex = SerialExecutor(2)
        assert make_executor(ex, 2) is ex
        with pytest.raises(ValueError):
            make_executor(ex, 4)


class TestProfilerMerge:
    def test_process_executor_rank_tracks(self, cu_dataset, small_cfg):
        """Under Tracer(profile=True) + ProcessExecutor, worker op
        timelines merge back rank/pid-tagged: >=2 distinct rank tracks in
        the exported Chrome trace, no span-id collisions, and counters
        merged under the executor label."""
        from repro.telemetry import Tracer as _Tracer, validate_chrome_trace

        tasks0 = _counter("parallel.worker_tasks", executor="process")
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="process"
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with _Tracer(capture_kernels=True, profile=True) as tracer:
            dist.step_batch(batch)
        dist.close()

        # span ids stay unique after the foreign merge
        ids = [ev.span_id for ev in tracer.events]
        assert len(ids) == len(set(ids))

        prof = tracer.profiler
        op_ranks = {ev.rank for ev in prof.events if ev.rank is not None}
        assert op_ranks == {0, 1}
        # process workers report their own pids, distinct from the parent
        import os
        worker_pids = {ev.pid for ev in prof.events if ev.rank is not None}
        assert len(worker_pids) == 2
        assert os.getpid() not in worker_pids
        # worker ops arrive phase-classified (fekf spans live rank-side)
        phases = prof.phase_kernel_counts()
        assert phases.get("forward_energy", 0) > 0
        assert phases.get("backward", 0) > 0
        # the parent's own timeline records the Kalman/comm phases
        main_phases = {ev.phase for ev in prof.events if ev.rank is None}
        assert "kf_update" in main_phases

        trace = tracer.chrome_trace()
        report = validate_chrome_trace(trace)
        assert len(report["rank_tracks"]) >= 2
        # counters merged under the executor label
        assert _counter("parallel.worker_tasks", executor="process") > tasks0

    def test_thread_executor_rank_tracks(self, cu_dataset, small_cfg):
        """Thread workers share the parent pid but still land on their own
        rank tracks."""
        from repro.telemetry import Tracer as _Tracer, validate_chrome_trace

        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="thread"
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with _Tracer(profile=True) as tracer:
            dist.step_batch(batch)
        dist.close()
        report = validate_chrome_trace(tracer.chrome_trace())
        assert len(report["rank_tracks"]) == 2
