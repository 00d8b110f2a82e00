"""Data-parallel FEKF over pluggable rank executors.

The paper's Sec. 3.3 argument, executed literally:

* the minibatch is sharded across ranks;
* each rank's :class:`~repro.optim.GradientWorker` computes its *reduced*
  local gradient and absolute-error sums (the funnel dataflow -- reduction
  happens before any Kalman algebra);
* gradients are summed with a real ring-allreduce, ABEs with a scalar
  allreduce;
* the parent performs one Kalman update and broadcasts the weight *delta*
  to every replica, so the P replicas never diverge and are never
  communicated.  A verification mode keeps a genuinely independent shadow
  replica and asserts bit-equality of the checksums every update.

Execution backend is pluggable (:mod:`repro.parallel.executor`): ranks run
serially in-process (default), on worker threads, or in persistent worker
processes -- all bit-identical, because per-rank compute is a pure
function of (weights, shard) and results are reduced in rank order.

Robustness follows the recovery policy of :mod:`repro.parallel.executor`:
after a crash the step finishes on a serial scratch worker (bit-identical
-- the shared force graph is rebuilt at the snapshotted post-energy
weights) and the pool heals at the end of the step.

Two clocks are reported per step:

* ``modeled_time_s`` -- max_rank(compute) + t_comm(alpha-beta model)
  + t_kalman, the Table-5 simulated cluster time;
* ``wall_time_s`` -- real elapsed time of ``step_batch`` on this host,
  which is what the thread/process executors actually improve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..optim.ekf import FEKF
from ..optim.kalman import KalmanConfig, KalmanState
from ..optim.worker import (
    GradientWorker,
    ShardResult,
    TaskResult,
    WorkerSpec,
    WorkerTelemetry,
)
from ..telemetry import metrics as _metrics
from ..telemetry.trace import current_tracer, span as _span
from .comm import CostModel, SimCommunicator
from .executor import Executor, Supervised, make_executor
from .topology import ClusterSpec, cluster_for_gpus, cost_model_for


@dataclass
class StepTiming:
    """Accumulated timing components (seconds).

    ``compute_s`` / ``comm_s`` / ``kalman_s`` are *simulated-cluster*
    components (compute is the per-round max over ranks, comm comes from
    the alpha-beta model); ``wall_s`` is real elapsed time on this host.
    """

    compute_s: float = 0.0
    comm_s: float = 0.0
    kalman_s: float = 0.0
    wall_s: float = 0.0
    steps: int = 0

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.kalman_s


class DistributedFEKF:
    """FEKF with the minibatch sharded over ``world_size`` ranks.

    Exposes the same ``step_batch`` protocol as the serial optimizers, so
    it plugs straight into :class:`repro.train.Trainer`.  ``executor``
    selects the backend: ``"serial"`` / ``"thread"`` / ``"process"``, an
    :class:`Executor` instance, or ``None`` to consult ``$REPRO_EXECUTOR``;
    the :attr:`executor` attribute holds it under :class:`Supervised`.
    """

    name = "DistributedFEKF"

    def __init__(
        self,
        model: DeePMD,
        world_size: int,
        kalman_cfg: KalmanConfig | None = None,
        n_force_splits: int = 4,
        fused_env: bool = True,
        reuse_force_graph: bool = True,
        verify_replicas: bool = False,
        cost_model: CostModel | None = None,
        seed: int = 0,
        executor: "str | Executor | None" = None,
        compiled: bool | None = None,
    ):
        self.world_size = int(world_size)
        if cost_model is None:
            cost_model = cost_model_for(cluster_for_gpus(self.world_size))
        self.comm = SimCommunicator(self.world_size, cost_model)
        # the parent optimizer: owns the canonical weights + filter state
        self._local = FEKF(
            model,
            kalman_cfg=kalman_cfg,
            n_force_splits=n_force_splits,
            fused_env=fused_env,
            reuse_force_graph=reuse_force_graph,
            seed=seed,
            compiled=compiled,
        )
        self.model = model
        self._spec = WorkerSpec(
            model=model, fused_env=fused_env, compiled=self._local.compiled
        )
        self.executor = Supervised(
            make_executor(executor, self.world_size),
            self._spec,
            self._fallback_call,
            client="trainer",
        )
        self.timing = StepTiming()
        self.verify_replicas = verify_replicas
        self._shadow: KalmanState | None = (
            self._local.kalman.clone() if verify_replicas else None
        )
        self.step_count = 0
        # per-step fallback state (see _fallback_call)
        self._fb_worker: GradientWorker | None = None
        self._fb_graphs: dict[int, object] = {}
        self._graph_weights: np.ndarray | None = None
        self._shard_cache: list[DescriptorBatch] = []

    # ------------------------------------------------------------------
    @property
    def kalman(self) -> KalmanState:
        return self._local.kalman

    # optimizer protocol: the parent holds one filter state and the
    # canonical weights, so state and hyperparameters delegate to it
    @property
    def hyperparams(self) -> dict:
        return {
            **self._local.hyperparams,
            "name": self.name,
            "world_size": self.world_size,
            "executor": self.executor.name,
        }

    def stats(self) -> dict:
        """Parent-side optimizer diagnostics (see :meth:`FEKF.stats`)."""
        return self._local.stats()

    def state_dict(self) -> dict[str, np.ndarray]:
        return self._local.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._local.load_state_dict(state)
        if self._shadow is not None:
            self._shadow = self._local.kalman.clone()
        self.sync_workers()

    def sync_workers(self) -> None:
        """Push the parent's full weight vector to every rank replica."""
        w = self.model.params.flatten()
        self.executor.broadcast("set_weights", w)
        self.executor.recover(w)

    def close(self) -> None:
        """Tear down the executor's workers (idempotent)."""
        self.executor.close()

    def _shards(self, batch: DescriptorBatch) -> list[DescriptorBatch]:
        """Near-even frame split; when ``batch_size < world_size`` the
        surplus ranks receive empty shards (their zero-count results drop
        out of the count-weighted reduction)."""
        bs = batch.batch_size
        if bs < 1:
            raise ValueError("cannot shard an empty batch")
        bounds = np.linspace(0, bs, self.world_size + 1).astype(int)
        return [batch.frame_slice(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # worker telemetry and the serial fallback
    # ------------------------------------------------------------------
    def _merge_telemetry(self, results: list[TaskResult]) -> float:
        """Fold worker-local telemetry into the parent registry/tracer;
        returns the max rank wall time (the simulated-cluster compute
        cost of the round)."""
        tracer = current_tracer()
        profiler = tracer.profiler if tracer is not None else None
        ex = self.executor.name
        max_wall = 0.0
        for res in results:
            tel = res.telemetry
            if tel.wall_s > max_wall:
                max_wall = tel.wall_s
            if tel.counters:
                _metrics.REGISTRY.merge_counters(tel.counters, executor=ex)
            if tracer is not None and tel.spans:
                tracer.emit_foreign(
                    tel.spans, rank=tel.rank, pid=tel.pid, executor=ex
                )
            if profiler is not None and tel.ops:
                profiler.emit_foreign(tel.ops, rank=tel.rank, pid=tel.pid)
        return max_wall

    def _fallback_call(
        self, rank: int, method: str, args: tuple, capture: bool
    ) -> TaskResult:
        """Reproduce one rank's task on the serial scratch worker (the
        executor's fallback).

        State tasks are no-ops (the parent already holds the canonical
        state; dead replicas are healed wholesale after the step), and
        ``graph_task`` is deferred -- the shared graph is rebuilt lazily
        per rank at the snapshotted post-energy weights, which is exactly
        where the live workers built theirs.
        """
        worker = self._fb_worker
        if worker is None:
            worker = self._fb_worker = self._spec.build()
        if method == "energy_task" or (method == "force_task" and args[1]):
            worker.set_weights(self.model.params.flatten())
            worker.set_shard(self._shard_cache[rank])
            return worker.run(method, args, capture)
        if method == "force_task":  # on the shared graph
            if rank not in self._fb_graphs:
                worker.set_weights(self._graph_weights)
                worker.set_shard(self._shard_cache[rank])
                worker.run("graph_task", (), capture)
                self._fb_graphs[rank] = worker.graph
            worker.set_shard(self._shard_cache[rank])
            worker.graph = self._fb_graphs[rank]
            return worker.run(method, args, capture)
        # set_shard / set_weights / apply_delta / graph_task: nothing to do
        return TaskResult(payload=None, telemetry=WorkerTelemetry(rank=rank))

    # ------------------------------------------------------------------
    def _allreduce_gradient(
        self, locals_: list[ShardResult], total: int
    ) -> tuple[np.ndarray, float]:
        """Combine per-rank shard results into the global mean gradient
        and ABE via ring/scalar allreduce (zero-count ranks contribute
        zero weight)."""
        weighted = [r.grad * (r.count / total) for r in locals_]
        reduced = self.comm.ring_allreduce(weighted)
        # every replica must hold the same result bit-for-bit
        for other in reduced[1:]:
            if not np.array_equal(reduced[0], other):
                raise AssertionError("ring-allreduce replicas diverged")
        abe = self.comm.allreduce_scalar([r.abe_sum for r in locals_]) / total
        return reduced[0], abe

    def _sync_delta(self, g: np.ndarray, abe: float, scale: float) -> None:
        """One Kalman update on the parent, then broadcast the weight
        delta so every replica tracks it."""
        t0 = time.perf_counter()
        with _span("parallel.kalman"):
            dw = self._local.kalman.update(g, abe, scale)
        self.timing.kalman_s += time.perf_counter() - t0
        if self._shadow is not None:
            dw2 = self._shadow.update(g, abe, scale)
            if not np.array_equal(dw, dw2):
                raise AssertionError("Kalman replicas diverged")
            if self._shadow.checksum() != self._local.kalman.checksum():
                raise AssertionError("P replica checksums diverged")
        self._local.apply_increment(dw)
        self._merge_telemetry(self.executor.broadcast("apply_delta", dw))

    # ------------------------------------------------------------------
    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        step_t0 = time.perf_counter()
        shards = self._shards(batch)
        self._shard_cache = shards
        self._fb_graphs = {}
        self._graph_weights = None
        bs = batch.batch_size
        scale = float(np.sqrt(bs))
        comm_t0 = self.comm.modeled_time_s
        tracer = current_tracer()
        # profiling parents ask workers for the op timeline too
        capture: "bool | str" = tracer is not None
        if tracer is not None and tracer.profiler is not None:
            capture = "profile"

        # ---- distribute shards ---------------------------------------
        self._merge_telemetry(
            self.executor.submit([("set_shard", (s,)) for s in shards])
        )

        # ---- energy update -------------------------------------------
        with _span("parallel.compute", kind="energy", ranks=len(shards)):
            results = self.executor.submit(
                [("energy_task", ())] * self.world_size, capture
            )
            self.timing.compute_s += self._merge_telemetry(results)
        with _span("parallel.comm", kind="energy"):
            g_mean, abe = self._allreduce_gradient([r.payload for r in results], bs)
        self._sync_delta(g_mean, abe, scale)

        # ---- force updates -------------------------------------------
        groups = self._local.force_groups(batch.n_atoms)
        fresh = not self._local.reuse_force_graph
        if not fresh:
            # the shared graphs are built at the post-energy-update
            # weights; snapshot them so a fallback can rebuild any rank's
            # graph bit-identically after a mid-step crash
            self._graph_weights = self.model.params.flatten()
            with _span("parallel.compute", kind="force_graph", ranks=len(shards)):
                results = self.executor.submit(
                    [("graph_task", ())] * self.world_size, capture
                )
                self.timing.compute_s += self._merge_telemetry(results)
        f_abes = []
        for group in groups:
            with _span("parallel.compute", kind="force", ranks=len(shards)):
                results = self.executor.submit(
                    [("force_task", (group, fresh))] * self.world_size, capture
                )
                self.timing.compute_s += self._merge_telemetry(results)
            with _span("parallel.comm", kind="force"):
                g_mean, abe = self._allreduce_gradient(
                    [r.payload for r in results], bs * len(group) * 3
                )
            self._sync_delta(g_mean, abe, scale)
            f_abes.append(abe)

        self.executor.recover(self.model.params.flatten())
        self.timing.comm_s += self.comm.modeled_time_s - comm_t0
        self.timing.wall_s += time.perf_counter() - step_t0
        self.timing.steps += 1
        self.step_count += 1
        _metrics.REGISTRY.counter("optim.steps", optimizer=self.name).inc()
        return {
            "force_abe": float(np.mean(f_abes)) if f_abes else 0.0,
            "modeled_time_s": self.timing.total_s,
            "wall_time_s": self.timing.wall_s,
            "comm_bytes_per_rank": self.comm.ledger.bytes_sent_per_rank,
        }
