"""Per-rank shard compute for (data-parallel) FEKF: the rank-worker layer.

The funnel dataflow of the paper (Sec. 3.1) reduces per-sample gradients
and absolute errors *before* any Kalman algebra, which makes the per-rank
work a pure function of (weight vector, :class:`DescriptorBatch` shard).
:class:`GradientWorker` packages exactly that function -- the reduced
energy / force-group gradients and ABEs that used to be private methods
of :class:`~repro.optim.ekf.FEKF` -- behind a public, picklable surface
so it can run

* in-process (the serial FEKF path delegates here),
* on worker threads (BLAS releases the GIL), or
* in persistent worker processes, each holding its own model replica and
  receiving only the per-update weight *delta* -- the paper's "gradients
  travel, P never does" argument applied to the weights as well.

Task protocol
-------------
Executors (see :mod:`repro.parallel.executor`) drive a worker exclusively
through :meth:`GradientWorker.run`, which dispatches a whitelisted method
name, times it, optionally captures telemetry spans locally, and wraps
the outcome in a :class:`TaskResult` envelope for the parent to merge.
State mutations (``set_shard`` / ``set_weights`` / ``apply_delta``) and
compute tasks (``energy_task`` / ``graph_task`` / ``force_task``) are the
whole vocabulary; everything is picklable so the same protocol works over
a pipe.

Fault injection for robustness tests is first-class: install a
:class:`FaultInjector` (itself picklable, via the ``set_fault`` task) and
the targeted task raises for its first ``times`` invocations -- the
executor's retry/fallback machinery is exercised without monkeypatching.
"""

from __future__ import annotations

import contextlib
import copy
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..autograd import Tensor, grad, ops
from ..autograd.capture import capture as _capture
from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..telemetry.trace import Tracer, span as _span

__all__ = [
    "error_signs",
    "ShardResult",
    "WorkerTelemetry",
    "TaskResult",
    "FaultInjector",
    "GradientWorker",
    "WorkerSpec",
    "TASK_METHODS",
    "PrefetchWorker",
    "PrefetchSpec",
    "PREFETCH_TASKS",
]


def error_signs(errors: np.ndarray) -> np.ndarray:
    """+1 where the prediction is below the label, -1 otherwise
    (Algorithm 1 lines 3-5: flip Y_hat when Y_hat >= Y)."""
    return np.where(errors > 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# result envelopes (all picklable)
# ---------------------------------------------------------------------------
@dataclass
class ShardResult:
    """One rank's reduced contribution to a global update.

    ``grad`` is the count-weighted *mean* gradient over the shard,
    ``abe_sum`` the summed absolute errors and ``count`` the number of
    components they cover (0 for an empty shard -- the count-weighted
    reduction then ignores the rank).
    """

    grad: np.ndarray
    abe_sum: float
    count: int


@dataclass
class WorkerTelemetry:
    """Telemetry captured locally by a worker for one task.

    Workers never touch the parent's tracer or metric registry (threads
    would race on it, processes cannot see it); they measure locally and
    the parent merges via :meth:`repro.telemetry.Tracer.emit_foreign` and
    :meth:`repro.telemetry.MetricRegistry.merge_counters`.
    """

    rank: int = 0
    #: OS pid of the worker (distinguishes process-executor tracks from
    #: in-process ranks in the merged Chrome trace)
    pid: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    counters: dict = field(default_factory=dict)
    #: ``SpanEvent.as_dict()`` payloads captured under a worker-local
    #: tracer (empty unless the parent asked for capture)
    spans: list = field(default_factory=list)
    #: ``OpEvent.as_dict()`` payloads from a worker-local profiler
    #: (empty unless the parent asked for ``capture="profile"``)
    ops: list = field(default_factory=list)
    #: ``{name: Histogram.as_dict()}`` distributions observed locally
    #: (e.g. per-task latency); the parent folds them in losslessly via
    #: :meth:`repro.telemetry.MetricRegistry.merge_histograms`
    histograms: dict = field(default_factory=dict)


@dataclass
class TaskResult:
    """Envelope returned by :meth:`GradientWorker.run` for every task."""

    payload: Any
    telemetry: WorkerTelemetry


@dataclass
class FaultInjector:
    """Picklable test hook: degrade ``method`` for its next ``times`` calls.

    The default is a hard failure (``raises=True``); ``stall_s`` sleeps
    inside the task first, and with ``raises=False`` the task then
    *succeeds slowly* -- a wedged-but-alive worker, which is what the
    watchdog / latency-SLO tests need to provoke (a crash is caught by
    the executor's heal path long before any deadline fires).
    """

    method: str
    times: int = 1
    message: str = "injected worker fault"
    #: seconds to block inside the targeted task before (maybe) raising
    stall_s: float = 0.0
    #: when False the fault only stalls -- no exception
    raises: bool = True

    def check(self, method: str, rank: int) -> None:
        if self.times > 0 and method == self.method:
            self.times -= 1
            if self.stall_s > 0.0:
                time.sleep(self.stall_s)
            if self.raises:
                raise RuntimeError(f"{self.message} (rank {rank}, {method})")


#: methods dispatchable through :meth:`GradientWorker.run`
TASK_METHODS = frozenset(
    {
        "set_shard",
        "set_weights",
        "get_weights",
        "apply_delta",
        "set_fault",
        "energy_task",
        "graph_task",
        "force_task",
    }
)

#: compute tasks wrapped in a ``worker.task`` span under capture, and the
#: update kind each contributes to (phase attribution for the profiler;
#: ``graph_task`` has no kind -- it is the shared force-graph build)
_COMPUTE_TASKS = frozenset({"energy_task", "graph_task", "force_task"})
_TASK_KIND = {"energy_task": "energy", "force_task": "force"}


class GradientWorker:
    """Reduced-gradient compute over one model replica.

    The low-level methods (:meth:`energy_gradient`, :meth:`force_graph`,
    :meth:`force_group_gradient`, :meth:`force_gradient`) are the single
    implementation of FEKF's per-shard math -- the serial optimizer calls
    them directly on its own model.  The ``*_task`` methods add the
    rank-local state an executor round needs: the current shard, a cached
    force graph, and empty-shard short-circuits.
    """

    def __init__(
        self,
        model: DeePMD,
        fused_env: bool = False,
        rank: int = 0,
        compiled: bool = False,
    ):
        self.model = model
        self.fused_env = fused_env
        self.rank = int(rank)
        self.shard: Optional[DescriptorBatch] = None
        #: cached (f_pred, params) force graph for the current shard;
        #: deliberately *kept* across ``apply_delta`` (the shared-graph
        #: protocol evaluates all force groups on one stale graph) and
        #: dropped on ``set_shard`` / ``set_weights``.
        self.graph = None
        self.fault: Optional[FaultInjector] = None
        #: opt-in tape-compiled step replay (see repro.optim.compiled);
        #: the engine is built lazily on the first gradient call
        self.compiled = bool(compiled)
        self._engine = None

    def _compile_engine(self):
        if not self.compiled:
            return None
        if self._engine is None:
            from .compiled import CompiledStepEngine

            self._engine = CompiledStepEngine(self)
        return self._engine

    # ------------------------------------------------------------------
    # gradient math (shared with the serial FEKF path)
    # ------------------------------------------------------------------
    def _param_list(self, p: dict[str, Tensor]) -> list[Tensor]:
        return [p[name] for name in self.model.params.names()]

    def energy_gradient(self, batch: DescriptorBatch) -> tuple[np.ndarray, float]:
        """Reduced per-atom-energy gradient E(g) and ABE for the batch."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.energy_gradient(batch)
            if out is not None:
                return out
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            e = model.energy_graph(
                Tensor(batch.coords), batch, p=p, fused_env=self.fused_env
            )
            n = batch.n_atoms
            err = (batch.energies - e.data) / n
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient"):
            weights = error_signs(err) / (n * batch.batch_size)
            scalar = ops.tsum(ops.mul(e, Tensor(weights)))
            gs = grad(scalar, self._param_list(p))
            g_flat = model.params.flatten_grads(
                {name: g.data for name, g in zip(model.params.names(), gs)}
            )
        return g_flat, abe

    def force_graph(self, batch: DescriptorBatch):
        """Build the differentiable force predictions F = -dE/dr.

        Under the compiled engine this may return a
        :class:`~repro.optim.compiled.CompiledForceGraph` marker in place
        of the live ``(f_pred, params)`` pair; ``force_group_gradient``
        understands both."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.force_graph(batch)
            if out is not None:
                return out
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            coords = Tensor(batch.coords, requires_grad=True)
            e = model.energy_graph(coords, batch, p=p, fused_env=self.fused_env)
            (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
            f_pred = ops.neg(gc)
        return f_pred, p

    def force_group_gradient(
        self,
        f_pred: Tensor,
        p: dict[str, Tensor],
        batch: DescriptorBatch,
        atom_group: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Reduced gradient and ABE of one atom group's force components."""
        if getattr(f_pred, "compiled_marker", False):
            out = f_pred.engine.force_group_gradient(f_pred, batch, atom_group)
            if out is not None:
                return out
            # the plan cannot serve this group (unseen size, observer
            # active): fall back to a fresh eager forward
            return self.force_gradient(batch, atom_group)
        if self._engine is not None:
            out = self._engine.trace_force_group(f_pred, p, batch, atom_group)
            if out is not None:
                return out
        with _span("fekf.forward"):
            sel = (slice(None), atom_group, slice(None))
            f_group = f_pred[sel]
            err = batch.forces[sel] - f_group.data
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient"):
            weights = error_signs(err) / err.size
            scalar = ops.tsum(ops.mul(f_group, Tensor(weights)))
            gs = grad(scalar, self._param_list(p))
            g_flat = self.model.params.flatten_grads(
                {name: g.data for name, g in zip(self.model.params.names(), gs)}
            )
        return g_flat, abe

    def force_gradient(
        self, batch: DescriptorBatch, atom_group: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Fresh forward at the current weights + one group's gradient
        (the paper-exact per-update protocol)."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.force_gradient(batch, atom_group)
            if out is not None:
                return out
        f_pred, p = self.force_graph(batch)
        return self.force_group_gradient(f_pred, p, batch, atom_group)

    def apply_increment(self, dw: np.ndarray) -> None:
        """w <- w + dw on this replica (bit-identical on every rank)."""
        self.model.params.unflatten(self.model.params.flatten() + dw)

    # ------------------------------------------------------------------
    # rank-local task state
    # ------------------------------------------------------------------
    def set_shard(self, shard: DescriptorBatch) -> None:
        self.shard = shard
        self.graph = None

    def set_weights(self, w: np.ndarray) -> None:
        self.model.params.unflatten(np.asarray(w, dtype=np.float64))
        self.graph = None

    def get_weights(self) -> np.ndarray:
        return self.model.params.flatten()

    def apply_delta(self, dw: np.ndarray) -> None:
        # graph cache intentionally survives (shared-graph protocol)
        self.apply_increment(np.asarray(dw, dtype=np.float64))

    def set_fault(self, fault: Optional[FaultInjector]) -> None:
        self.fault = fault

    def _zero_result(self) -> ShardResult:
        return ShardResult(np.zeros(self.model.num_params), 0.0, 0)

    def _require_shard(self) -> DescriptorBatch:
        if self.shard is None:
            raise RuntimeError("no shard assigned (dispatch set_shard first)")
        return self.shard

    # ------------------------------------------------------------------
    # compute tasks
    # ------------------------------------------------------------------
    def energy_task(self) -> ShardResult:
        shard = self._require_shard()
        if shard.batch_size == 0:
            return self._zero_result()
        g, abe = self.energy_gradient(shard)
        return ShardResult(g, abe * shard.batch_size, shard.batch_size)

    def graph_task(self) -> None:
        """Build and cache the force graph for the current shard."""
        shard = self._require_shard()
        self.graph = self.force_graph(shard) if shard.batch_size else None

    def force_task(self, atom_group: np.ndarray, fresh: bool) -> ShardResult:
        shard = self._require_shard()
        if shard.batch_size == 0:
            return self._zero_result()
        if fresh:
            g, abe = self.force_gradient(shard, atom_group)
        else:
            if self.graph is None:
                raise RuntimeError(
                    "shared-graph force task without a cached graph "
                    "(dispatch graph_task first)"
                )
            g, abe = self.force_group_gradient(*self.graph, shard, atom_group)
        n_comp = shard.batch_size * len(atom_group) * 3
        return ShardResult(g, abe * n_comp, n_comp)

    # ------------------------------------------------------------------
    # executor entry point
    # ------------------------------------------------------------------
    def run(
        self, method: str, args: tuple = (), capture: "bool | str" = False
    ) -> TaskResult:
        """Dispatch one task, measuring wall/CPU time and (optionally)
        capturing telemetry spans under a worker-local tracer.

        ``capture="profile"`` additionally attaches a worker-local
        op-level profiler, so the task's primitive-op timeline rides back
        in :attr:`WorkerTelemetry.ops` for the parent to merge into its
        own profiler (one rank-tagged track per worker in the exported
        Chrome trace)."""
        if method not in TASK_METHODS:
            raise ValueError(f"unknown worker task {method!r}")
        if self.fault is not None:
            self.fault.check(method, self.rank)
        t0 = time.perf_counter()
        c0 = time.process_time()
        if capture:
            with contextlib.ExitStack() as stack:
                tracer = stack.enter_context(Tracer(keep_events=True))
                if capture == "profile":
                    # the unified observer surface: installs a worker-local
                    # Profiler attached to this tracer (autograd.capture)
                    stack.enter_context(_capture("profile", tracer=tracer))
                if method in _COMPUTE_TASKS:
                    attrs = {"method": method}
                    kind = _TASK_KIND.get(method)
                    if kind is not None:
                        attrs["kind"] = kind
                    with tracer.span("worker.task", **attrs):
                        payload = getattr(self, method)(*args)
                else:
                    payload = getattr(self, method)(*args)
            spans = [e.as_dict() for e in tracer.events]
            ops = (
                [o.as_dict() for o in tracer.profiler.events]
                if tracer.profiler is not None
                else []
            )
        else:
            payload = getattr(self, method)(*args)
            spans = []
            ops = []
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        telemetry = WorkerTelemetry(
            rank=self.rank,
            pid=os.getpid(),
            wall_s=wall,
            cpu_s=cpu,
            counters={"parallel.worker_tasks": 1.0},
            spans=spans,
            ops=ops,
        )
        return TaskResult(payload=payload, telemetry=telemetry)


#: methods dispatchable through :meth:`PrefetchWorker.run`
PREFETCH_TASKS = frozenset({"make_batch", "noop", "set_fault"})


class PrefetchWorker:
    """Batch-construction compute for the streaming data loader.

    The descriptor-input half of a training step -- fetch frames, build
    neighbor tables, assemble the :class:`DescriptorBatch` -- is a pure
    function of (frame source, index array, descriptor config), exactly
    the shape the rank-worker protocol wants.  The
    :class:`~repro.data.loader.StreamingLoader` runs these workers on an
    executor so batch construction overlaps the optimizer's Kalman
    algebra (thread backend: the table/gather kernels are numpy and BLAS
    releases the GIL; process backend: a picklable store *handle*
    travels, never frame data).

    Same envelope as :class:`GradientWorker`: drive exclusively through
    :meth:`run`, which returns a :class:`TaskResult` whose telemetry the
    parent merges; under capture the batch build is wrapped in a
    ``data.prefetch`` span so prefetch overlap is visible in the trace.
    """

    def __init__(self, source, cfg, rank: int = 0):
        self.source = source
        self.cfg = cfg
        self.rank = int(rank)
        self.fault: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    def make_batch(self, indices: np.ndarray) -> DescriptorBatch:
        from ..model.environment import make_batch

        return make_batch(self.source, indices, self.cfg)

    def noop(self) -> None:
        """Padding task for partial final groups (world_size alignment)."""

    def set_fault(self, fault: Optional[FaultInjector]) -> None:
        self.fault = fault

    # ------------------------------------------------------------------
    def run(
        self, method: str, args: tuple = (), capture: "bool | str" = False
    ) -> TaskResult:
        if method not in PREFETCH_TASKS:
            raise ValueError(f"unknown prefetch task {method!r}")
        if self.fault is not None:
            self.fault.check(method, self.rank)
        t0 = time.perf_counter()
        c0 = time.process_time()
        if capture:
            with Tracer(keep_events=True) as tracer:
                if method == "make_batch":
                    with tracer.span(
                        "data.prefetch", rank=self.rank, frames=len(args[0])
                    ):
                        payload = getattr(self, method)(*args)
                else:
                    payload = getattr(self, method)(*args)
            spans = [e.as_dict() for e in tracer.events]
        else:
            payload = getattr(self, method)(*args)
            spans = []
        telemetry = WorkerTelemetry(
            rank=self.rank,
            pid=os.getpid(),
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - c0,
            counters={"data.prefetch_tasks": 1.0},
            spans=spans,
        )
        return TaskResult(payload=payload, telemetry=telemetry)


@dataclass
class PrefetchSpec:
    """Picklable recipe for building prefetch ranks.

    ``source`` must be picklable for the process backend -- an in-memory
    :class:`~repro.data.dataset.Dataset` ships its arrays once at start;
    a :class:`~repro.data.framestore.ShardedFrameStore` ships only its
    path handle and re-opens (mmap) inside the worker.
    """

    source: Any
    cfg: Any

    def build(self, rank: int = 0) -> PrefetchWorker:
        return PrefetchWorker(self.source, self.cfg, rank=rank)


@dataclass
class WorkerSpec:
    """Picklable recipe for building rank workers.

    ``build`` deep-copies the model so every rank owns an independent,
    bit-identical replica of the weights at build time; executors that
    respawn a worker afterwards must re-sync with ``set_weights``.
    """

    model: DeePMD
    fused_env: bool = False
    compiled: bool = False

    def build(self, rank: int = 0) -> GradientWorker:
        return GradientWorker(
            copy.deepcopy(self.model),
            fused_env=self.fused_env,
            rank=rank,
            compiled=self.compiled,
        )
