"""Compiled FEKF step engine: trace once, replay every step.

The FEKF inner loop is shape-static -- every step runs the same op
sequence over same-shaped buffers -- which is exactly the contract
:mod:`repro.autograd.compile` exploits.  :class:`CompiledStepEngine`
owns the plan lifecycle for one :class:`~repro.optim.worker.GradientWorker`:

* **Trace epoch.**  The first step at a given batch signature runs the
  worker's exact gradient math under a :class:`TraceSession`, carving the
  tape into replayable sections: ``E_fwd`` / ``E_bwd`` around the energy
  update's numpy glue (sign-aligned error weights, Algorithm 1 lines
  3-5), ``F_fwd`` for the force graph, and per-group-size
  ``F_gather[s]`` / ``F_gbwd[s]`` pairs for the force-group updates.
* **Compile.**  Lazily, at the start of the next step, the tape is fused
  into a :class:`~repro.autograd.compile.Program` (elementwise-chain
  fusion, buffer arena, precomputed strides) and cached by batch
  signature (and, inside the plan, by tape CRC + feed signature).
* **Replay.**  Subsequent steps rebind feeds (current weights, batch
  arrays, per-step atom groups and error weights) and replay --
  bit-identical to eager, since every replay step mirrors the eager
  numpy expression.

Whenever reality diverges from the traced world the engine counts a
fallback and returns ``None`` so the caller runs the eager path:
shape/dtype divergence (:class:`PlanMismatch`, triggering a re-trace at
the new signature), an op-stream observer that needs real tensors (tape
recorder / sanitizer), an unknown force-group size, or a configuration
the compiler cannot trace (``type_aware`` builds batch-dependent
constants) -- the latter disables the engine for good.  The Opt1
descriptor kernel (``fused_env``) traces like any other op: its three
kernels replay as opaque plan steps.

Nothing here persists in checkpoints: after ``load_state_dict`` the
engine simply re-traces on the next step, and the replayed trajectory is
bit-identical to the eager one it replaced.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, grad, ops
from ..autograd.compile import (
    PlanMismatch,
    Program,
    TraceSession,
    UnsupportedTrace,
    compile_tape,
)
from ..autograd.instrument import thread_tensors_wanted
from ..model.environment import DescriptorBatch
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span

__all__ = ["CompiledForceGraph", "CompiledStepEngine"]


class CompiledForceGraph:
    """Stand-in for the eager ``(f_pred, params)`` force graph when the
    forward was replayed from a plan.  Carries the replayed force buffer
    and the feed bindings the group sections will reuse (the stale-graph
    protocol: group updates read the weights the forward bound)."""

    compiled_marker = True

    def __init__(self, engine: "CompiledStepEngine", sig, prog: Program,
                 feeds: dict, f_pred: np.ndarray):
        self.engine = engine
        self.sig = sig
        self.prog = prog
        self.feeds = feeds
        self.f_pred = f_pred


class _TraceState:
    """One in-progress trace epoch (a single training step run under a
    :class:`TraceSession`)."""

    __slots__ = ("sig", "session", "energy_done", "f_graph", "sizes")

    def __init__(self, sig, session: TraceSession):
        self.sig = sig
        self.session = session
        self.energy_done = False
        #: live (f_pred, params) tensors of the traced force forward
        self.f_graph = None
        #: group sizes whose gather/backward sections are already traced
        self.sizes: set[int] = set()


class CompiledStepEngine:
    """Plan lifecycle + replay dispatch for one gradient worker.

    Every public method returns the eager method's result tuple, or
    ``None`` to signal "run the eager path" (counted as a fallback).
    """

    def __init__(self, worker):
        self.worker = worker
        self.plans: dict[tuple, Program] = {}
        self.broken: set[tuple] = set()
        self._trace: Optional[_TraceState] = None
        self._names = list(worker.model.params.names())
        self.traces = 0
        self.compiles = 0
        self.fallbacks = 0
        self.disabled_reason: Optional[str] = None
        if getattr(worker.model.cfg, "type_aware", False):
            # the species-channel constant is rebuilt per batch from
            # integer data; baking it would pin the trace-time batch
            self.disabled_reason = "type_aware"

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _batch_sig(self, batch: DescriptorBatch) -> tuple:
        return (
            batch.coords.shape,
            batch.idx_flat.shape,
            batch.mask.shape,
            batch.shift.shape,
            self.worker.model.num_params,
        )

    def _fallback(self, reason: str) -> None:
        self.fallbacks += 1
        _metrics.REGISTRY.counter("compile.fallbacks", reason=reason).inc()

    def _bail(self, batch: DescriptorBatch) -> "tuple | None":
        """Common gate for every entry point: returns the signature to
        proceed with, or ``None`` after counting the fallback."""
        if self.disabled_reason is not None:
            self._fallback(self.disabled_reason)
            return None
        if thread_tensors_wanted():
            # a tape recorder or sanitizer is observing: replay emits no
            # tensors, so hand the step to eager for full fidelity
            self._fallback("observer")
            return None
        return self._batch_sig(batch)

    def _finalize_trace(self) -> None:
        """Compile the pending trace epoch into a cached plan."""
        tr, self._trace = self._trace, None
        if tr is None:
            return
        try:
            with _span("compile.plan", sections=len(tr.session.sections)):
                prog = compile_tape(tr.session)
        except UnsupportedTrace:
            self.broken.add(tr.sig)
            self._fallback("unsupported_trace")
            return
        self.plans[tr.sig] = prog
        self.compiles += 1
        _metrics.REGISTRY.counter("compile.plans").inc()

    def _batch_feeds(self, batch: DescriptorBatch) -> dict:
        model = self.worker.model
        feeds = {f"param:{n}": model.params[n] for n in self._names}
        feeds["coords"] = batch.coords
        feeds["shift"] = batch.shift
        feeds["mask"] = batch.mask
        feeds["mask3"] = batch.mask[..., None]
        feeds["idx_flat"] = batch.idx_flat
        return feeds

    def _flatten(self, bufs) -> np.ndarray:
        return self.worker.model.params.flatten_grads(
            {name: g for name, g in zip(self._names, bufs)}
        )

    # ------------------------------------------------------------------
    # energy update
    # ------------------------------------------------------------------
    def energy_gradient(self, batch: DescriptorBatch):
        sig = self._bail(batch)
        if sig is None:
            return None
        if self._trace is not None:
            # a new step is starting: freeze and compile the trace epoch
            self._finalize_trace()
        prog = self.plans.get(sig)
        if prog is not None:
            try:
                return self._replay_energy(prog, batch)
            except PlanMismatch:
                self._fallback("plan_mismatch")
                return None
        if sig in self.broken:
            self._fallback("broken_sig")
            return None
        return self._trace_energy(sig, batch)

    def _replay_energy(self, prog: Program, batch: DescriptorBatch):
        feeds = self._batch_feeds(batch)
        with _span("fekf.forward", compiled=1):
            (e,) = prog.run("E_fwd", feeds)
            n = batch.n_atoms
            err = (batch.energies - e) / n
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient", compiled=1):
            feeds["e.weights"] = error_signs(err) / (n * batch.batch_size)
            g_flat = self._flatten(prog.run("E_bwd", feeds))
        _metrics.REGISTRY.counter("compile.replays", section="energy").inc()
        return g_flat, abe

    def _trace_energy(self, sig, batch: DescriptorBatch):
        model = self.worker.model
        sess = TraceSession(candidates={
            "coords": batch.coords,
            "shift": batch.shift,
            "mask": batch.mask,
            "mask3": batch.mask[..., None],
            "idx_flat": batch.idx_flat,
        })
        self._trace = _TraceState(sig, sess)
        self.traces += 1
        with _span("fekf.forward", tracing=1):
            with sess:
                p = model.param_tensors()
                coords = Tensor(batch.coords)
                inputs = {f"param:{n}": p[n] for n in self._names}
                inputs["coords"] = coords
                with sess.section("E_fwd", inputs=inputs) as sec:
                    e = model.energy_graph(
                        coords, batch, p=p, fused_env=self.worker.fused_env
                    )
                    sec.outputs = [e]
            n = batch.n_atoms
            err = (batch.energies - e.data) / n
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient", tracing=1):
            weights = error_signs(err) / (n * batch.batch_size)
            with sess:
                wt = Tensor(weights)
                with sess.section("E_bwd", inputs={"e.weights": wt}) as sec:
                    scalar = ops.tsum(ops.mul(e, wt))
                    gs = grad(scalar, [p[name] for name in self._names])
                    sec.outputs = list(gs)
            g_flat = self._flatten([g.data for g in gs])
        self._trace.energy_done = True
        return g_flat, abe

    # ------------------------------------------------------------------
    # force updates
    # ------------------------------------------------------------------
    def force_graph(self, batch: DescriptorBatch):
        sig = self._bail(batch)
        if sig is None:
            return None
        prog = self.plans.get(sig)
        if prog is not None:
            try:
                return self._replay_force_graph(sig, prog, batch)
            except PlanMismatch:
                self._fallback("plan_mismatch")
                return None
        tr = self._trace
        if tr is None or tr.sig != sig or tr.f_graph is not None:
            # at most one force graph is traced per epoch; a second
            # request (the fresh-forward protocol) runs eager
            return None
        return self._trace_force_graph(batch)

    def _replay_force_graph(self, sig, prog: Program, batch: DescriptorBatch):
        if "F_fwd" not in prog.section_names():
            self._fallback("no_force_sections")
            return None
        feeds = self._batch_feeds(batch)
        with _span("fekf.forward", compiled=1):
            (f_pred,) = prog.run("F_fwd", feeds)
        _metrics.REGISTRY.counter("compile.replays", section="force_fwd").inc()
        return CompiledForceGraph(self, sig, prog, feeds, f_pred), None

    def _trace_force_graph(self, batch: DescriptorBatch):
        model = self.worker.model
        sess = self._trace.session
        with _span("fekf.forward", tracing=1):
            with sess:
                p = model.param_tensors()
                coords = Tensor(batch.coords, requires_grad=True)
                inputs = {f"param:{n}": p[n] for n in self._names}
                inputs["coords"] = coords
                with sess.section("F_fwd", inputs=inputs) as sec:
                    e = model.energy_graph(
                        coords, batch, p=p, fused_env=self.worker.fused_env
                    )
                    (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
                    f_pred = ops.neg(gc)
                    sec.outputs = [f_pred]
        self._trace.f_graph = (f_pred, p)
        return f_pred, p

    def force_group_gradient(self, marker: CompiledForceGraph,
                             batch: DescriptorBatch, atom_group: np.ndarray):
        """Replay one group update against a replayed force graph."""
        if thread_tensors_wanted():
            self._fallback("observer")
            return None
        s = len(atom_group)
        prog = marker.prog
        if f"F_gather[{s}]" not in prog.section_names():
            self._fallback("unknown_group_size")
            return None
        feeds = marker.feeds
        try:
            with _span("fekf.forward", compiled=1):
                feeds[f"group[{s}]"] = np.asarray(atom_group)
                (f_group,) = prog.run(f"F_gather[{s}]", feeds)
                sel = (slice(None), atom_group, slice(None))
                err = batch.forces[sel] - f_group
                abe = float(np.mean(np.abs(err)))
            with _span("fekf.gradient", compiled=1):
                feeds[f"f.weights[{s}]"] = error_signs(err) / err.size
                g_flat = self._flatten(prog.run(f"F_gbwd[{s}]", feeds))
        except PlanMismatch:
            self._fallback("plan_mismatch")
            return None
        _metrics.REGISTRY.counter("compile.replays", section="force_group").inc()
        return g_flat, abe

    def trace_force_group(self, f_pred, p, batch: DescriptorBatch,
                          atom_group: np.ndarray):
        """During the trace epoch: record gather/backward sections for a
        group size seen for the first time.  Returns ``None`` for repeat
        sizes (the caller's eager math runs on the live traced graph)."""
        tr = self._trace
        if (
            tr is None
            or tr.f_graph is None
            or f_pred is not tr.f_graph[0]
            or thread_tensors_wanted()
        ):
            return None
        s = len(atom_group)
        if s in tr.sizes:
            return None  # eager repeat inside the trace step (not recorded)
        sess = tr.session
        group = np.asarray(atom_group)
        with _span("fekf.forward", tracing=1):
            with sess:
                sess.add_candidates({f"group[{s}]": group})
                with sess.section(f"F_gather[{s}]") as sec:
                    f_group = f_pred[(slice(None), group, slice(None))]
                    sec.outputs = [f_group]
            err = batch.forces[(slice(None), group, slice(None))] - f_group.data
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient", tracing=1):
            weights = error_signs(err) / err.size
            with sess:
                wt = Tensor(weights)
                with sess.section(f"F_gbwd[{s}]",
                                  inputs={f"f.weights[{s}]": wt}) as sec:
                    scalar = ops.tsum(ops.mul(f_group, wt))
                    gs = grad(scalar, [p[name] for name in self._names])
                    sec.outputs = list(gs)
            g_flat = self._flatten([g.data for g in gs])
        tr.sizes.add(s)
        return g_flat, abe

    def force_gradient(self, batch: DescriptorBatch, atom_group: np.ndarray):
        """The paper-exact fresh-forward protocol: replay ``F_fwd`` at
        the current weights, then the group sections."""
        sig = self._bail(batch)
        if sig is None:
            return None
        prog = self.plans.get(sig)
        if prog is None:
            tr = self._trace
            if tr is None or tr.sig != sig:
                return None
            if tr.f_graph is None:
                graph = self._trace_force_graph(batch)
                return self.trace_force_group(*graph, batch, atom_group)
            # later fresh updates of the trace step run eager (the caller
            # rebuilds its own graph at the current weights).  A size not
            # seen yet still gets its sections traced against the frozen
            # graph -- values are stale so the result is discarded, but
            # the sections replay correctly once feeds rebind.
            if len(atom_group) not in tr.sizes:
                self.trace_force_group(*tr.f_graph, batch, atom_group)
            return None
        try:
            shared = self._replay_force_graph(sig, prog, batch)
        except PlanMismatch:
            self._fallback("plan_mismatch")
            return None
        if shared is None:
            return None
        return self.force_group_gradient(shared[0], batch, atom_group)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine-level telemetry, merged into optimizer ``stats()``."""
        plans = {
            "x".join(map(str, k[0])): p.stats.as_dict()
            for k, p in self.plans.items()
        }
        out = {
            "enabled": self.disabled_reason is None,
            "traces": self.traces,
            "compiles": self.compiles,
            "replays": sum(p.stats.replays for p in self.plans.values()),
            "fallbacks": self.fallbacks,
            "compile_time_s": sum(
                p.stats.compile_time_s for p in self.plans.values()
            ),
            "plans": plans,
        }
        if self.disabled_reason is not None:
            out["disabled_reason"] = self.disabled_reason
        return out


# placed at the bottom to avoid a circular import at module load
from .worker import error_signs  # noqa: E402
