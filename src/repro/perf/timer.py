"""Figure 7 phase profiles, derived from the telemetry event stream.

``profile_update`` used to re-implement the Figure 7(c) dissection with
its own ``perf_counter`` pairs and ``KernelCounter`` blocks.  The hot
paths are now instrumented end-to-end with :mod:`repro.telemetry` spans
(``fekf.update`` wrapping ``fekf.forward`` / ``fekf.gradient`` /
``fekf.kalman``), so the profiler simply runs one real optimizer step
under a kernel-capturing tracer and *queries the events*:

1. forward pass (predictions and errors),
2. gradient acquisition (the backward pass(es)),
3. the Kalman-filter calculation flow,

per update flavour (energy-driven vs force-driven), with kernel launches
per phase for Figure 7(b).  The step runs with ``reuse_force_graph``
disabled -- the paper-exact protocol where every force update performs
its own fresh forward -- so one ``step_batch`` yields one energy update
and ``n_force_splits`` identical force updates; the first of each
flavour becomes the reported profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..optim.ekf import FEKF
from ..telemetry.trace import SpanEvent, Tracer
from .presets import Preset


@dataclass
class PhaseProfile:
    """Per-phase seconds and kernel launches for one update flavour."""

    forward_s: float
    gradient_s: float
    kalman_s: float
    forward_kernels: int
    gradient_kernels: int
    kalman_kernels: int

    @property
    def total_s(self) -> float:
        return self.forward_s + self.gradient_s + self.kalman_s

    @property
    def total_kernels(self) -> int:
        return self.forward_kernels + self.gradient_kernels + self.kalman_kernels


@dataclass
class UpdateProfile:
    """Energy-update and force-update profiles for one preset."""

    preset: str
    energy: PhaseProfile
    force: PhaseProfile
    #: live per-phase launch counts from the op-level profiler
    #: (:meth:`repro.telemetry.Profiler.phase_kernel_counts`) over the
    #: whole profiled step; empty when the step ran without a profiler.
    #: Reconciles with the span-derived counts above: ``forward_energy``
    #: equals ``energy.forward_kernels`` and the step total equals
    #: :meth:`total_iteration_kernels` (see the telemetry tests).
    phase_kernels: dict = field(default_factory=dict)

    def total_iteration_kernels(self, n_force_splits: int = 4) -> int:
        """Paper convention: one energy update + four force updates."""
        return self.energy.total_kernels + n_force_splits * self.force.total_kernels

    def total_iteration_s(self, n_force_splits: int = 4) -> float:
        return self.energy.total_s + n_force_splits * self.force.total_s


#: phase span name -> PhaseProfile field prefix
_PHASES = {"fekf.forward": "forward", "fekf.gradient": "gradient", "fekf.kalman": "kalman"}


def _phase_profile(events: list[SpanEvent], update: SpanEvent) -> PhaseProfile:
    """Fold the child phase spans of one ``fekf.update`` into a profile."""
    acc = {
        "forward_s": 0.0, "gradient_s": 0.0, "kalman_s": 0.0,
        "forward_kernels": 0, "gradient_kernels": 0, "kalman_kernels": 0,
    }
    for ev in events:
        if ev.parent_id != update.span_id:
            continue
        phase = _PHASES.get(ev.name)
        if phase is None:
            continue
        acc[f"{phase}_s"] += ev.wall_s
        acc[f"{phase}_kernels"] += int(ev.counters.get("kernels", 0))
    return PhaseProfile(**acc)


def profile_from_events(
    events: Iterable[SpanEvent], preset: str = ""
) -> UpdateProfile:
    """Build an :class:`UpdateProfile` from a traced FEKF step's events.

    This is the Figure 7 query: take the first energy-driven and the
    first force-driven ``fekf.update`` span, and attribute their child
    ``fekf.forward`` / ``fekf.gradient`` / ``fekf.kalman`` spans'
    wall seconds and captured kernel counts to the three phases.
    """
    events = list(events)
    energy = force = None
    for ev in events:
        if ev.name != "fekf.update":
            continue
        kind = ev.attrs.get("kind")
        if kind == "energy" and energy is None:
            energy = ev
        elif kind == "force" and force is None:
            force = ev
    if energy is None or force is None:
        raise ValueError(
            "event stream holds no complete FEKF step (expected 'fekf.update' "
            "spans of kind 'energy' and 'force'; was the step traced?)"
        )
    return UpdateProfile(
        preset=preset,
        energy=_phase_profile(events, energy),
        force=_phase_profile(events, force),
    )


def profile_update(
    model: DeePMD, opt: FEKF, batch: DescriptorBatch, preset: Preset
) -> UpdateProfile:
    """Measure one energy-driven and one force-driven FEKF update of an
    optimizer built for ``preset``.

    Runs a real ``opt.step_batch`` (paper-exact per-update protocol:
    force-graph reuse disabled for the duration) inside a
    kernel-capturing, op-profiling tracer and derives the profile from
    the span events via :func:`profile_from_events`; the op timeline's
    live per-phase launch counts ride along as ``phase_kernels``.  A
    compiled optimizer that has not traced yet first runs one untraced
    step, so the profile measures a replayed step, not the trace.
    """
    old_reuse = opt.reuse_force_graph
    opt.reuse_force_graph = False
    try:
        if opt.compiled and opt.stats()["compiled"]["traces"] == 0:
            opt.step_batch(batch)
        with Tracer(capture_kernels=True, profile=True) as tracer:
            opt.step_batch(batch)
    finally:
        opt.reuse_force_graph = old_reuse
    profile = profile_from_events(tracer.events, preset=preset.name)
    profile.phase_kernels = tracer.profiler.phase_kernel_counts()
    return profile
