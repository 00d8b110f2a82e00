"""Eager vs tape-compiled FEKF steps, per phase (``BENCH_compile.json``).

The paper attributes ~3.25x of its speedup to kernel fusion (Opt2) and
P·g / intermediate-result caching (Opt3): both are trace-then-specialize
optimizations that remove per-op dispatch and allocation from a step
whose op sequence is shape-static.  :mod:`repro.autograd.compile` is this
codebase's analog -- record the FEKF step's tape once, fuse elementwise
chains, replay against a reusable buffer arena -- so the honest
comparison is per-phase wall time of the same training run, eager vs
compiled, certified bit-identical.

Configuration mirrors where the optimization matters: fresh force graphs
(``reuse_force_graph=False``) make every force update run a full forward,
so the step is dominated by the ``forward_force`` + ``kf_update`` phases
the paper's Tables 4/5 name as hot.  Phase times come from
:func:`repro.telemetry.profile.phase_span_times` over the span stream --
the same clock for both runs, unlike op-event durations, which charge
eager ops for exactly the python dispatch the replay removes.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from ..data.systems import generate_dataset
from ..model import DeePMD, DeePMDConfig, make_batch
from ..optim import FEKF, KalmanConfig
from ..telemetry.profile import phase_span_times
from ..telemetry.trace import Tracer
from .common import Report
from .manifest import write_manifest

__all__ = ["bench_config", "measure", "run"]

#: the phases the acceptance gate sums (the step's hot phases under the
#: fresh-graph dataflow)
HOT_PHASES = ("kf_update", "forward_force")


def bench_config() -> DeePMDConfig:
    """A dispatch-bound network: small enough that eager per-op overhead
    (what compilation removes) dominates over raw BLAS time."""
    return DeePMDConfig(
        embedding_widths=(6, 6, 6),
        m_less=4,
        fitting_widths=(8, 8, 8),
        rcut=3.4,
        rcut_smooth=2.0,
        nmax=12,
    )


def _one_run(dataset, cfg, compiled: bool, steps: int, batch_size: int,
             warmup: int = 2):
    """One training run; returns (phase_times, loss_history, weights, opt)."""
    model = DeePMD.for_dataset(dataset, cfg, seed=1)
    opt = FEKF(
        model,
        KalmanConfig(blocksize=1024, fused_update=True),
        fused_env=False,
        reuse_force_graph=False,
        compiled=compiled,
        seed=11,
    )
    batch = make_batch(dataset, np.arange(batch_size), cfg)
    hist = []
    for _ in range(warmup):  # tracing + plan compilation land here
        hist.append(float(opt.step_batch(batch)["force_abe"]))
    with Tracer(keep_events=True) as tr:
        for _ in range(steps):
            hist.append(float(opt.step_batch(batch)["force_abe"]))
    return phase_span_times(tr.events), hist, model.params.flatten(), opt


def measure(dataset=None, cfg=None, steps: int = 6, batch_size: int = 2,
            repeats: int = 3) -> dict:
    """Measure eager vs compiled phase times (min over ``repeats``) and
    certify bit-identity.  Returns a flat result dict."""
    if dataset is None:
        dataset = generate_dataset(
            "Cu", frames_per_temperature=6, size="small",
            equilibration_steps=8, stride=2,
        )
    if cfg is None:
        cfg = bench_config()

    runs = {True: [], False: []}
    ref = {}
    stats = None
    for _ in range(repeats):
        for compiled in (False, True):
            phases, hist, weights, opt = _one_run(
                dataset, cfg, compiled, steps, batch_size
            )
            runs[compiled].append(phases)
            if compiled:
                stats = opt.stats()["compiled"]
            prev = ref.setdefault("hist", hist)
            if hist != prev or not np.array_equal(
                weights, ref.setdefault("weights", weights)
            ):
                raise AssertionError(
                    "eager and compiled trajectories diverged "
                    f"(compiled={compiled})"
                )

    def best(samples: list, phase: str) -> float:
        return min(s.get(phase, 0.0) for s in samples)

    phases = sorted(
        set().union(*(set(s) for s in runs[False] + runs[True]))
    )
    per_phase = {
        p: {"eager_s": best(runs[False], p), "compiled_s": best(runs[True], p)}
        for p in phases
    }
    hot_eager = sum(per_phase[p]["eager_s"] for p in HOT_PHASES if p in per_phase)
    hot_comp = sum(per_phase[p]["compiled_s"] for p in HOT_PHASES if p in per_phase)
    return {
        "phases": per_phase,
        "hot_eager_s": hot_eager,
        "hot_compiled_s": hot_comp,
        "hot_speedup": hot_eager / hot_comp if hot_comp else float("inf"),
        "bit_identical": True,  # measure() raised otherwise
        "steps": steps,
        "batch_size": batch_size,
        "repeats": repeats,
        "plan_stats": stats,
    }


def disabled_overhead(dataset=None, cfg=None, steps: int = 12,
                      batch_size: int = 4, repeats: int = 5) -> float:
    """Relative step-wall overhead of the (disabled) engine hooks: a
    plain eager run vs one where ``compiled=True`` but the engine stands
    down (both arms run ``cfg`` with ``type_aware=True``, which disables
    it), so every gradient call pays only the hook checks.  Must stay
    under the 5%% budget."""
    if dataset is None:
        dataset = generate_dataset(
            "Cu", frames_per_temperature=6, size="small",
            equilibration_steps=8, stride=2,
        )
    cfg = replace(cfg if cfg is not None else bench_config(), type_aware=True)

    def wall(compiled: bool) -> float:
        model = DeePMD.for_dataset(dataset, cfg, seed=1)
        opt = FEKF(model, KalmanConfig(blocksize=1024, fused_update=True),
                   fused_env=True, compiled=compiled, seed=11)
        batch = make_batch(dataset, np.arange(batch_size), cfg)
        opt.step_batch(batch)  # warm caches
        t0 = time.perf_counter()
        for _ in range(steps):
            opt.step_batch(batch)
        return time.perf_counter() - t0

    # interleave the arms so machine-load drift hits both equally; the
    # min is each arm's noise floor
    samples = [(wall(False), wall(True)) for _ in range(repeats)]
    off = min(s[0] for s in samples)
    hooked = min(s[1] for s in samples)
    return hooked / off - 1.0


def run(seed: int = 0, steps: int = 6, batch_size: int = 2,
        repeats: int = 3, bench_dir: "str | None" = None) -> Report:
    """The ``compile`` harness experiment."""
    del seed  # the run is deterministic by construction
    result = measure(steps=steps, batch_size=batch_size, repeats=repeats)
    report = Report(
        experiment="compile",
        title="Eager vs tape-compiled FEKF step, per phase",
        headers=["phase", "eager ms", "compiled ms", "speedup"],
        paper_reference="Sec. 5 Opt2 (kernel fusion) / Opt3 (P·g and "
                        "intermediate caching), Tables 4-5 phase split",
    )
    for phase, t in sorted(result["phases"].items()):
        spd = t["eager_s"] / t["compiled_s"] if t["compiled_s"] else float("inf")
        report.add_row(phase, t["eager_s"] * 1e3, t["compiled_s"] * 1e3,
                       f"{spd:.2f}x")
    report.add_row("hot (kf_update+forward_force)",
                   result["hot_eager_s"] * 1e3,
                   result["hot_compiled_s"] * 1e3,
                   f"{result['hot_speedup']:.2f}x")
    st = result["plan_stats"] or {}
    report.notes.append(
        "bit-identical loss history and final weights across both runs"
    )
    if st:
        plan = next(iter(st.get("plans", {}).values()), {})
        report.notes.append(
            f"plan: {plan.get('traced_ops', 0)} traced ops -> "
            f"{plan.get('steps', 0)} fused steps, "
            f"{st.get('replays', 0)} replays, {st.get('fallbacks', 0)} "
            f"fallbacks, compile {st.get('compile_time_s', 0.0) * 1e3:.1f} ms"
        )
    report.metrics = {
        "hot_speedup": result["hot_speedup"],
        "hot_eager_s": result["hot_eager_s"],
        "hot_compiled_s": result["hot_compiled_s"],
        "bit_identical": result["bit_identical"],
        "phases": result["phases"],
        "plan_stats": st,
    }
    if bench_dir:
        os.makedirs(bench_dir, exist_ok=True)
        path = write_manifest(
            bench_dir,
            "compile",
            config={"steps": steps, "batch_size": batch_size,
                    "repeats": repeats, "reuse_force_graph": False,
                    "fused_update": True, "blocksize": 1024},
            metrics=report.metrics,
        )
        report.notes.append(f"manifest: {path}")
    return report
