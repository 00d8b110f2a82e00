"""Figure 7 -- end-to-end times (a), kernel counts (b), iteration time (c).

(a) trains each system with Adam bs1, RLEKF bs1, FEKF bs32 (baseline
    kernels) and FEKF bs32 fully optimized (opt3 preset), all to the same
    total-RMSE target, and reports wall seconds + speedups over RLEKF.
(b) counts kernel launches of one energy-driven and one force-driven FEKF
    update under each optimization preset.
(c) reports the forward / gradient / Kalman phase times per iteration
    (1 energy + 4 force updates) under each preset.
"""

from __future__ import annotations

import numpy as np

from ..model.environment import make_batch
from ..optim.ekf import FEKF, RLEKF
from ..optim.kalman import KalmanConfig
from ..perf.presets import PRESET_ORDER, PRESETS
from ..perf.timer import profile_update
from ..train.trainer import TargetCriterion, Trainer
from .common import Report, experiment_setup, fast_kalman, parse_systems, scaled_adam


def run_7a(
    systems: str | None = None,
    batch_size: int = 32,
    adam_epochs: int = 40,
    ekf_epochs: int = 16,
    frames_per_temperature: int = 48,
    target_slack: float = 1.05,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Figure 7(a)",
        title="end-to-end training wall time to equal accuracy",
        headers=[
            "System",
            "target RMSE",
            "Adam bs1 (s)",
            "RLEKF bs1 (s)",
            "FEKF bs32 (s)",
            "FEKF opt (s)",
            "FEKF/RLEKF",
            "opt extra",
            "per-pass FEKF/RLEKF",
            "per-pass opt",
        ],
        paper_reference="Fig 7a: FEKF/RLEKF avg 11.6x; system opts avg 3.25x more",
    )
    for system in parse_systems(systems):
        setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)

        # establish the common accuracy target with an optimized FEKF probe
        probe = setup.model(seed=1)
        probe_opt = FEKF(probe, fast_kalman(), fused_env=True, seed=seed)
        probe_res = Trainer(
            probe, probe_opt, setup.train, setup.test, batch_size=batch_size, seed=seed
        ).run(max_epochs=ekf_epochs)
        target = probe_res.best_total("train") * target_slack
        criterion = TargetCriterion(target, metric="total")

        def time_to_target(optimizer_factory, bs: int, max_epochs: int) -> tuple[str, float, float]:
            """(tag, seconds-to-target, seconds-per-data-pass)."""
            model = setup.model(seed=1)
            opt = optimizer_factory(model)
            res = Trainer(
                model, opt, setup.train, setup.test, batch_size=bs, seed=seed
            ).run(max_epochs=max_epochs, target=criterion)
            # pure optimizer time; per-epoch evaluation overhead (an
            # artifact of our tiny datasets) is excluded
            t = res.wall_time_to_target if res.converged else res.total_train_time
            per_pass = res.total_train_time / res.history[-1].epoch
            tag = f"{t:.1f}" + ("" if res.converged else "+")
            return tag, t, per_pass

        kalman_naive = KalmanConfig(blocksize=2048, fused_update=False)
        t_adam, _, _ = time_to_target(
            lambda m: scaled_adam(m, setup.train.n_frames, adam_epochs), 1, adam_epochs
        )
        t_rlekf, v_rlekf, pass_rlekf = time_to_target(
            lambda m: RLEKF(m, kalman_naive, fused_env=False, seed=seed), 1, ekf_epochs
        )
        t_fekf, v_fekf, pass_fekf = time_to_target(
            lambda m: FEKF(m, kalman_naive, fused_env=False, seed=seed),
            batch_size,
            ekf_epochs,
        )
        t_opt, v_opt, pass_opt = time_to_target(
            lambda m: FEKF(
                m, fast_kalman(), fused_env=True, seed=seed
            ),
            batch_size,
            ekf_epochs,
        )
        report.add_row(
            system,
            f"{target:.4f}",
            t_adam,
            t_rlekf,
            t_fekf,
            t_opt,
            f"{v_rlekf / max(v_fekf, 1e-9):.1f}x",
            f"{v_fekf / max(v_opt, 1e-9):.1f}x",
            f"{pass_rlekf / max(pass_fekf, 1e-9):.1f}x",
            f"{pass_rlekf / max(pass_opt, 1e-9):.1f}x",
        )
    report.notes.append("+ = target not reached within the epoch budget (time is a lower bound)")
    report.notes.append(
        "per-pass columns compare seconds per full pass over the training "
        "data; at the paper's data volume (100-500x ours) epochs-to-target "
        "equalize across the EKF variants and the per-pass ratio is what "
        "the end-to-end speedup converges to (see EXPERIMENTS.md)"
    )
    return report


def _profile_all(system: str, batch_size: int, frames_per_temperature: int, seed: int):
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    model = setup.model(seed=1)
    idx = np.arange(min(batch_size, setup.train.n_frames))
    batch = make_batch(setup.train, idx, setup.cfg)
    profiles = []
    for name in PRESET_ORDER:
        preset = PRESETS[name]
        opt = FEKF(
            model,
            preset.kalman_config(blocksize=2048),
            fused_env=preset.fused_env,
            compiled=preset.compiled,
            seed=seed,
        )
        # warm-up once so timings exclude first-touch costs
        profile_update(model, opt, batch, preset)
        profiles.append(profile_update(model, opt, batch, preset))
    return profiles


def run_7b(
    system: str = "Cu",
    batch_size: int = 64,
    frames_per_temperature: int = 32,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Figure 7(b)",
        title=f"CUDA-kernel-launch analog: op launches per update ({system}, bs {batch_size})",
        headers=["preset", "energy update", "force update", "iteration (1E+4F)", "vs baseline"],
        paper_reference="Fig 7b: 397->174 (energy), 846->281 (force), -64% overall",
    )
    profiles = _profile_all(system, batch_size, frames_per_temperature, seed)
    base = profiles[0].total_iteration_kernels()
    for prof in profiles:
        total = prof.total_iteration_kernels()
        report.add_row(
            prof.preset,
            prof.energy.total_kernels,
            prof.force.total_kernels,
            total,
            f"{100.0 * (1 - total / base):.0f}% fewer" if prof.preset != "baseline" else "-",
        )
    return report


def run_7c(
    system: str = "Cu",
    batch_size: int = 64,
    frames_per_temperature: int = 32,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Figure 7(c)",
        title=f"iteration time by phase ({system}, bs {batch_size})",
        headers=[
            "preset",
            "forward (ms)",
            "gradient (ms)",
            "KF update (ms)",
            "iteration (ms)",
            "speedup",
        ],
        paper_reference="Fig 7c: 3.48x faster iteration after all optimizations",
    )
    profiles = _profile_all(system, batch_size, frames_per_temperature, seed)
    base = profiles[0].total_iteration_s()
    for prof in profiles:
        fwd = (prof.energy.forward_s + 4 * prof.force.forward_s) * 1e3
        grd = (prof.energy.gradient_s + 4 * prof.force.gradient_s) * 1e3
        kf = (prof.energy.kalman_s + 4 * prof.force.kalman_s) * 1e3
        total = prof.total_iteration_s()
        report.add_row(
            prof.preset,
            f"{fwd:.1f}",
            f"{grd:.1f}",
            f"{kf:.1f}",
            f"{total * 1e3:.1f}",
            f"{base / total:.2f}x",
        )
    return report
