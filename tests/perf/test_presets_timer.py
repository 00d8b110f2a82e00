"""Optimization presets and the Figure 7 profiler."""

import numpy as np
import pytest

from repro.model import make_batch
from repro.optim import FEKF
from repro.perf import PRESET_ORDER, PRESETS, profile_update


class TestPresets:
    def test_four_levels_ordered(self):
        assert PRESET_ORDER == ["baseline", "opt1", "opt2", "opt3"]

    def test_monotone_feature_enablement(self):
        flags = [
            (p.fused_env, p.compiled, p.fused_p_update)
            for p in (PRESETS[n] for n in PRESET_ORDER)
        ]
        for a, b in zip(flags, flags[1:]):
            assert all(x <= y for x, y in zip(a, b))

    def test_opt2_is_opt1_plus_compiled(self):
        opt1, opt2 = PRESETS["opt1"], PRESETS["opt2"]
        assert opt2.fused_env and opt2.compiled and not opt1.compiled
        assert opt2.fused_p_update == opt1.fused_p_update

    def test_kalman_config_override(self):
        cfg = PRESETS["opt3"].kalman_config(blocksize=512)
        assert cfg.fused_update and cfg.blocksize == 512
        assert not PRESETS["opt1"].kalman_config().fused_update


class TestProfiler:
    @pytest.fixture()
    def profile_pair(self, cu_dataset, small_cfg, cu_model):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        out = {}
        for name in ("baseline", "opt3"):
            preset = PRESETS[name]
            opt = FEKF(cu_model, preset.kalman_config(blocksize=1024),
                       fused_env=preset.fused_env, compiled=preset.compiled)
            out[name] = profile_update(cu_model, opt, batch, preset)
        return out

    def test_kernel_counts_drop(self, profile_pair):
        base, opt3 = profile_pair["baseline"], profile_pair["opt3"]
        assert opt3.energy.total_kernels < base.energy.total_kernels
        assert opt3.force.total_kernels < base.force.total_kernels
        assert opt3.total_iteration_kernels() < base.total_iteration_kernels()

    def test_force_update_costs_more_than_energy(self, profile_pair):
        base = profile_pair["baseline"]
        assert base.force.total_kernels > base.energy.total_kernels

    def test_phase_totals_consistent(self, profile_pair):
        prof = profile_pair["baseline"]
        for phase in (prof.energy, prof.force):
            assert phase.total_s == pytest.approx(
                phase.forward_s + phase.gradient_s + phase.kalman_s
            )
            assert phase.total_kernels == (
                phase.forward_kernels + phase.gradient_kernels + phase.kalman_kernels
            )

    def test_iteration_convention(self, profile_pair):
        prof = profile_pair["baseline"]
        assert prof.total_iteration_kernels(4) == (
            prof.energy.total_kernels + 4 * prof.force.total_kernels
        )


class TestProfilerReconciliation:
    """The op-level profiler and the span-derived Figure 7(b) query are
    two views of the same launch stream; on a profiled FEKF step they
    must agree *exactly*, per preset."""

    @pytest.mark.parametrize("preset_name", ["baseline", "opt1", "opt2", "opt3"])
    def test_phase_counts_match_span_counts(
        self, cu_dataset, small_cfg, cu_model, preset_name
    ):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        # 32 Cu atoms / 4 splits: equal groups, so the 4 force updates are
        # identical and the single-update force profile scales exactly
        assert batch.n_atoms % 4 == 0
        preset = PRESETS[preset_name]
        opt = FEKF(cu_model, preset.kalman_config(blocksize=1024),
                   fused_env=preset.fused_env, compiled=preset.compiled)
        prof = profile_update(cu_model, opt, batch, preset)
        pk = prof.phase_kernels
        assert pk["forward_energy"] == prof.energy.forward_kernels
        assert pk["forward_force"] == 4 * prof.force.forward_kernels
        assert pk["backward"] == (
            prof.energy.gradient_kernels + 4 * prof.force.gradient_kernels
        )
        assert pk["kf_update"] == (
            prof.energy.kalman_kernels + 4 * prof.force.kalman_kernels
        )
        # nothing escaped phase attribution: the live totals equal the
        # paper's 1-energy + 4-force iteration count
        assert sum(pk.values()) == prof.total_iteration_kernels()
