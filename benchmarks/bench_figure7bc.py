"""Figure 7(b)/(c) bench -- kernel counts and iteration time per preset.

Benchmarks the (1 energy + 4 force)-update iteration under each
optimization preset and asserts the kernel-count reductions the paper
reports (baseline -> opt3 cuts launches by half or more).
"""

import numpy as np
import pytest

from repro.model import make_batch
from repro.optim import FEKF
from repro.perf import PRESETS, profile_update


@pytest.fixture(scope="module")
def batch64(cu_data, cfg):
    idx = np.arange(min(64, cu_data.n_frames))
    return make_batch(cu_data, idx, cfg)


@pytest.mark.parametrize("preset_name", ["baseline", "opt1", "opt2", "opt3"])
def test_iteration_time_per_preset(benchmark, model, batch64, preset_name):
    preset = PRESETS[preset_name]
    opt = FEKF(model, preset.kalman_config(blocksize=2048),
               fused_env=preset.fused_env, compiled=preset.compiled)

    def iteration():
        return opt.step_batch(batch64)

    stats = benchmark(iteration)
    assert stats["updates"] > 0


def test_kernel_counts_fall_with_presets(model, batch64):
    counts = {}
    for name in ("baseline", "opt1", "opt2", "opt3"):
        preset = PRESETS[name]
        opt = FEKF(model, preset.kalman_config(blocksize=2048),
                   fused_env=preset.fused_env, compiled=preset.compiled)
        prof = profile_update(model, opt, batch64, preset)
        counts[name] = prof.total_iteration_kernels()
        if preset.compiled:
            assert opt.stats()["compiled"]["fallbacks"] == 0
    assert counts["opt1"] < counts["baseline"]
    assert counts["opt2"] < counts["opt1"]
    assert counts["opt3"] < counts["opt2"]
    # paper: -64% overall; we require at least -40%
    assert counts["opt3"] < 0.6 * counts["baseline"]
