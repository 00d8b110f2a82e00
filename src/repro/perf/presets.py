"""The step-by-step optimization presets of Figure 7.

===========  ======================================================
preset       enables
===========  ======================================================
baseline     eager primitives everywhere, framework-style P update
opt1         + hand-derived descriptor/environment kernel
             (``fused_env``, the paper's "substitute Autograd with
             handwritten kernels")
opt2         + tape-compiled step replay (``compiled``, the
             ``torch.compile`` analog: fused elementwise chains,
             preallocated buffers, the Opt1 kernel as an opaque step)
opt3         + fused P-update kernel with cached P g reuse
===========  ======================================================

The boolean fields parameterize model/optimizer construction, e.g.
``FEKF(model, p.kalman_config(), fused_env=p.fused_env,
compiled=p.compiled)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..optim.kalman import KalmanConfig


@dataclass(frozen=True)
class Preset:
    """One optimization level."""

    name: str
    fused_env: bool
    compiled: bool
    fused_p_update: bool

    def kalman_config(self, **overrides) -> KalmanConfig:
        cfg = KalmanConfig(fused_update=self.fused_p_update)
        for k, v in overrides.items():
            setattr(cfg, k, v)
        return cfg


BASELINE = Preset("baseline", fused_env=False, compiled=False, fused_p_update=False)
OPT1 = Preset("opt1", fused_env=True, compiled=False, fused_p_update=False)
OPT2 = Preset("opt2", fused_env=True, compiled=True, fused_p_update=False)
OPT3 = Preset("opt3", fused_env=True, compiled=True, fused_p_update=True)

PRESETS: dict[str, Preset] = {p.name: p for p in (BASELINE, OPT1, OPT2, OPT3)}
PRESET_ORDER = ["baseline", "opt1", "opt2", "opt3"]
