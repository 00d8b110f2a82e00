"""The DeePMD network: embedding net, symmetry-preserving descriptor,
fitting net, total energy, and forces.

Pipeline (paper Sec. 2.1, Figure 2):

1. environment matrix R~_i (built in :mod:`.environment`);
2. embedding net G_i = G(s(r_i.)) -- tanh layer + two residual layers;
3. descriptor D_i = (R~_i^T G_i)^T (R~_i^T G_i^<), flattened to M*M<;
4. fitting net (tanh layer, two residual layers, linear head) -> E_i;
5. E_tot = sum_i E_i (+ per-species energy bias), F_i = -dE_tot/dr_i.

Optimization toggles mirror the paper's Figure 7 presets:

* ``fused_env`` -- hand-derived descriptor-environment kernel (Opt1);
* kernel fusion (Opt2) is the tape compiler's replay of these graphs
  (``FEKF(compiled=True)``, :mod:`repro.autograd.compile`);
* the optimizer-side fusions (Opt3) live in :mod:`repro.optim.kalman`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, grad, no_grad, ops
from ..data.source import FrameSource
from .config import DeePMDConfig
from .environment import (
    DescriptorBatch,
    EnvStats,
    compute_stats,
    environment_fused,
    environment_graph,
    identity_stats,
    make_batch,
)
from .params import ParamStore


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = x @ W + b."""
    return ops.add(ops.matmul(x, W), b)


def linear_tanh(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = tanh(x @ W + b)."""
    return ops.tanh(linear(x, W, b))


def residual_linear_tanh(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = x + tanh(x @ W + b) (DeePMD residual layer)."""
    return ops.add(x, linear_tanh(x, W, b))


@dataclass
class EnergyForces:
    """Raw-numpy prediction bundle."""

    energy: np.ndarray  # (B,)
    forces: Optional[np.ndarray]  # (B, N, 3)


class DeePMD:
    """Deep Potential model with the paper's architecture.

    Parameters
    ----------
    cfg:
        Architecture/descriptor hyperparameters.
    n_species:
        Number of element types in the system (energy-bias table size).
    stats:
        Environment normalization; pass the result of
        :func:`repro.model.environment.compute_stats` (or leave ``None``
        for identity, e.g. in unit tests).
    energy_bias:
        Per-species constant added to each atomic energy (non-trainable);
        typically the dataset mean energy per atom.
    """

    def __init__(
        self,
        cfg: DeePMDConfig,
        n_species: int = 1,
        stats: Optional[EnvStats] = None,
        energy_bias: Optional[np.ndarray] = None,
        seed: int = 0,
    ):
        self.cfg = cfg
        self.n_species = int(n_species)
        self.stats = stats if stats is not None else identity_stats()
        self.energy_bias = (
            np.zeros(self.n_species)
            if energy_bias is None
            else np.asarray(energy_bias, dtype=np.float64).reshape(self.n_species)
        )
        self.params = ParamStore()
        self._init_params(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _init_params(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        layer = 0

        def dense(name: str, n_in: int, n_out: int):
            nonlocal layer
            w = rng.normal(scale=1.0 / np.sqrt(n_in + n_out), size=(n_in, n_out))
            b = rng.normal(scale=0.01, size=(n_out,))
            self.params.add(f"{name}_W", w, layer)
            self.params.add(f"{name}_b", b, layer)
            layer += 1

        widths = self.cfg.embedding_widths
        emb_in = 1 + (self.n_species if self.cfg.type_aware else 0)
        dense("emb0", emb_in, widths[0])
        for i in range(1, len(widths)):
            dense(f"emb{i}", widths[i - 1], widths[i])
        d_in = self.cfg.descriptor_size
        fw = self.cfg.fitting_widths
        dense("fit0", d_in, fw[0])
        for i in range(1, len(fw)):
            dense(f"fit{i}", fw[i - 1], fw[i])
        dense("fit_out", fw[-1], 1)

    @classmethod
    def for_dataset(
        cls,
        dataset: FrameSource,
        cfg: Optional[DeePMDConfig] = None,
        seed: int = 0,
    ) -> "DeePMD":
        """Build a model with normalization stats and energy bias taken
        from the source (the standard construction path).  Any
        :class:`~repro.data.source.FrameSource` works -- stats sample a
        bounded number of frames, so an out-of-core store stays
        out-of-core."""
        if cfg is None:
            cfg = DeePMDConfig.paper()
        stats = compute_stats(dataset, cfg)
        e_mean, _ = dataset.energy_per_atom_stats()
        n_sp = max(dataset.n_species, 1)
        return cls(
            cfg,
            n_species=n_sp,
            stats=stats,
            energy_bias=np.full(n_sp, e_mean),
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return self.params.num_params

    def param_tensors(self) -> dict[str, Tensor]:
        """Fresh leaf tensors over the current parameter values."""
        return {
            name: Tensor(self.params[name], requires_grad=True)
            for name in self.params.names()
        }

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _net(self, prefix: str, x: Tensor, p: dict[str, Tensor], n_layers: int) -> Tensor:
        """tanh first layer then residual layers where widths allow."""
        h = linear_tanh(x, p[f"{prefix}0_W"], p[f"{prefix}0_b"])
        for i in range(1, n_layers):
            w = p[f"{prefix}{i}_W"]
            if w.shape[0] == w.shape[1]:
                h = residual_linear_tanh(h, w, p[f"{prefix}{i}_b"])
            else:
                h = linear_tanh(h, w, p[f"{prefix}{i}_b"])
        return h

    def energy_graph(
        self,
        coords: Tensor,
        batch: DescriptorBatch,
        p: Optional[dict[str, Tensor]] = None,
        fused_env: bool = False,
    ) -> Tensor:
        """Per-frame total energies (B,) as a differentiable graph."""
        if p is None:
            p = self.param_tensors()
        cfg = self.cfg
        b, n = batch.batch_size, batch.n_atoms
        env_fn = environment_fused if fused_env else environment_graph
        rn = env_fn(coords, batch, cfg, self.stats)  # (B, N, Nm, 4)
        sn = rn[..., 0:1]  # radial column feeds the embedding
        if cfg.type_aware:
            # s(r) * [1, onehot(neighbor type)]: the species channels are
            # constants, so this is a single broadcasting multiply
            neigh_types = batch.species[batch.idx_flat % n]  # (B, N, Nm)
            chan = np.zeros((b, n, batch.nmax, 1 + self.n_species))
            chan[..., 0] = 1.0
            np.put_along_axis(
                chan[..., 1:], neigh_types[..., None], 1.0, axis=-1
            )
            sn = ops.mul(sn, Tensor(chan))
        g = self._net("emb", sn, p, len(cfg.embedding_widths))  # (B,N,Nm,M)
        x = ops.matmul(ops.swapaxes(rn, -1, -2), g)  # (B, N, 4, M)
        x = ops.mul(x, 1.0 / cfg.nmax)
        x_less = x[..., : cfg.m_less]
        d = ops.matmul(ops.swapaxes(x, -1, -2), x_less)  # (B, N, M, M<)
        d = ops.reshape(d, (b, n, cfg.descriptor_size))
        h = self._net("fit", d, p, len(cfg.fitting_widths))
        e_atom = linear(h, p["fit_out_W"], p["fit_out_b"])  # (B, N, 1)
        bias = Tensor(self.energy_bias[batch.species][None, :, None])
        e_atom = ops.add(e_atom, bias)
        return ops.tsum(ops.reshape(e_atom, (b, n)), axis=1)

    # ------------------------------------------------------------------
    # prediction APIs (numpy in / numpy out)
    # ------------------------------------------------------------------
    def predict_energy(self, batch: DescriptorBatch, fused_env: bool = True) -> np.ndarray:
        """Total energies without force evaluation (inference path)."""
        with no_grad():
            e = self.energy_graph(Tensor(batch.coords), batch, fused_env=fused_env)
        return e.data

    def predict(
        self, batch: DescriptorBatch, fused_env: bool = False
    ) -> EnergyForces:
        """Energies and forces; forces via backward through the graph
        (``fused_env=True`` switches to the hand-derived Opt1 kernel)."""
        coords = Tensor(batch.coords, requires_grad=True)
        e = self.energy_graph(coords, batch, fused_env=fused_env)
        (gc,) = grad(ops.tsum(e), [coords])
        return EnergyForces(energy=e.data, forces=-gc.data)

    def evaluate_rmse(
        self, dataset: FrameSource, max_frames: int = 128, fused_env: bool = True
    ) -> dict[str, float]:
        """Energy (per atom) and force RMSE over (a sample of) a source."""
        take = np.arange(dataset.n_frames)
        if dataset.n_frames > max_frames:
            take = np.linspace(0, dataset.n_frames - 1, max_frames).astype(int)
        batch = make_batch(dataset, take, self.cfg)
        pred = self.predict(batch, fused_env=fused_env)
        n = dataset.n_atoms
        e_rmse = float(
            np.sqrt(np.mean(((pred.energy - batch.energies) / n) ** 2))
        )
        f_rmse = float(np.sqrt(np.mean((pred.forces - batch.forces) ** 2)))
        return {"energy_rmse": e_rmse, "force_rmse": f_rmse, "total_rmse": e_rmse + f_rmse}

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """All trainable parameters plus the non-trainable constants the
        predictions depend on (energy bias and environment normalization)."""
        out = {name: self.params[name].copy() for name in self.params.names()}
        out["__energy_bias__"] = self.energy_bias.copy()
        out["__davg__"] = self.stats.davg.copy()
        out["__dstd__"] = self.stats.dstd.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name in self.params.names():
            self.params[name] = state[name]
        if "__energy_bias__" in state:
            self.energy_bias = np.asarray(state["__energy_bias__"])
        if "__davg__" in state:
            self.stats = EnvStats(
                davg=np.asarray(state["__davg__"]),
                dstd=np.asarray(state["__dstd__"]),
            )
