"""Environment matrix construction (the descriptor input R~).

For each atom i the smoothed neighbor matrix R~_i has one row per neighbor
slot: ``s(r) * (1, x/r, y/r, z/r)`` (paper Sec. 2.1 step 1).  Rows are
normalized with dataset statistics (davg/dstd) and padded slots are zeroed
*after* normalization so they contribute exactly nothing downstream.

Two implementations, validated against each other in the tests:

* :func:`environment_graph` -- composed from autograd primitives; forces
  come out of plain backward.  This is the "Autograd API" baseline of the
  paper's Figure 7.
* :func:`environment_fused` -- a single hand-derived kernel (the paper's
  Opt1 "customized kernel of the symmetry-preserving descriptor").  Its
  backward (d/dcoords given dE/dR~n) and the transpose of that linear map
  (needed when force predictions are differentiated w.r.t. the weights in
  EKF updates) are both written out analytically, so double backward along
  the weight direction stays exact.  All three ops carry replay kernels in
  their ``attrs``, so the tape compiler (:mod:`repro.autograd.compile`)
  replays them as opaque plan steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ..autograd import Tensor, make_op, ops
from ..autograd.instrument import register_op
from ..data.source import FrameSource
from .config import DeePMDConfig
from .smooth import smooth_graph, smooth_np

# the hand-derived Opt1 descriptor kernels: the vjp and its adjoint are
# mutually-transposed linear maps, so derivatives of any order along the
# weight direction are exact (see _make_env_linear_ops)
for _name in ("env_fused", "env_bwd_fused", "env_bwd_transpose_fused"):
    register_op(_name, kind="fused")
del _name


@dataclass
class DescriptorBatch:
    """Batched, training-ready inputs for ``B`` frames of one system.

    ``idx_flat`` indexes into the (B*N, 3) flattened coordinate array so a
    single gather fetches every neighbor; ``shift`` holds the constant
    periodic translations; ``mask`` marks real neighbor slots.
    """

    coords: np.ndarray  # (B, N, 3)
    idx_flat: np.ndarray  # (B, N, Nm) int64 into flattened (B*N)
    shift: np.ndarray  # (B, N, Nm, 3)
    mask: np.ndarray  # (B, N, Nm) bool
    species: np.ndarray  # (N,)
    energies: Optional[np.ndarray] = None  # (B,)
    forces: Optional[np.ndarray] = None  # (B, N, 3)

    @property
    def batch_size(self) -> int:
        return self.coords.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[1]

    @property
    def nmax(self) -> int:
        return self.idx_flat.shape[2]

    def frame_slice(self, lo: int, hi: int) -> "DescriptorBatch":
        """A view of frames [lo, hi) with neighbor indices rebased so the
        sub-batch is self-contained (used for per-rank shards and the
        per-sample Naive-EKF loop)."""
        sel = slice(lo, hi)
        return DescriptorBatch(
            coords=self.coords[sel],
            idx_flat=self.idx_flat[sel] - lo * self.n_atoms,
            shift=self.shift[sel],
            mask=self.mask[sel],
            species=self.species,
            energies=None if self.energies is None else self.energies[sel],
            forces=None if self.forces is None else self.forces[sel],
        )


def make_batch(
    source: FrameSource, indices: np.ndarray, cfg: DeePMDConfig
) -> DescriptorBatch:
    """Assemble a :class:`DescriptorBatch` for the given frame indices.

    ``source`` is any :class:`~repro.data.source.FrameSource` -- the
    in-memory dataset serves views of its cached tables, an out-of-core
    store reads exactly these frames; both produce bit-identical batches
    for equal frames (same neighbor kernel, same packing)."""
    indices = np.asarray(indices, dtype=np.int64)
    nb = source.neighbor_tables(indices, cfg.rcut, cfg.nmax)
    frames = source.get_frames(indices)
    b = len(indices)
    n = source.n_atoms
    frame_offset = (np.arange(b) * n)[:, None, None]
    return DescriptorBatch(
        coords=frames.positions,
        idx_flat=nb.idx + frame_offset,  # (B, N, Nm) within-frame -> flat
        shift=nb.shift,
        mask=nb.mask,
        species=source.species,
        energies=frames.energies,
        forces=frames.forces,
    )


@dataclass(frozen=True)
class EnvStats:
    """Per-column normalization of R~ (davg subtracted, dstd divided)."""

    davg: np.ndarray  # (4,)
    dstd: np.ndarray  # (4,)


def compute_stats(source: FrameSource, cfg: DeePMDConfig, max_frames: int = 32) -> EnvStats:
    """Source davg/dstd of the raw R~ columns over real neighbor slots.

    Follows the DeePMD convention: the three angular columns share the
    radial column's scale and are not shifted (their mean vanishes by
    symmetry), which keeps normalization rotation-equivariant.  Reads at
    most ``max_frames`` frames, so an out-of-core source never has to
    materialize its corpus.
    """
    take = np.linspace(0, source.n_frames - 1, min(max_frames, source.n_frames)).astype(int)
    batch = make_batch(source, take, cfg)
    env = _env_intermediates(batch.coords, batch, cfg)
    m = batch.mask
    s = env.s[m]
    sv = (env.s[..., None] * env.rhat)[m]
    davg0 = float(s.mean()) if s.size else 0.0
    std0 = float(s.std()) + 1e-8
    stdv = float(sv.std()) + 1e-8
    davg = np.array([davg0, 0.0, 0.0, 0.0])
    dstd = np.array([std0, stdv, stdv, stdv])
    return EnvStats(davg=davg, dstd=dstd)


def identity_stats() -> EnvStats:
    """No-op normalization (used by unit tests)."""
    return EnvStats(davg=np.zeros(4), dstd=np.ones(4))


# ---------------------------------------------------------------------------
# shared raw-numpy geometry
# ---------------------------------------------------------------------------
@dataclass
class EnvIntermediates:
    """Raw-numpy geometric quantities reused by fused kernels."""

    rij: np.ndarray  # (B, N, Nm, 3)
    r: np.ndarray  # (B, N, Nm), 0 on padded slots
    rhat: np.ndarray  # (B, N, Nm, 3), 0 on padded slots
    s: np.ndarray  # (B, N, Nm), 0 outside cutoff / padding
    ds: np.ndarray  # (B, N, Nm)


def _env_intermediates(
    coords: np.ndarray, batch: DescriptorBatch, cfg: DeePMDConfig
) -> EnvIntermediates:
    b, n, _ = coords.shape
    flat = coords.reshape(b * n, 3)
    neigh = flat[batch.idx_flat] + batch.shift
    rij = neigh - coords[:, :, None, :]
    r = np.linalg.norm(rij, axis=-1)
    r = np.where(batch.mask, r, 0.0)
    r_safe = np.where(r > 0, r, 1.0)
    rhat = np.where(batch.mask[..., None], rij / r_safe[..., None], 0.0)
    s, ds = smooth_np(r, cfg.rcut_smooth, cfg.rcut)
    s = np.where(batch.mask, s, 0.0)
    ds = np.where(batch.mask, ds, 0.0)
    return EnvIntermediates(rij=rij, r=r, rhat=rhat, s=s, ds=ds)


def environment_np(
    coords: np.ndarray, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> tuple[np.ndarray, EnvIntermediates]:
    """Raw-numpy normalized environment matrix (B, N, Nm, 4) + caches."""
    env = _env_intermediates(coords, batch, cfg)
    raw = np.concatenate(
        [env.s[..., None], env.s[..., None] * env.rhat], axis=-1
    )
    rn = (raw - stats.davg) / stats.dstd
    rn = np.where(batch.mask[..., None], rn, 0.0)
    return rn, env


# ---------------------------------------------------------------------------
# graph (baseline) implementation
# ---------------------------------------------------------------------------
def environment_graph(
    coords: Tensor, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> Tensor:
    """R~n built from autograd primitives (forces via plain backward)."""
    b, n, _ = coords.shape
    nm = batch.nmax
    flat = ops.reshape(coords, (b * n, 3))
    neigh = ops.index(flat, batch.idx_flat)  # (B, N, Nm, 3)
    center = ops.reshape(coords, (b, n, 1, 3))
    rij = ops.sub(ops.add(neigh, Tensor(batch.shift)), center)
    r2 = ops.tsum(ops.mul(rij, rij), axis=-1)
    r2_safe = ops.where(batch.mask, r2, ops.ones_like(r2))
    r = ops.sqrt(r2_safe)
    s = smooth_graph(r, cfg.rcut_smooth, cfg.rcut, batch.mask)
    s4 = ops.reshape(s, (b, n, nm, 1))
    r4 = ops.reshape(r, (b, n, nm, 1))
    rhat = ops.div(rij, r4)
    raw = ops.concat([s4, ops.mul(s4, rhat)], axis=-1)
    rn = ops.div(ops.sub(raw, Tensor(stats.davg)), Tensor(stats.dstd))
    return ops.where(batch.mask[..., None], rn, ops.zeros_like(rn))


# ---------------------------------------------------------------------------
# fused (Opt1) implementation with hand-derived backward
# ---------------------------------------------------------------------------
def _env_vjp(
    g_rn: np.ndarray, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> np.ndarray:
    """d(sum(R~n * g_rn))/d(coords): the hand-derived Opt1 kernel.

    grij = ds*(g0 + gv.rhat)*rhat + (s/r)*(gv - (gv.rhat)*rhat), scattered
    with -grij on the center atom and +grij on the neighbor.
    """
    g = np.where(batch.mask[..., None], g_rn / stats.dstd, 0.0)
    g0 = g[..., 0]
    gv = g[..., 1:4]
    gv_dot = np.sum(gv * env.rhat, axis=-1)
    r_safe = np.where(env.r > 0, env.r, 1.0)
    radial = env.ds * (g0 + gv_dot)
    grij = radial[..., None] * env.rhat + (env.s / r_safe)[..., None] * (
        gv - gv_dot[..., None] * env.rhat
    )
    grij = np.where(batch.mask[..., None], grij, 0.0)
    b, n = env.r.shape[:2]
    gcoords = -grij.sum(axis=2)  # center contribution
    flat = np.zeros((b * n, 3))
    np.add.at(flat, batch.idx_flat.reshape(-1), grij.reshape(-1, 3))
    return gcoords + flat.reshape(b, n, 3)


def _env_vjp_transpose(
    gg: np.ndarray, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> np.ndarray:
    """Transpose of :func:`_env_vjp` as a linear map: given an upstream
    gradient on coords-gradients, produce the gradient on g_rn.  Needed
    when force predictions are differentiated w.r.t. the weights."""
    b, n = env.r.shape[:2]
    flat = gg.reshape(b * n, 3)
    delta = flat[batch.idx_flat] - gg[:, :, None, :]  # (B, N, Nm, 3)
    d_dot = np.sum(delta * env.rhat, axis=-1)
    r_safe = np.where(env.r > 0, env.r, 1.0)
    out = np.empty(env.rij.shape[:3] + (4,))
    out[..., 0] = env.ds * d_dot
    out[..., 1:4] = (env.ds * d_dot)[..., None] * env.rhat + (env.s / r_safe)[
        ..., None
    ] * (delta - d_dot[..., None] * env.rhat)
    out = np.where(batch.mask[..., None], out / stats.dstd, 0.0)
    return out


def _replay_env(ins, arrays, state, cfg, species, stats):
    """Tape-compiler replay of ``env_fused``: the same numpy on the
    bound coords/batch feeds.  Leaves the intermediates in ``state`` for
    the vjp pair of this forward (computed once per replayed forward)."""
    coords = ins[0]
    batch = DescriptorBatch(coords=coords, species=species, **arrays)
    rn, env = environment_np(coords, batch, cfg, stats)
    state["env"], state["batch"] = env, batch
    return rn


def _replay_vjp(ins, arrays, state, stats):
    return _env_vjp(ins[0], state["env"], state["batch"], stats)


def _replay_vjp_transpose(ins, arrays, state, stats):
    return _env_vjp_transpose(ins[0], state["env"], state["batch"], stats)


def _make_env_linear_ops(env, batch, stats):
    """Mutually-transposed primitives: vjp(g_rn)->gcoords and its adjoint.

    Because the map is linear with weight-independent coefficients, each
    op's backward is exactly the other op, giving correct derivatives of
    any order along the weight direction.  Both ops carry replay kernels
    linked to their forward's intermediates (``link=env``), so the tape
    compiler replays them as opaque plan steps."""
    vjp_attrs = {"replay": partial(_replay_vjp, stats=stats), "link": env}
    adjoint_attrs = {
        "replay": partial(_replay_vjp_transpose, stats=stats), "link": env,
    }

    def vjp_op(g_rn: Tensor) -> Tensor:
        out = _env_vjp(g_rn.data, env, batch, stats)

        def backward(g: Tensor):
            return (adjoint_op(g),)

        return make_op(out, (g_rn,), backward, "env_bwd_fused", attrs=vjp_attrs)

    def adjoint_op(gg: Tensor) -> Tensor:
        out = _env_vjp_transpose(gg.data, env, batch, stats)

        def backward(g: Tensor):
            return (vjp_op(g),)

        return make_op(
            out, (gg,), backward, "env_bwd_transpose_fused", attrs=adjoint_attrs
        )

    return vjp_op, adjoint_op


def environment_fused(
    coords: Tensor, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> Tensor:
    """R~n as a single fused kernel with hand-derived backward (Opt1)."""
    rn, env = environment_np(coords.data, batch, cfg, stats)
    vjp_op, _ = _make_env_linear_ops(env, batch, stats)

    def backward(g_rn: Tensor):
        return (vjp_op(g_rn),)

    attrs = {
        "replay": partial(
            _replay_env, cfg=cfg, species=batch.species, stats=stats
        ),
        "arrays": {
            "idx_flat": batch.idx_flat, "shift": batch.shift, "mask": batch.mask,
        },
        "link": env,
        "owner": True,
    }
    return make_op(rn, (coords,), backward, "env_fused", attrs=attrs)
