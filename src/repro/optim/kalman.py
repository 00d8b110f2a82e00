"""The shared Kalman-filter core used by RLEKF, Naive-EKF and FEKF.

Implements Algorithm 1 of the paper over a block-diagonal P:

    A  = 1 / (lambda + g^T P g)
    K  = A * P g
    P <- (P - A * (Pg)(Pg)^T) / lambda,  symmetrized
    lambda <- lambda * nu + 1 - nu
    w <- w + scale * ABE * K

Two P-update kernels are provided, mirroring the paper's Opt3 ("rewrite P
updating" + "cache intermediate results"):

* ``naive``  -- one dense temporary per algebraic step, exactly how a
  framework-level implementation (``torch.matmul``/``torch.outer``)
  executes it; every step records a kernel launch and allocates an
  N_b x N_b temporary -- the memory behaviour Sec. 5.3 attributes to the
  PyTorch implementation.
* ``fused``  -- the handwritten-kernel analog: the cached P g product is
  reused for K (and for A), the rank-1 downdate runs in-place on a single
  triangle via BLAS ``dsyr`` (symmetry by construction, no explicit
  symmetrization pass), and the 1/lambda rescaling is *folded into a
  scalar* carried next to the block, so no full-matrix pass happens at
  all.  One kernel launch, ~20x faster at the paper's blocksize, and
  numerically identical to the naive kernel (pinned by the tests).

Both kernels run block-parallel.  With the block-diagonal P of RLEKF the
blocks are independent apart from the scalar gain, so one process-wide
:class:`BlockPool` shards them (longest-processing-time balance, see
:func:`~repro.optim.blocks.shard_blocks`) and every block is updated by
exactly one thread with single-threaded BLAS (:mod:`repro.optim.blas`
pins the libraries and binds GIL-free kernels).  The result is therefore
bit-identical for any pool size and any core count.

Scale-stabilization (documented deviations, see DESIGN.md): the 1/lambda
forgetting inflates P exponentially along directions the data never
excites ("covariance wind-up").  At the paper's scale -- tens of thousands
of updates per epoch over rich datasets -- excitation is persistent and
this is harmless; at laptop-scale datasets it is not, so the core applies
two standard RLS/EKF safeguards: a cap on the mean diagonal of each P
block and a trust-region clip on each weight increment.  Both default on
and can be disabled (``inf``) to recover the unguarded Algorithm 1.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..autograd.instrument import record_launch, register_op
from ..telemetry import metrics as _metrics
from . import blas as _blas_runtime
from .blocks import Block, shard_blocks, split_blocks

# the Kalman-core kernels live outside the autograd graph (plain BLAS on
# P); registered so the launch accounting and the project lint know them
for _name in (
    "p_symv_fused", "p_gemv", "p_update_fused", "k_scale", "kkT_outer",
    "p_sub", "p_scale", "p_symmetrize",
):
    register_op(_name, kind="optim", second_order=False)
del _name


class BlockPool:
    """Runs one function over shards of block indices, one thread each.

    The calling thread runs the first shard itself and ``size - 1``
    worker threads run the rest, so ``size=1`` is the plain serial loop.
    The workers start on first use and again in a forked child (a fork
    copies the executor but not its threads).  Tasks never submit to the
    pool, so concurrent callers (``NaiveEKF`` replicas, a verifying
    shadow state) only queue behind each other.
    """

    def __init__(self, size: int):
        self.size = max(1, int(size))
        self._executor = None
        self._pid = None
        self._lock = threading.Lock()

    def _workers(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pid != os.getpid():
                self._executor = ThreadPoolExecutor(
                    self.size - 1, thread_name_prefix="kalman-block")
                self._pid = os.getpid()
            return self._executor

    def run(self, fn, shards: list[list[int]]) -> None:
        """``fn(shard)`` for every shard; waits for all of them, then
        re-raises the first exception in shard order unchanged."""
        futures = [self._workers().submit(fn, s) for s in shards[1:]]
        errors = []
        try:
            fn(shards[0])
        except BaseException as exc:  # re-raised once the others finish
            errors.append(exc)
        errors.extend(e for e in (f.exception() for f in futures) if e is not None)
        if errors:
            raise errors[0]


def _affinity_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: the process's block pool, one thread per CPU this process may run on
_POOL = BlockPool(_affinity_cpus())
#: the serial fallback when the BLAS could not be pinned or bound
_SERIAL = BlockPool(1)


def runtime_info() -> dict:
    """What sets the Kalman core's bits and speed in this process: the
    thread count of every BLAS library, the block-pool size and, when
    the blocks run serially, why."""
    runtime = _blas_runtime.RUNTIME
    return {
        "blas_threads": dict(runtime.threads),
        "pool_size": _POOL.size if runtime.fallback is None else 1,
        "fallback_reason": runtime.fallback,
    }


@dataclass
class KalmanConfig:
    """Hyperparameters of the Kalman core (paper Sec. 3.2 defaults)."""

    lambda0: float = 0.98
    nu: float = 0.9987
    blocksize: int = 10240
    #: per-block scalar gains (RLEKF layerwise behaviour) vs one coupled
    #: global gain across blocks (the literal Algorithm 1 reading).
    coupled_gain: bool = False
    #: use the fused triangular-BLAS P update kernel (paper Opt3).
    fused_update: bool = False
    #: anti-windup bound on mean(diag(P_i)); ``inf`` disables.
    p_trace_cap: float = 2.0
    #: trust-region clip on |dw| per update; ``inf`` disables.
    max_step_norm: float = 0.1

    @staticmethod
    def for_batch_size(batch_size: int, **overrides) -> "KalmanConfig":
        """The paper's tuning guidance: lambda0=0.98/nu=0.9987 by default,
        lambda0=0.90/nu=0.996 once the batch size exceeds 1024."""
        if batch_size > 1024:
            base = KalmanConfig(lambda0=0.90, nu=0.996)
        else:
            base = KalmanConfig()
        for k, v in overrides.items():
            setattr(base, k, v)
        return base


class KalmanState:
    """Block-diagonal P, the memory factor lambda, and update kernels.

    Internally each block is stored as a full square array.  The naive
    backend keeps it dense-symmetric; the fused backend uses only the
    upper triangle (Fortran order for BLAS) plus a folded scalar
    ``p_scale`` absorbing the accumulated 1/lambda factors.
    """

    def __init__(self, num_params: int, layer_sizes: list[tuple[int, int]], cfg: KalmanConfig):
        self.cfg = cfg
        self.num_params = num_params
        self.blocks: list[Block] = split_blocks(layer_sizes, cfg.blocksize)
        total = sum(b.size for b in self.blocks)
        if total != num_params:
            raise ValueError(f"blocks cover {total} of {num_params} weights")
        order = "F" if cfg.fused_update else "C"
        self.p_mats: list[np.ndarray] = [
            np.eye(b.size, order=order) for b in self.blocks
        ]
        self.p_scales: list[float] = [1.0 for _ in self.blocks]
        self.lam = float(cfg.lambda0)
        self.updates = 0

    # ------------------------------------------------------------------
    def p_memory_bytes(self) -> int:
        return sum(p.nbytes for p in self.p_mats)

    def advance_lambda(self) -> None:
        self.lam = self.lam * self.cfg.nu + 1.0 - self.cfg.nu

    def p_dense(self, i: int) -> np.ndarray:
        """Reconstruct the full dense P block (test/diagnostic helper)."""
        p = self.p_mats[i]
        if self.cfg.fused_update:
            full = np.triu(p) + np.triu(p, 1).T
            return self.p_scales[i] * full
        return p.copy()

    # ------------------------------------------------------------------
    # per-block kernels: each touches block i only, so the block pool may
    # run them for different blocks on different threads
    # ------------------------------------------------------------------
    def _pg(self, kernels, i: int, g: np.ndarray) -> np.ndarray:
        """P g for block i (the cached intermediate of the paper's Opt3)."""
        if self.cfg.fused_update:
            return kernels.symv(self.p_scales[i], self.p_mats[i], g)
        return self.p_mats[i] @ g

    def _downdate(self, kernels, i: int, pg: np.ndarray, a: float) -> None:
        """P_i <- (P_i - a * pg pg^T) / lambda."""
        if self.cfg.fused_update:
            # single triangular rank-1 BLAS kernel; 1/lambda folded into
            # the block scale so no full-matrix pass is needed.
            c = self.p_scales[i]
            self.p_mats[i] = kernels.syr(-a / c, pg, self.p_mats[i])
            self.p_scales[i] = c / self.lam
        else:
            k = a * pg
            kkt = np.outer(k, k / a)  # the N_b x N_b temporary
            p1 = self.p_mats[i] - kkt
            p1 = p1 / self.lam
            self.p_mats[i] = (p1 + p1.T) / 2.0

    def _record_launches(self, phase: str, pgs: list[np.ndarray]) -> None:
        """Report the kernels of one phase on the calling thread (pool
        threads carry no launch sinks)."""
        fused = self.cfg.fused_update
        for pg in pgs:
            vec, mat = pg.nbytes, pg.size * pg.nbytes
            if phase == "pg":
                record_launch("p_symv_fused" if fused else "p_gemv", vec)
            elif fused:
                record_launch("p_update_fused", mat)
            else:
                record_launch("k_scale", vec)
                for name in ("kkT_outer", "p_sub", "p_scale", "p_symmetrize"):
                    record_launch(name, mat)

    # ------------------------------------------------------------------
    def update(self, g_flat: np.ndarray, error: float, scale: float) -> np.ndarray:
        """One Kalman update; returns the weight increment (flat vector).

        ``error`` is the (sign-aligned) mean absolute error ABE, ``scale``
        the sqrt(batch-size) quasi-learning-rate factor of Eq. 2.

        The blocks are sharded over the block pool: ``P g`` and ``g.Pg``,
        then (after the gains) the downdate and the ``dw`` slice of block
        i all run on one thread, so the bits do not depend on the pool
        size.  The anti-windup guard, lambda and the trust-region clip
        run on the calling thread.
        """
        if g_flat.shape != (self.num_params,):
            raise ValueError(f"gradient shape {g_flat.shape} != ({self.num_params},)")
        runtime = _blas_runtime.RUNTIME
        kernels = runtime.kernels
        if runtime.fallback is None:
            pool = _POOL
        else:
            pool = _SERIAL
            _metrics.REGISTRY.counter(
                "kalman.serial_fallbacks", reason=runtime.fallback).inc()
        shards = shard_blocks(self.blocks, min(pool.size, len(self.blocks)))
        n = len(self.blocks)
        pgs: list = [None] * n
        quads = [0.0] * n

        def products(shard):
            for i in shard:
                g = g_flat[self.blocks[i].slice()]
                pgs[i] = self._pg(kernels, i, g)
                quads[i] = float(g @ pgs[i])

        pool.run(products, shards)
        self._record_launches("pg", pgs)

        if self.cfg.coupled_gain:
            a = 1.0 / (self.lam + sum(quads))
            gains = [a] * n
        else:
            gains = [1.0 / (self.lam + q) for q in quads]

        dw = np.zeros(self.num_params)

        def downdates(shard):
            for i in shard:
                self._downdate(kernels, i, pgs[i], gains[i])
                dw[self.blocks[i].slice()] = (scale * error * gains[i]) * pgs[i]

        pool.run(downdates, shards)
        self._record_launches("downdate", pgs)

        self._guard()
        self.advance_lambda()
        self.updates += 1
        norm = float(np.linalg.norm(dw))
        if norm > self.cfg.max_step_norm:
            dw *= self.cfg.max_step_norm / norm
        return dw

    def _guard(self) -> None:
        """Anti-windup: rescale any P block whose mean diagonal exceeds
        the configured cap (no-op when the cap is inf)."""
        cap = self.cfg.p_trace_cap
        if not np.isfinite(cap):
            return
        for i, p in enumerate(self.p_mats):
            mean_diag = self.p_scales[i] * np.trace(p) / p.shape[0]
            if mean_diag > cap:
                if self.cfg.fused_update:
                    self.p_scales[i] *= cap / mean_diag
                else:
                    p *= cap / mean_diag

    # ------------------------------------------------------------------
    def clone(self) -> "KalmanState":
        """Deep copy (used to fork per-sample P replicas in Naive-EKF)."""
        other = KalmanState.__new__(KalmanState)
        other.cfg = self.cfg
        other.num_params = self.num_params
        other.blocks = self.blocks
        other.p_mats = [p.copy(order="K") for p in self.p_mats]
        other.p_scales = list(self.p_scales)
        other.lam = self.lam
        other.updates = self.updates
        return other

    def checksum(self) -> float:
        """Cheap fingerprint for replica-consistency assertions."""
        total = sum(c * np.trace(p) for c, p in zip(self.p_scales, self.p_mats))
        return float(total) + self.lam
