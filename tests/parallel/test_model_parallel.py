"""Model-parallel Kalman update: the P blocks sharded over the block pool.

Every block is updated by exactly one thread with single-threaded BLAS,
so the trajectory must be bit-identical for any pool size, for both gain
modes and both storage layouts.
"""

import sys
import threading

import numpy as np
import pytest

from repro.analysis import state_fingerprint
from repro.autograd import KernelCounter
from repro.model import DeePMD, DeePMDConfig, make_batch
from repro.optim import FEKF, KalmanConfig, KalmanState, NaiveEKF
from repro.optim import blas, kalman
from repro.optim.blocks import Block
from repro.parallel import DistributedFEKF, shard_blocks

LAYERS = [(0, 30), (1, 120), (2, 50), (3, 50), (4, 10)]
N = sum(s for _, s in LAYERS)
POOL_SIZES = (1, 2, 4, 29)


@pytest.fixture()
def pool_size(monkeypatch):
    """Returns a setter that swaps the process's block pool for one of
    the given size for the rest of the test."""
    pools = []

    def use(size):
        pools.append(kalman.BlockPool(size))
        monkeypatch.setattr(kalman, "_POOL", pools[-1])

    yield use
    for pool in pools:
        if pool._executor is not None:
            pool._executor.shutdown()


@pytest.fixture(scope="module")
def paper_model():
    """The 26,551-parameter paper network (29 blocks at blocksize 1024)."""
    return DeePMD(DeePMDConfig.paper(), seed=0)


def _gradients(n, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) * 0.05 for _ in range(count)]


def _paper_fingerprint(model, cfg, gradients):
    opt = FEKF(model, cfg)
    for k, g in enumerate(gradients):
        opt.kalman.update(g, 0.1 * (k + 1), 2.0)
    return state_fingerprint(opt, model)


class TestSharding:
    def test_all_blocks_assigned_once(self):
        blocks = [Block(0, 10), Block(10, 40), Block(40, 45), Block(45, 60)]
        shards = shard_blocks(blocks, 2)
        flat = sorted(i for s in shards for i in s)
        assert flat == [0, 1, 2, 3]

    def test_balances_quadratic_cost(self):
        blocks = [Block(0, 100), Block(100, 110), Block(110, 120), Block(120, 130)]
        shards = shard_blocks(blocks, 2)
        # the giant block must sit alone; the three small ones together
        sizes = [[blocks[i].size for i in s] for s in shards]
        assert [100] in sizes

    def test_more_ranks_than_blocks(self):
        blocks = [Block(0, 5), Block(5, 10)]
        shards = shard_blocks(blocks, 4)
        assert sum(len(s) for s in shards) == 2

    def test_one_home(self):
        from repro.optim.blocks import shard_blocks as home

        assert shard_blocks is home


class TestModelParallelKalman:
    def _cfg(self, **kw):
        return KalmanConfig(blocksize=64, fused_update=True, **kw)

    def test_matches_serial_layerwise(self, pool_size):
        rng = np.random.default_rng(0)
        pool_size(1)
        serial = KalmanState(N, LAYERS, self._cfg())
        grads = [rng.normal(size=N) * 0.3 for _ in range(12)]
        serial_dws = [serial.update(g, 0.1, 2.0) for g in grads]
        pool_size(3)
        sharded = KalmanState(N, LAYERS, self._cfg())
        for g, dw_s in zip(grads, serial_dws):
            assert np.array_equal(dw_s, sharded.update(g, 0.1, 2.0))
        for a, b in zip(serial.p_mats, sharded.p_mats):
            assert np.array_equal(a, b)
        assert serial.p_scales == sharded.p_scales
        assert serial.checksum() == sharded.checksum()

    def test_memory_sharded_across_ranks(self, paper_model):
        state = KalmanState(
            paper_model.num_params, paper_model.params.layer_sizes(),
            KalmanConfig(blocksize=1024, fused_update=True),
        )
        per_rank = [
            sum(state.p_mats[i].nbytes for i in shard)
            for shard in shard_blocks(state.blocks, 2)
        ]
        assert sum(per_rank) == state.p_memory_bytes()
        assert max(per_rank) < state.p_memory_bytes()  # genuinely split

    def test_parallel_efficiency_bounded(self, paper_model):
        blocks = KalmanState(
            paper_model.num_params, paper_model.params.layer_sizes(),
            KalmanConfig(blocksize=1024, fused_update=True),
        ).blocks
        assert len(blocks) == 29
        for workers in (2, 4):
            loads = [sum(blocks[i].size ** 2 for i in s)
                     for s in shard_blocks(blocks, workers)]
            efficiency = sum(loads) / (workers * max(loads))
            assert 0.9 < efficiency <= 1.0

    def test_gradient_shape_checked(self, pool_size):
        pool_size(2)
        with pytest.raises(ValueError):
            KalmanState(N, LAYERS, self._cfg()).update(np.zeros(N + 1), 0.1, 1.0)


class TestPoolSizeBitIdentity:
    @pytest.mark.parametrize("coupled_gain", [False, True])
    def test_paper_network_fused(self, paper_model, pool_size, coupled_gain):
        cfg = KalmanConfig(blocksize=1024, fused_update=True,
                           coupled_gain=coupled_gain)
        grads = _gradients(paper_model.num_params)
        prints = set()
        for size in POOL_SIZES:
            pool_size(size)
            prints.add(_paper_fingerprint(paper_model, cfg, grads))
        assert len(prints) == 1

    @pytest.mark.parametrize("coupled_gain", [False, True])
    def test_paper_network_naive(self, paper_model, pool_size, coupled_gain):
        # blocksize 256 (104 blocks): the naive kernel holds ~4 dense
        # temporaries per block in flight, which at blocksize 1024 and 29
        # threads would be ~1 GB
        cfg = KalmanConfig(blocksize=256, fused_update=False,
                           coupled_gain=coupled_gain)
        grads = _gradients(paper_model.num_params, count=2)
        prints = set()
        for size in POOL_SIZES:
            pool_size(size)
            prints.add(_paper_fingerprint(paper_model, cfg, grads))
        assert len(prints) == 1

    def test_one_large_block_and_a_tiny_one(self, pool_size):
        # blocks of 1, 1350 and 27 x 1024 weights
        layers = [(0, 1), (1, 1350)] + [(2 + k, 1024) for k in range(27)]
        n = sum(s for _, s in layers)
        cfg = KalmanConfig(blocksize=1350, fused_update=True)
        grads = _gradients(n, count=2)
        ref = None
        for size in (1, 2, 29):
            pool_size(size)
            state = KalmanState(n, layers, cfg)
            assert sorted({b.size for b in state.blocks}) == [1, 1024, 1350]
            dws = [state.update(g, 0.2, 2.0) for g in grads]
            run = (dws, state.p_mats, state.p_scales)
            if ref is None:
                ref = run
                continue
            assert all(np.array_equal(a, b) for a, b in zip(ref[0], run[0]))
            assert all(np.array_equal(a, b) for a, b in zip(ref[1], run[1]))
            assert ref[2] == run[2]
            del state, run


class TestStress:
    def test_more_workers_than_cores_under_fast_switching(self, pool_size):
        """Two callers share eight workers on any core count with a tiny
        switch interval: a lost or misplaced block write would change the
        bits, a task waiting on another caller's task would hang."""
        cfg = KalmanConfig(blocksize=16, fused_update=True)
        grads = _gradients(N, count=20, seed=3)

        def run(out):
            state = KalmanState(N, LAYERS, cfg)
            out.extend(state.update(g, 0.3, 2.0) for g in grads)
            out.extend(state.p_mats)

        pool_size(1)
        serial = []
        run(serial)
        pool_size(8)
        sharded = [[], []]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(out,), daemon=True)
                       for out in sharded]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in callers)
        for out in sharded:
            assert len(out) == len(serial)
            assert all(np.array_equal(a, b) for a, b in zip(serial, out))


class TestLaunchAccounting:
    @pytest.mark.parametrize("fused", [True, False])
    def test_launches_recorded_on_the_calling_thread(self, pool_size, fused):
        pool_size(4)
        state = KalmanState(N, LAYERS, KalmanConfig(blocksize=64, fused_update=fused))
        n_blocks = len(state.blocks)
        assert n_blocks >= 4
        with KernelCounter() as kc:
            state.update(np.random.default_rng(0).normal(size=N), 0.1, 1.0)
        if fused:
            assert dict(kc.launches) == {
                "p_symv_fused": n_blocks, "p_update_fused": n_blocks}
            assert kc.total_launches == 2 * n_blocks
        else:
            assert dict(kc.launches) == {
                name: n_blocks for name in ("p_gemv", "k_scale", "kkT_outer",
                                            "p_sub", "p_scale", "p_symmetrize")}


class _Boom(RuntimeError):
    pass


class _FailingKernels:
    """The bound kernels, except that ``syr`` raises on one P block."""

    def __init__(self, target, error):
        self._inner = blas.RUNTIME.kernels
        self._target = target
        self.error = error
        self.raised_on = None

    def symv(self, alpha, a, x):
        return self._inner.symv(alpha, a, x)

    def syr(self, alpha, x, a):
        if a is self._target:
            self.raised_on = threading.get_ident()
            raise self.error
        return self._inner.syr(alpha, x, a)


class TestPoolEdges:
    def test_task_exception_propagates_and_state_is_not_advanced(
        self, pool_size, monkeypatch
    ):
        pool_size(4)
        state = KalmanState(N, LAYERS, KalmanConfig(blocksize=64, fused_update=True))
        # fail on a block of the second shard: a pool thread, not the caller
        target = shard_blocks(state.blocks, 4)[1][0]
        kernels = _FailingKernels(state.p_mats[target], _Boom("block"))
        monkeypatch.setattr(blas, "RUNTIME", blas.BlasRuntime(
            blas.RUNTIME.threads, kernels, None))
        lam = state.lam
        with pytest.raises(_Boom) as info:
            state.update(np.ones(N), 0.1, 1.0)
        assert info.value is kernels.error
        assert kernels.raised_on not in (None, threading.get_ident())
        assert state.updates == 0
        assert state.lam == lam

    def test_naive_ekf_replicas_share_the_pool(self, cu_dataset, small_cfg, pool_size):
        batch = make_batch(cu_dataset, np.arange(3), small_cfg)
        prints = []
        for size in (1, 4):
            pool_size(size)
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = NaiveEKF(model, KalmanConfig(blocksize=256, fused_update=True), seed=3)
            for _ in range(2):
                opt.step_batch(batch)
            replicas = opt._replicas
            assert len(replicas) == 3
            prints.append(state_fingerprint(opt, model)
                          + "".join(str(r.checksum()) for r in replicas))
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_verified_replicas_share_the_pool(
        self, cu_dataset, small_cfg, pool_size, executor
    ):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        prints = []
        for size in (1, 4):
            pool_size(size)
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            dist = DistributedFEKF(
                model, world_size=2, verify_replicas=True, seed=0,
                kalman_cfg=KalmanConfig(blocksize=256, fused_update=True),
                executor=executor,
            )
            try:
                for _ in range(2):
                    dist.step_batch(batch)  # raises if the shadow diverges
            finally:
                dist.close()
            prints.append(state_fingerprint(dist, model))
        assert prints[0] == prints[1]
