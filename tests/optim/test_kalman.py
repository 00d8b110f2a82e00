"""Kalman core: kernel equivalence, algebraic invariants, guards."""

import numpy as np
import pytest

from repro.optim import KalmanConfig, KalmanState

LAYERS = [(0, 12), (1, 40), (2, 8)]
N = 60


def _state(**kw):
    cfg = KalmanConfig(blocksize=kw.pop("blocksize", 32), **kw)
    return KalmanState(N, LAYERS, cfg)


rng = np.random.default_rng(0)


class TestUpdateAlgebra:
    def test_gradient_shape_checked(self):
        with pytest.raises(ValueError):
            _state().update(np.zeros(N + 1), 0.1, 1.0)

    def test_update_moves_along_pg(self):
        state = _state(max_step_norm=np.inf)
        g = rng.normal(size=N)
        dw = state.update(g, 0.5, 1.0)
        # with P=I initially: dw_i = 0.5 * g_i / (lam + |g_i|^2) per block
        for i, blk in enumerate(state.blocks):
            gb = g[blk.slice()]
            expect = 0.5 * gb / (0.98 + gb @ gb)
            assert np.allclose(dw[blk.slice()], expect)

    def test_scale_multiplies_increment(self):
        g = rng.normal(size=N) * 0.1
        s1 = _state(max_step_norm=np.inf)
        s2 = _state(max_step_norm=np.inf)
        dw1 = s1.update(g, 0.2, 1.0)
        dw2 = s2.update(g, 0.2, 4.0)
        assert np.allclose(dw2, 4.0 * dw1)

    def test_zero_error_zero_increment_but_p_updates(self):
        state = _state()
        g = rng.normal(size=N)
        before = state.checksum()
        dw = state.update(g, 0.0, 1.0)
        assert np.allclose(dw, 0.0)
        assert state.checksum() != before

    def test_lambda_schedule(self):
        state = _state()
        lam0, nu = state.cfg.lambda0, state.cfg.nu
        state.update(np.zeros(N), 0.0, 1.0)
        assert state.lam == pytest.approx(lam0 * nu + 1 - nu)
        for _ in range(3000):
            state.advance_lambda()
        assert state.lam == pytest.approx(1.0, abs=1e-3)

    def test_p_stays_symmetric_naive(self):
        state = _state(max_step_norm=np.inf)
        for _ in range(10):
            state.update(rng.normal(size=N), 0.1, 1.0)
        for i in range(len(state.blocks)):
            p = state.p_dense(i)
            assert np.allclose(p, p.T)

    def test_p_stays_positive_definite(self):
        state = _state()
        for _ in range(30):
            state.update(rng.normal(size=N) * 0.5, 0.1, 1.0)
        for i in range(len(state.blocks)):
            eig = np.linalg.eigvalsh(state.p_dense(i))
            assert eig.min() > 0

    def test_update_counter(self):
        state = _state()
        for _ in range(4):
            state.update(np.zeros(N), 0.0, 1.0)
        assert state.updates == 4


class TestFusedEquivalence:
    @pytest.mark.parametrize("coupled", [False, True])
    def test_fused_matches_naive(self, coupled):
        sn = _state(fused_update=False, coupled_gain=coupled, max_step_norm=np.inf)
        sf = _state(fused_update=True, coupled_gain=coupled, max_step_norm=np.inf)
        for step in range(25):
            g = rng.normal(size=N) * 0.3
            dwn = sn.update(g, 0.1, 1.0)
            dwf = sf.update(g, 0.1, 1.0)
            assert np.allclose(dwn, dwf, atol=1e-11), step
        for i in range(len(sn.blocks)):
            assert np.allclose(sn.p_dense(i), sf.p_dense(i), atol=1e-10)

    def test_fused_with_guards_matches_naive(self):
        sn = _state(fused_update=False)
        sf = _state(fused_update=True)
        for _ in range(40):
            g = rng.normal(size=N) * 2.0  # large grads exercise the guards
            assert np.allclose(sn.update(g, 0.5, 2.0), sf.update(g, 0.5, 2.0), atol=1e-10)

    def test_coupled_vs_layerwise_differ(self):
        s1 = _state(coupled_gain=False, max_step_norm=np.inf)
        s2 = _state(coupled_gain=True, max_step_norm=np.inf)
        g = rng.normal(size=N)
        assert not np.allclose(s1.update(g, 0.5, 1.0), s2.update(g, 0.5, 1.0))


class TestGuards:
    def test_step_norm_clipped(self):
        state = _state(max_step_norm=0.05)
        dw = state.update(rng.normal(size=N) * 3.0, 10.0, 8.0)
        assert np.linalg.norm(dw) <= 0.05 + 1e-12

    def test_trace_cap_bounds_p_growth(self):
        state = _state(p_trace_cap=2.0)
        for _ in range(500):
            state.update(rng.normal(size=N) * 1e-3, 0.01, 1.0)
        for i, p in enumerate(state.p_mats):
            mean_diag = state.p_scales[i] * np.trace(p) / p.shape[0]
            assert mean_diag <= 2.0 + 1e-9

    def test_unguarded_p_grows(self):
        state = _state(p_trace_cap=np.inf, max_step_norm=np.inf)
        for _ in range(200):
            state.update(rng.normal(size=N) * 1e-4, 0.0, 1.0)
        mean_diag = np.trace(state.p_dense(0)) / state.blocks[0].size
        assert mean_diag > 10.0  # 1/lambda wind-up, the failure mode we guard


class TestLifecycle:
    def test_clone_independent(self):
        state = _state(fused_update=True)
        other = state.clone()
        state.update(rng.normal(size=N), 0.5, 1.0)
        assert other.checksum() != state.checksum()

    def test_checksum_stable_for_identical_sequences(self):
        a, b = _state(), _state()
        for _ in range(5):
            g = rng.normal(size=N)
            a.update(g, 0.1, 1.0)
            b.update(g, 0.1, 1.0)
        assert a.checksum() == b.checksum()

    def test_p_memory_bytes(self):
        state = _state(blocksize=32)
        expect = sum(b.size**2 * 8 for b in state.blocks)
        assert state.p_memory_bytes() == expect

    def test_for_batch_size_guidance(self):
        small = KalmanConfig.for_batch_size(32)
        large = KalmanConfig.for_batch_size(2048)
        assert (small.lambda0, small.nu) == (0.98, 0.9987)
        assert (large.lambda0, large.nu) == (0.90, 0.996)

    def test_for_batch_size_overrides(self):
        cfg = KalmanConfig.for_batch_size(8, blocksize=128, fused_update=True)
        assert cfg.blocksize == 128 and cfg.fused_update

    def test_blocks_must_cover_params(self):
        with pytest.raises(ValueError):
            KalmanState(N + 5, LAYERS, KalmanConfig(blocksize=32))


class TestBlasRuntime:
    """Process-wide BLAS pinning, the bound kernels, and the counted
    serial fallback."""

    def test_every_loaded_blas_is_pinned(self):
        from repro.optim import blas

        runtime = blas.RUNTIME
        if runtime.fallback is not None:
            pytest.skip(f"BLAS not pinnable here: {runtime.fallback}")
        assert runtime.threads and set(runtime.threads.values()) == {1}
        assert isinstance(runtime.kernels, blas.CblasKernels)

    @pytest.mark.parametrize("n", [1, 5, 99, 100, 1024])
    def test_bound_kernels_match_scipy_bitwise(self, n):
        from repro.optim import blas

        if blas.RUNTIME.fallback is not None:
            pytest.skip("no bound kernels")
        r = np.random.default_rng(n)
        a = r.normal(size=(n, n))
        a = np.asfortranarray(a + a.T)
        x = r.normal(size=n)
        bound, ref = blas.RUNTIME.kernels, blas.F2pyKernels
        assert np.array_equal(bound.symv(0.7, a, x), ref.symv(0.7, a, x))
        out = bound.syr(-0.3, x, a.copy(order="F"))
        assert np.array_equal(np.triu(out), np.triu(ref.syr(-0.3, x, a.copy(order="F"))))

    def test_bound_kernels_reject_c_ordered_blocks(self):
        from repro.optim import blas

        if blas.RUNTIME.fallback is not None:
            pytest.skip("no bound kernels")
        with pytest.raises(ValueError):
            blas.RUNTIME.kernels.symv(1.0, np.ones((3, 4))[:, :3], np.ones(3))

    @pytest.mark.parametrize("missing, reason", [
        ("_CBLAS_SYMBOLS", "no_cblas_kernels"),
        ("_THREAD_CONTROLS", "no_set_num_threads"),
    ])
    def test_fallback_is_counted_and_reported(self, monkeypatch, cu_model, missing, reason):
        from repro.optim import FEKF, blas
        from repro.telemetry import REGISTRY

        parallel = _state(fused_update=True)
        g = rng.normal(size=N)
        dw_parallel = parallel.update(g, 0.2, 1.0)

        absent = (("absent_dsymv", "absent_dsyr") if missing == "_CBLAS_SYMBOLS"
                  else (("absent_set_num_threads", "absent_get_num_threads"),))
        monkeypatch.setattr(blas, missing, absent)
        monkeypatch.setattr(blas, "RUNTIME", blas.configure())
        assert blas.RUNTIME.fallback == reason
        assert isinstance(blas.RUNTIME.kernels, blas.F2pyKernels)

        counter = REGISTRY.counter("kalman.serial_fallbacks", reason=reason)
        before = counter.value
        serial = _state(fused_update=True)
        # single-threaded kernels either way: the fallback keeps the bits
        assert np.array_equal(serial.update(g, 0.2, 1.0), dw_parallel)
        serial.update(g, 0.2, 1.0)
        assert counter.value == before + 2

        info = FEKF(cu_model, KalmanConfig(blocksize=256, fused_update=True)).stats()["kalman"]
        assert info["fallback_reason"] == reason
        assert info["pool_size"] == 1
        assert set(info["blas_threads"]) == set(blas.RUNTIME.threads)
