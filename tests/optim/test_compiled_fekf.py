"""Compiled FEKF steps: bit-identity, plan invalidation, resume, fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import state_fingerprint
from repro.autograd import KernelCounter, capture
from repro.autograd.config import config as autograd_config
from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig, load_state, make_optimizer, save_state
from repro.parallel import DistributedFEKF
from repro.telemetry.trace import Tracer


def _kcfg():
    return KalmanConfig(blocksize=1024, fused_update=True)


def _opt(dataset, cfg, **kw):
    model = DeePMD.for_dataset(dataset, cfg, seed=1)
    kw.setdefault("fused_env", False)
    return model, FEKF(model, _kcfg(), seed=11, **kw)


def _run(opt, batches):
    return [float(opt.step_batch(b)["force_abe"]) for b in batches]


class TestBitIdentity:
    def test_compiled_matches_eager_bitwise(self, cu_dataset, small_cfg, cu_batch):
        batches = [cu_batch] * 5
        m_e, eager = _opt(cu_dataset, small_cfg, compiled=False)
        m_c, comp = _opt(cu_dataset, small_cfg, compiled=True)
        hist_e = _run(eager, batches)
        hist_c = _run(comp, batches)
        assert hist_e == hist_c  # float-exact loss history
        assert np.array_equal(m_e.params.flatten(), m_c.params.flatten())
        st = comp.stats()["compiled"]
        assert st["enabled"] and st["traces"] == 1 and st["compiles"] == 1
        assert st["replays"] > 0 and st["fallbacks"] == 0

    def test_fresh_graph_mode_matches(self, cu_dataset, small_cfg, cu_batch):
        batches = [cu_batch] * 4
        m_e, eager = _opt(cu_dataset, small_cfg, compiled=False,
                          reuse_force_graph=False)
        m_c, comp = _opt(cu_dataset, small_cfg, compiled=True,
                         reuse_force_graph=False)
        assert _run(eager, batches) == _run(comp, batches)
        assert np.array_equal(m_e.params.flatten(), m_c.params.flatten())


class TestInvalidation:
    def test_shape_change_recompiles_and_stays_bitwise(self, cu_dataset, small_cfg):
        big = make_batch(cu_dataset, np.arange(4), small_cfg)
        small = make_batch(cu_dataset, np.arange(2), small_cfg)
        batches = [big, big, small, big, small]
        m_e, eager = _opt(cu_dataset, small_cfg, compiled=False)
        m_c, comp = _opt(cu_dataset, small_cfg, compiled=True)
        assert _run(eager, batches) == _run(comp, batches)
        assert np.array_equal(m_e.params.flatten(), m_c.params.flatten())
        st = comp.stats()["compiled"]
        assert st["traces"] == 2 and st["compiles"] == 2  # one per signature
        assert len(st["plans"]) == 2
        assert st["fallbacks"] == 0  # divergence re-traces, never corrupts

    def test_resume_rebuilds_plans_lazily(self, cu_dataset, small_cfg, cu_batch,
                                          tmp_path):
        batches = [cu_batch] * 6
        m_ref, ref = _opt(cu_dataset, small_cfg, compiled=True)
        _run(ref, batches)

        m_a, a = _opt(cu_dataset, small_cfg, compiled=True)
        _run(a, batches[:3])
        path = str(tmp_path / "ckpt.npz")
        save_state(path, m_a, a)

        m_b, b = _opt(cu_dataset, small_cfg, compiled=True)
        load_state(path, m_b, b)
        assert b.stats()["compiled"]["compiles"] == 0  # plans rebuild lazily
        _run(b, batches[3:])
        assert np.array_equal(m_ref.params.flatten(), m_b.params.flatten())
        assert b.stats()["compiled"]["compiles"] == 1


class TestFallbacks:
    def test_observer_capture_falls_back_to_eager(self, cu_dataset, small_cfg,
                                                  cu_batch):
        batches = [cu_batch] * 3
        m_e, eager = _opt(cu_dataset, small_cfg, compiled=False)
        m_c, comp = _opt(cu_dataset, small_cfg, compiled=True)
        hist_e = _run(eager, batches[:2])
        hist_c = _run(comp, batches[:2])
        # a tensor-observing capture (sanitizer) must see real eager ops,
        # so the engine steps aside and counts the fallback
        with capture("sanitize", mode="collect"):
            hist_e.extend(_run(eager, batches[2:]))
            hist_c.extend(_run(comp, batches[2:]))
        assert hist_e == hist_c
        assert np.array_equal(m_e.params.flatten(), m_c.params.flatten())
        st = comp.stats()["compiled"]
        assert st["fallbacks"] > 0

    def test_type_aware_disables_engine(self, nacl_dataset, tiny_cfg):
        cfg = replace(tiny_cfg, type_aware=True)
        batch = make_batch(nacl_dataset, np.arange(2), cfg)
        _, opt = _opt(nacl_dataset, cfg, compiled=True, fused_env=True)
        opt.step_batch(batch)
        st = opt.stats()["compiled"]
        assert not st["enabled"]
        assert st["disabled_reason"] == "type_aware"
        assert st["replays"] == 0 and st["fallbacks"] > 0


class TestOpt1Replay:
    """``fused_env=True`` + ``compiled=True``: the hand-derived Opt1
    descriptor kernel and its vjp pair replay as opaque plan steps, so
    every optimisation runs together without fallbacks."""

    @pytest.mark.parametrize("reuse", [True, False], ids=["shared", "fresh"])
    def test_replay_matches_eager_fused_env(self, cu_dataset, small_cfg, reuse):
        a = make_batch(cu_dataset, np.arange(4), small_cfg)
        b = make_batch(cu_dataset, np.array([9, 5, 2, 7]), small_cfg)
        batches = [a, b, a, b, b]
        m_e, eager = _opt(cu_dataset, small_cfg, compiled=False,
                          fused_env=True, reuse_force_graph=reuse)
        m_c, comp = _opt(cu_dataset, small_cfg, compiled=True,
                         fused_env=True, reuse_force_graph=reuse)
        assert _run(eager, batches) == _run(comp, batches)
        # weights and the full filter state (P included), bit for bit
        assert state_fingerprint(eager, m_e) == state_fingerprint(comp, m_c)
        st = comp.stats()["compiled"]
        assert st["enabled"] and "disabled_reason" not in st
        assert st["traces"] == 1 and st["compiles"] == 1
        assert st["replays"] > 0 and st["fallbacks"] == 0

    def test_env_ops_are_plan_steps(self, cu_dataset, small_cfg, cu_batch):
        counts = {}
        for compiled in (False, True):
            _, opt = _opt(cu_dataset, small_cfg, compiled=compiled,
                          fused_env=True)
            _run(opt, [cu_batch] * 2)
            with KernelCounter() as kc:
                opt.step_batch(cu_batch)
            counts[compiled] = kc.launches
        # the replay launches each Opt1 kernel exactly where eager does,
        # while the elementwise chains around it fuse
        for op in ("env_fused", "env_bwd_fused", "env_bwd_transpose_fused"):
            assert counts[True][op] == counts[False][op] > 0
        assert counts[True]["fused_chain"] > 0
        assert sum(counts[True].values()) < sum(counts[False].values())

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_distributed_executors_replay_bitwise(self, cu_dataset, small_cfg,
                                                  executor):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)

        def dist(compiled, ex):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            return model, DistributedFEKF(
                model, world_size=2, kalman_cfg=_kcfg(), seed=11,
                executor=ex, fused_env=True, compiled=compiled,
            )

        m_e, eager = dist(False, "serial")
        m_c, comp = dist(True, executor)
        try:
            ref = []
            for _ in range(3):
                eager.step_batch(batch)
                ref.append(state_fingerprint(eager, m_e))
            got = []
            comp.step_batch(batch)  # the trace step
            got.append(state_fingerprint(comp, m_c))
            with Tracer(keep_events=True) as tr:
                for _ in range(2):
                    comp.step_batch(batch)
                    got.append(state_fingerprint(comp, m_c))
        finally:
            eager.close()
            comp.close()
        assert got == ref
        # every rank-side forward of the replayed steps came from a plan
        # (a fallback runs it eager, without the ``compiled`` tag)
        fwd = [e for e in tr.events
               if e.name == "fekf.forward" and "executor" in e.attrs]
        assert {e.attrs["rank"] for e in fwd} == {0, 1}
        assert all(e.attrs.get("compiled") == 1 for e in fwd)


class TestConfigPlumbing:
    def test_config_default_routes_to_worker(self, cu_model):
        prev = autograd_config.compiled
        try:
            autograd_config.compiled = True
            assert FEKF(cu_model, _kcfg()).compiled
            autograd_config.compiled = False
            assert not FEKF(cu_model, _kcfg()).compiled
        finally:
            autograd_config.compiled = prev

    def test_explicit_flag_beats_config(self, cu_model):
        prev = autograd_config.compiled
        try:
            autograd_config.compiled = True
            assert not FEKF(cu_model, _kcfg(), compiled=False).compiled
        finally:
            autograd_config.compiled = prev

    def test_make_optimizer_routes_compiled(self, cu_model):
        opt = make_optimizer("fekf", cu_model, compiled=True, fused_env=False)
        assert opt.compiled
        assert opt.hyperparams["compiled"]

    def test_stats_present_before_first_step(self, cu_model):
        opt = FEKF(cu_model, _kcfg(), compiled=True, fused_env=False)
        st = opt.stats()["compiled"]
        assert st["replays"] == 0 and st["fallbacks"] == 0
