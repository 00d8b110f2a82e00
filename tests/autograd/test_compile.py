"""Tape compiler: bitwise replay, plan invalidation, fusion telemetry."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad, ops
from repro.autograd.compile import (
    PlanMismatch,
    TraceSession,
    UnsupportedTrace,
    compile_tape,
)

RNG = np.random.default_rng(3)


def _build(x, w, mask, idx):
    """A toy forward+loss with every dynamic construct the FEKF graphs
    use: gather by index, boolean masking via ``where``, an elementwise
    chain, a safe-division guard built from ``ones_like``, view ops, and
    a baked constant leaf."""
    g = ops.index(x, idx)                               # dynamic gather
    mask_t = Tensor(mask)
    denom = ops.add(ops.absolute(g), Tensor(np.full(g.shape, 0.5)))
    safe = ops.where(mask, ops.div(g, denom), ops.zeros_like(g))
    h = ops.tanh(ops.mul(ops.add(safe, safe), Tensor(0.25 * np.ones(g.shape))))
    h2 = ops.reshape(h, (1, -1))                        # view
    y = ops.matmul(h2, ops.reshape(w, (-1, 1)))
    del mask_t
    return ops.tsum(y)


def _eager(xv, wv, maskv, idxv):
    x = Tensor(xv, requires_grad=True)
    w = Tensor(wv, requires_grad=True)
    out = _build(x, w, maskv, idxv)
    gx, gw = grad(out, [x, w])
    return out.data.copy(), gx.data.copy(), gw.data.copy()


def _feeds(n=4, k=3, d=2):
    xv = RNG.normal(size=(n, d))
    wv = RNG.normal(size=(k * d,))
    maskv = RNG.random((k, d)) > 0.3
    idxv = RNG.integers(0, n, size=k)
    return xv, wv, maskv, idxv


def _trace(xv, wv, maskv, idxv):
    x = Tensor(xv, requires_grad=True)
    w = Tensor(wv, requires_grad=True)
    sess = TraceSession(candidates={"mask": maskv, "idx": idxv})
    with sess:
        with sess.section("fwd", inputs={"x": x, "w": w}) as sec:
            out = _build(x, w, maskv, idxv)
            sec.outputs = [out]
        with sess.section("bwd") as sec:
            gx, gw = grad(out, [x, w])
            sec.outputs = [gx, gw]
    return compile_tape(sess)


class TestBitwiseReplay:
    def test_replay_matches_eager_bitwise(self):
        prog = _trace(*_feeds())
        for _ in range(3):
            xv, wv, maskv, idxv = _feeds()
            feeds = {"x": xv, "w": wv, "mask": maskv, "idx": idxv}
            (out,) = prog.run("fwd", feeds)
            gx, gw = prog.run("bwd", feeds)
            ref_out, ref_gx, ref_gw = _eager(xv, wv, maskv, idxv)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(gx, ref_gx)
            assert np.array_equal(gw, ref_gw)

    def test_uniform_trace_values_stay_dynamic(self):
        # trace at a degenerate all-True mask: the compiler must NOT bake
        # it (nor confuse the ones_like guard leaf with its float view) --
        # replaying with a mixed mask still has to hit eager bitwise
        xv, wv, _, idxv = _feeds()
        maskv = np.ones((3, 2), dtype=bool)
        prog = _trace(xv, wv, maskv, idxv)
        mixed = np.array([[True, False]] * 3)
        feeds = {"x": xv, "w": wv, "mask": mixed, "idx": idxv}
        (out,) = prog.run("fwd", feeds)
        gx, _ = prog.run("bwd", feeds)
        ref_out, ref_gx, _ = _eager(xv, wv, mixed, idxv)
        assert np.array_equal(out, ref_out)
        assert np.isfinite(gx).all()
        assert np.array_equal(gx, ref_gx)

    def test_dynamic_index_rebinds(self):
        xv, wv, maskv, idxv = _feeds()
        prog = _trace(xv, wv, maskv, idxv)
        other_idx = np.array([0, 0, 3])
        feeds = {"x": xv, "w": wv, "mask": maskv, "idx": other_idx}
        (out,) = prog.run("fwd", feeds)
        ref_out, _, _ = _eager(xv, wv, maskv, other_idx)
        assert np.array_equal(out, ref_out)


class TestInvalidation:
    def test_shape_divergence_raises_planmismatch(self):
        prog = _trace(*_feeds())
        xv, wv, maskv, idxv = _feeds(n=6)  # different leading dim
        with pytest.raises(PlanMismatch, match="diverged"):
            prog.run("fwd", {"x": xv, "w": wv, "mask": maskv, "idx": idxv})

    def test_dtype_divergence_raises_planmismatch(self):
        prog = _trace(*_feeds())
        xv, wv, maskv, idxv = _feeds()
        with pytest.raises(PlanMismatch, match="diverged"):
            prog.run("fwd", {"x": xv.astype(np.float32), "w": wv,
                             "mask": maskv, "idx": idxv})

    def test_missing_feed_raises_before_any_write(self):
        prog = _trace(*_feeds())
        xv, wv, maskv, idxv = _feeds()
        ok = {"x": xv, "w": wv, "mask": maskv, "idx": idxv}
        (baseline,) = prog.run("fwd", ok)
        baseline = baseline.copy()
        with pytest.raises(PlanMismatch, match="missing feed"):
            prog.run("fwd", {"x": xv, "mask": maskv, "idx": idxv})
        # the failed run must not have disturbed plan state
        (again,) = prog.run("fwd", ok)
        assert np.array_equal(again, baseline)

    def test_unknown_section_raises(self):
        prog = _trace(*_feeds())
        with pytest.raises(PlanMismatch, match="no section"):
            prog.run("nope", {})

    def test_duplicate_section_name_unsupported(self):
        x = Tensor(np.ones(3), requires_grad=True)
        sess = TraceSession()
        with sess:
            for _ in range(2):
                with sess.section("fwd", inputs={"x": x}) as sec:
                    sec.outputs = [ops.tanh(x)]
        with pytest.raises(UnsupportedTrace):
            compile_tape(sess)


class TestTelemetry:
    def test_plan_stats_report_fusion_and_arena(self):
        prog = _trace(*_feeds())
        st = prog.stats
        assert st.traced_ops > 0
        assert st.fused_ops > 0              # the tanh/mul/add chain fused
        assert st.steps < st.traced_ops      # fusion shrank the step count
        assert st.view_elisions >= 1         # reshape became a view
        assert st.baked_consts >= 1          # the 0.25 constant leaf
        assert st.arena_bytes > 0
        assert st.arena_bytes < st.eager_alloc_bytes
        d = st.as_dict()
        assert d["fused_ops"] == st.fused_ops

    def test_replays_counted(self):
        prog = _trace(*_feeds())
        before = prog.stats.replays
        xv, wv, maskv, idxv = _feeds()
        feeds = {"x": xv, "w": wv, "mask": maskv, "idx": idxv}
        prog.run("fwd", feeds)
        prog.run("bwd", feeds)
        assert prog.stats.replays == before + 2

    def test_plan_key_is_crc_plus_signature(self):
        xv, wv, maskv, idxv = _feeds()
        p1 = _trace(xv, wv, maskv, idxv)
        p2 = _trace(xv, wv, maskv, idxv)
        assert p1.key() == p2.key()
        p3 = _trace(*_feeds(n=6))
        assert p3.key() != p1.key()

    def test_fused_chain_launches_observed(self):
        from repro.autograd import capture

        prog = _trace(*_feeds())
        xv, wv, maskv, idxv = _feeds()
        with capture("count") as kc:
            prog.run("fwd", {"x": xv, "w": wv, "mask": maskv, "idx": idxv})
        assert kc.launches.get("fused_chain", 0) > 0
        # far fewer launches than the traced op count for this section
        assert kc.total_launches < prog.stats.traced_ops


class TestOpaqueOps:
    """The Opt1 descriptor kernel and its vjp pair replay as opaque plan
    steps: their own numpy, rerun on the bound batch arrays."""

    @staticmethod
    def _sections(sess, batch, cfg, stats, w, v):
        from repro.model.environment import environment_fused

        coords = Tensor(batch.coords, requires_grad=True)
        with sess.section("fwd", inputs={"coords": coords, "w": w}) as sec:
            rn = environment_fused(coords, batch, cfg, stats)
            y = ops.tsum(ops.mul(rn, w))
            (gc,) = grad(y, [coords], create_graph=True)
            sec.outputs = [rn, gc]
        with sess.section("gw") as sec:
            (gw,) = grad(ops.tsum(ops.mul(gc, Tensor(v))), [w])
            sec.outputs = [gw]
        return rn, gc, gw

    @staticmethod
    def _setup(cu_dataset, small_cfg, frames):
        from repro.model import make_batch
        from repro.model.environment import compute_stats

        stats = compute_stats(cu_dataset, small_cfg)
        batch = make_batch(cu_dataset, np.asarray(frames), small_cfg)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(small_cfg.nmax, 4))
        v = rng.normal(size=batch.coords.shape)
        return stats, batch, w, v

    def _eager(self, batch, cfg, stats, w, v):
        from repro.model.environment import environment_fused

        coords = Tensor(batch.coords, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        rn = environment_fused(coords, batch, cfg, stats)
        (gc,) = grad(ops.tsum(ops.mul(rn, wt)), [coords], create_graph=True)
        (gw,) = grad(ops.tsum(ops.mul(gc, Tensor(v))), [wt])
        return rn.data, gc.data, gw.data

    def _trace(self, batch, cfg, stats, w, v):
        sess = TraceSession(candidates={
            "idx_flat": batch.idx_flat, "shift": batch.shift,
            "mask": batch.mask,
        })
        with sess:
            self._sections(sess, batch, cfg, stats,
                           Tensor(w, requires_grad=True), v)
        return compile_tape(sess)

    @staticmethod
    def _feeds(batch, w):
        return {"coords": batch.coords, "w": w, "idx_flat": batch.idx_flat,
                "shift": batch.shift, "mask": batch.mask}

    def test_replay_matches_eager_on_a_new_batch(self, cu_dataset, small_cfg):
        stats, batch, w, v = self._setup(cu_dataset, small_cfg, [0, 1, 2])
        prog = self._trace(batch, small_cfg, stats, w, v)
        other = self._setup(cu_dataset, small_cfg, [7, 4, 11])[1]
        assert not np.array_equal(other.idx_flat, batch.idx_flat)
        feeds = self._feeds(other, w)
        rn, gc = prog.run("fwd", feeds)
        (gw,) = prog.run("gw", feeds)
        ref = self._eager(other, small_cfg, stats, w, v)
        for got, want in zip((rn, gc, gw), ref):
            assert np.array_equal(got, want)

    def test_one_launch_each_and_intermediates_once_per_forward(
        self, cu_dataset, small_cfg, monkeypatch
    ):
        from repro.autograd import KernelCounter
        from repro.model import environment

        stats, batch, w, v = self._setup(cu_dataset, small_cfg, [0, 1, 2])
        prog = self._trace(batch, small_cfg, stats, w, v)
        calls = []
        real = environment.environment_np
        monkeypatch.setattr(environment, "environment_np",
                            lambda *a: calls.append(1) or real(*a))
        feeds = self._feeds(batch, w)
        with KernelCounter() as kc:
            prog.run("fwd", feeds)
            for _ in range(3):
                prog.run("gw", feeds)
        assert len(calls) == 1
        assert kc.launches["env_fused"] == 1
        assert kc.launches["env_bwd_fused"] == 1
        assert kc.launches["env_bwd_transpose_fused"] == 3

    def test_vjp_of_an_untraced_forward_is_unsupported(
        self, cu_dataset, small_cfg
    ):
        from repro.model.environment import environment_fused

        stats, batch, w, _ = self._setup(cu_dataset, small_cfg, [0, 1, 2])
        coords = Tensor(batch.coords, requires_grad=True)
        rn = environment_fused(coords, batch, small_cfg, stats)  # untraced
        sess = TraceSession()
        with sess:
            with sess.section("bwd", inputs={"w": Tensor(w)}) as sec:
                g = ops.mul(Tensor(np.ones(rn.shape)), sec.inputs["w"])
                (gc,) = grad(rn, [coords], grad_output=g)
                sec.outputs = [gc]
        with pytest.raises(UnsupportedTrace, match="outside any section"):
            compile_tape(sess)
