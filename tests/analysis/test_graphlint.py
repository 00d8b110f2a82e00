"""Graph linter: clean tapes pass, every check fires on its seeded
violation, and the sanitizer attributes NaNs to op + span."""

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import (
    GraphLinter,
    Sanitizer,
    SanitizerError,
    verify_second_order,
)
from repro.autograd import Tensor, capture, make_op, ops, register_op
from repro.autograd.instrument import tensors_wanted
from repro.model.network import residual_linear_tanh


def _rules(report):
    return sorted({f.rule for f in report.findings})


class TestCleanGraphs:
    def test_elementwise_matmul_chain(self):
        with capture("tape") as tape:
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            w = Tensor(np.ones((3, 2)), requires_grad=True)
            y = ops.tsum(ops.tanh(ops.matmul(x, w)))
        report = GraphLinter(tape).lint(roots=[y])
        assert report.ok, report.render()
        assert report.metrics["tape_length"] == len(tape.entries) > 0

    def test_residual_layer_clean_for_second_order(self):
        rng = np.random.default_rng(0)
        with capture("tape") as tape:
            x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
            W = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(4), requires_grad=True)
            y = ops.tsum(residual_linear_tanh(x, W, b))
        report = GraphLinter(tape).lint(roots=[y], require_second_order=True)
        assert report.ok, report.render()

    def test_view_ops_not_flagged_as_aliasing(self):
        with capture("tape") as tape:
            x = Tensor(np.ones((2, 6)), requires_grad=True)
            y = ops.tsum(ops.transpose(ops.reshape(x, (3, 4)), (1, 0)))
        report = GraphLinter(tape).lint(roots=[y])
        assert report.ok, report.render()

    def test_tape_recording_leaves_no_global_state(self):
        assert not tensors_wanted()
        with capture("tape"):
            ops.exp(Tensor(np.ones(2), requires_grad=True))
            assert tensors_wanted()
        assert not tensors_wanted()


class TestChecksFire:
    def test_dtype_invariant(self):
        with capture("tape") as tape:
            x = Tensor(np.ones(3), requires_grad=True)
            y = ops.exp(x)
            y.data = y.data.astype(np.float32)
            z = ops.tsum(y)
        report = GraphLinter(tape).lint(roots=[z])
        assert "dtype-invariant" in _rules(report)
        assert report.exit_code == 1

    def test_backward_shape(self):
        register_op("test_broken_bwd")

        def broken(x):
            def backward(g):
                return (Tensor(g.data[:-1]),)

            return make_op(x.data * 2.0, (x,), backward, "test_broken_bwd")

        with capture("tape") as tape:
            x = Tensor(np.ones(5), requires_grad=True)
            y = ops.tsum(broken(x))
        report = GraphLinter(tape).lint(roots=[y])
        assert "backward-shape" in _rules(report)

    def test_alias_hazard(self):
        register_op("test_alias_op")  # may_view intentionally False

        def identity_view(x):
            def backward(g):
                return (g,)

            return make_op(x.data, (x,), backward, "test_alias_op")

        with capture("tape") as tape:
            x = Tensor(np.ones(4), requires_grad=True)
            y = ops.tsum(identity_view(x))
        report = GraphLinter(tape).lint(roots=[y])
        assert "alias-hazard" in _rules(report)

    def test_buffer_mutation(self):
        with capture("tape") as tape:
            x = Tensor(np.ones(4), requires_grad=True)
            h = ops.exp(x)
            y = ops.tsum(ops.mul(h, h))
            h.data[:] = 0.0
        report = GraphLinter(tape).lint(roots=[y])
        assert "buffer-mutation" in _rules(report)

    def test_unreachable_node(self):
        with capture("tape") as tape:
            x = Tensor(np.ones(4), requires_grad=True)
            ops.exp(x)  # dead compute
            y = ops.tsum(ops.tanh(x))
        report = GraphLinter(tape).lint(roots=[y])
        findings = [f for f in report.findings if f.rule == "unreachable-node"]
        assert findings and findings[0].context["op"] == "exp"

    def test_unregistered_op(self):
        def rogue(x):
            def backward(g):
                return (g,)

            return make_op(x.data + 1.0, (x,), backward, "test_rogue_kernel_xyz")

        with capture("tape") as tape:
            x = Tensor(np.ones(4), requires_grad=True)
            y = ops.tsum(rogue(x))
        report = GraphLinter(tape).lint(roots=[y])
        assert "unregistered-op" in _rules(report)

    def test_second_order_unsafe(self):
        register_op("test_raw_first_order", second_order=False)

        def raw(x):
            def backward(g):
                return (Tensor(g.data * 2.0 * x.data),)

            return make_op(x.data ** 2, (x,), backward, "test_raw_first_order")

        with capture("tape") as tape:
            x = Tensor(np.ones(4), requires_grad=True)
            y = ops.tsum(raw(x))
        clean = GraphLinter(tape).lint(roots=[y])
        assert "second-order-unsafe" not in _rules(clean)  # opt-in check
        strict = GraphLinter(tape).lint(roots=[y], require_second_order=True)
        assert "second-order-unsafe" in _rules(strict)


class TestSanitizer:
    def test_raises_on_first_nonfinite(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(SanitizerError, match="log"):
                with Sanitizer():
                    ops.log(Tensor(np.array([1.0, 0.0]), requires_grad=True))
        assert not tensors_wanted()

    def test_collect_mode_attributes_span(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with Sanitizer(mode="collect") as san:
                with telemetry.Tracer():
                    with telemetry.span("unit.test.phase"):
                        x = Tensor(np.array([0.0, 2.0]), requires_grad=True)
                        ops.div(Tensor(np.ones(2)), x)
        report = san.report()
        assert not report.ok
        assert report.findings[0].context["span"] == "unit.test.phase"
        assert report.findings[0].context["op"] == "div"
        assert san.ops_checked > 0

    def test_clean_run_collects_nothing(self):
        with Sanitizer(mode="collect") as san:
            ops.tanh(Tensor(np.ones(8), requires_grad=True))
        assert san.report().ok


class TestVerifySecondOrder:
    def _force_path_fn(self, model, batch, fused_env):
        """Scalar energy as a function of (coords-subspace coefficients,
        output-layer bias) -- the derivative structure force training
        exercises under create_graph=True."""
        base = batch.coords
        rng = np.random.default_rng(3)
        d0 = Tensor(rng.standard_normal(base.shape) * 0.01)
        d1 = Tensor(rng.standard_normal(base.shape) * 0.01)

        def energy(alpha, wb):
            coords = ops.add(
                Tensor(base),
                ops.add(ops.mul(d0, alpha[0:1]), ops.mul(d1, alpha[1:2])),
            )
            p = model.param_tensors()
            p["fit_out_b"] = wb
            e = model.energy_graph(coords, batch, p=p, fused_env=fused_env)
            return ops.tsum(e)

        return energy

    def test_force_path_double_backward_certified(self, cu_model, cu_batch):
        """With the primitive-composed environment the whole force path
        is exact to any order: double backward matches central
        differences along coords *and* weight directions."""
        energy = self._force_path_fn(cu_model, cu_batch, fused_env=False)
        report = verify_second_order(
            energy, [np.zeros(2), cu_model.params["fit_out_b"]],
            label="force-path", eps=1e-5, atol=1e-5, rtol=1e-2,
        )
        assert report.ok, report.render()

    def test_fused_env_coord_curvature_caught(self, cu_model, cu_batch):
        """The fused Opt1 environment's hand-derived backward freezes its
        linear-map coefficients at the base coordinates: exact along
        weight directions (the training use), inexact for d2E/dcoords2.
        The dynamic checker must catch that boundary when probed along
        coordinate directions."""
        energy = self._force_path_fn(cu_model, cu_batch, fused_env=True)
        report = verify_second_order(
            energy, [np.zeros(2), cu_model.params["fit_out_b"]],
            label="fused-env", eps=1e-5, atol=1e-5, rtol=1e-2,
        )
        assert not report.ok
        assert report.findings[0].rule == "second-order-mismatch"

    def test_mismatch_becomes_finding(self):
        register_op("test_raw_sq2", second_order=False)

        def raw(x):
            def backward(g):
                return (Tensor(g.data * 2.0 * x.data),)

            return make_op(x.data ** 2, (x,), backward, "test_raw_sq2")

        def f(x):
            return ops.tsum(raw(x))

        report = verify_second_order(f, [np.ones(3)], label="raw")
        assert not report.ok
        assert report.findings[0].rule == "second-order-mismatch"
