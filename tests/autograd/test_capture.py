"""The unified ``autograd.capture`` surface: kinds, composition, shims."""

import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, capture, grad, no_grad, ops
from repro.autograd.capture import Sanitizer, SanitizerError, TapeRecorder
from repro.autograd.instrument import KernelCounter
from repro.telemetry.trace import Tracer


def _forward():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ops.mul(ops.add(a, a), a)
    return a, ops.tsum(ops.tanh(b))


class TestKinds:
    def test_tape_records_op_outputs(self):
        with capture("tape") as tape:
            _, out = _forward()
        assert isinstance(tape, TapeRecorder)
        assert [e.op for e in tape.entries] == ["add", "mul", "tanh", "sum"]
        assert len(tape) == 4
        assert tape.entries[-1].tensor is out

    def test_count_counts_launches(self):
        with capture("count") as kc:
            _forward()
        assert isinstance(kc, KernelCounter)
        assert kc.total_launches == 4
        assert kc.launches["tanh"] == 1

    def test_sanitize_raises_on_nonfinite(self):
        with pytest.raises(SanitizerError, match="non-finite"):
            with capture("sanitize"):
                ops.div(Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_sanitize_collect_reports(self):
        with capture("sanitize", mode="collect") as san:
            ops.div(Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert isinstance(san, Sanitizer)
        rep = san.report()
        assert not rep.ok
        assert rep.findings[0].context["op"] == "div"

    def test_profile_with_explicit_tracer(self):
        with Tracer(keep_events=True) as tr:
            with capture("profile", tracer=tr) as prof:
                _forward()
        assert tr.profiler is prof
        assert [ev.name for ev in prof.events] == ["add", "mul", "tanh", "sum"]

    def test_profile_owns_private_tracer(self):
        with capture("profile") as prof:
            _forward()
        assert len(prof.events) == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown capture kind"):
            capture("trace")

    def test_arg_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="graph=True"):
            capture("count", graph=True)
        with pytest.raises(ValueError, match="tracer="):
            capture("tape", tracer=object())


class TestComposition:
    def test_nested_captures_observe_same_ops(self):
        with capture("count") as outer:
            with capture("tape") as tape:
                with capture("count") as inner:
                    _forward()
        assert outer.total_launches == inner.total_launches == 4
        assert len(tape) == 4

    def test_exit_removes_only_own_sink(self):
        with capture("count") as outer:
            with capture("count"):
                _forward()
            before = outer.total_launches
            _forward()
        assert outer.total_launches == 2 * before

    def test_tape_graph_wires_parents_under_no_grad(self):
        with no_grad():
            with capture("tape", graph=True) as tape:
                _, out = _forward()
            assert tape.entries[-1].tensor._parents  # edges despite no_grad
        with no_grad():
            with capture("tape") as plain:
                _, out = _forward()
            assert not plain.entries[-1].tensor._parents

    def test_graph_capture_does_not_enable_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with capture("tape", graph=True):
            out = ops.tsum(ops.mul(a, a))
        (g,) = grad(out, [a])
        assert np.array_equal(g.data, 2 * np.ones(3))

    def test_tape_crc_tracks_structure_and_values(self):
        with capture("tape") as t1:
            _forward()
        with capture("tape") as t2:
            _forward()
        assert t1.crc() == t2.crc()
        with capture("tape") as t3:
            a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            ops.tsum(ops.tanh(ops.mul(ops.add(a, a), Tensor(2 * np.ones((2, 3))))))
        assert t3.crc() != t1.crc()

    def test_entry_mutation_detected(self):
        with capture("tape") as tape:
            _forward()
        entry = tape.entries[1]
        assert not entry.mutated()
        entry.tensor.data[0, 0] += 1.0
        assert entry.mutated()


class TestDeprecatedShims:
    def test_sanitizer_direct_context_manager_still_works(self):
        # the historical surface: Sanitizer() used directly as a CM
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's log-of-zero warning
            warnings.simplefilter("error", DeprecationWarning)
            with Sanitizer(mode="collect") as san:
                ops.log(Tensor(np.zeros(2)))
        assert len(san.findings) == 1
