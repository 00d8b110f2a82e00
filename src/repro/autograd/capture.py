"""One entry point for every op-stream observer: ``autograd.capture``.

Every observer -- tape recording, the NaN/Inf sanitizer, the op
profiler -- sits on the same thread-local launch-sink stack of
:mod:`repro.autograd.instrument`; this module folds them behind a single
composable context manager::

    with capture("tape") as tape:            # op tape (graph-lint, compiler)
        loss = model(batch)

    with capture("count") as kc:             # kernel-launch counting
        ...
    kc.total_launches

    with capture("sanitize", mode="collect") as san:   # NaN/Inf guard
        ...

    with Tracer(keep_events=True) as tr:
        with capture("profile", tracer=tr):  # span-attributed op timeline
            ...
    tr.profiler.events

Captures *compose and nest* freely -- each pushes exactly one sink on the
calling thread's stack, so a sanitizer inside a tape inside a counter all
observe the same ops.  The tape compiler consumes tapes exclusively
through this surface (``capture("tape", graph=True)`` forces graph edges
onto every op output so the recorded tape carries complete parentage).

The sink classes themselves (:class:`TapeRecorder`, :class:`Sanitizer`)
live here; :mod:`repro.analysis.graphlint` re-exports them.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from .instrument import KernelCounter, push_sink, remove_sink
from .tensor import Tensor

__all__ = [
    "TapeEntry",
    "TapeRecorder",
    "Sanitizer",
    "SanitizerError",
    "capture",
]


class TapeEntry:
    """One op output captured on the tape.

    Holds the live tensor (the tape pins the graph alive for the linter
    and the compiler) plus a CRC of the buffer at record time, so later
    mutation of the recorded array -- autograd's cardinal sin -- is
    detectable.
    """

    __slots__ = ("tensor", "op", "seq", "crc")

    def __init__(self, tensor: Tensor, seq: int):
        self.tensor = tensor
        self.op = tensor._op
        self.seq = seq
        self.crc = zlib.crc32(np.ascontiguousarray(tensor.data).tobytes())

    def mutated(self) -> bool:
        return zlib.crc32(np.ascontiguousarray(self.tensor.data).tobytes()) != self.crc


class TapeRecorder:
    """Launch sink that captures every op output tensor (and every raw
    kernel-launch name) on the installing thread."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.launch_names: list[str] = []

    # sink protocol -----------------------------------------------------
    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        self.launch_names.append(op_name)

    def record_tensor(self, tensor: Tensor) -> None:
        self.entries.append(TapeEntry(tensor, len(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def crc(self) -> int:
        """CRC of the tape *structure* (op sequence + buffer CRCs): the
        identity half of a compiled-plan cache key."""
        acc = 0
        for e in self.entries:
            acc = zlib.crc32(e.op.encode(), acc)
            acc = zlib.crc32(e.crc.to_bytes(4, "little"), acc)
        return acc


# ---------------------------------------------------------------------------
# dynamic NaN/Inf sanitizer
# ---------------------------------------------------------------------------
class SanitizerError(FloatingPointError):
    """Raised by :class:`Sanitizer` in ``raise`` mode at the first
    non-finite op output."""


class Sanitizer:
    """NaN/Inf guard hooks on every op, with telemetry-span attribution.

    The sink behind ``capture("sanitize")``: checks every op output on the
    installing thread for non-finite values as it is produced.  Each hit
    records the op name, the count of non-finite elements, and the
    innermost open telemetry span (e.g. ``fekf.backward``) so the failure
    is attributed to a training phase, not discovered epochs later in a
    loss printout.  ``mode="raise"`` (default) aborts at the first hit;
    ``mode="collect"`` accumulates findings for :meth:`report`.

    Usable directly as a context manager (the historical surface)::

        with Sanitizer(mode="collect") as san:
            trainer.run(...)
        print(san.report().render())
    """

    def __init__(self, mode: str = "raise", max_findings: int = 100):
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.max_findings = max_findings
        self.findings: list = []
        self.ops_checked = 0

    # sink protocol -----------------------------------------------------
    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        pass  # launches carry no buffer to check

    def record_tensor(self, tensor: Tensor) -> None:
        data = tensor.data
        if data.dtype.kind != "f":
            return
        self.ops_checked += 1
        if np.isfinite(data).all():
            return
        # deferred imports: autograd must stay importable without the
        # telemetry/analysis packages being initialized first
        from ..analysis.findings import Finding
        from ..telemetry.trace import current_span_name

        bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
        span = current_span_name()
        where = f" in span {span!r}" if span else ""
        finding = Finding(
            rule="non-finite",
            message=f"op {tensor._op!r} produced {bad} non-finite "
                    f"value(s){where}",
            context={"op": tensor._op, "span": span, "count": bad},
        )
        self.findings.append(finding)
        if self.mode == "raise":
            raise SanitizerError(finding.render())
        if len(self.findings) >= self.max_findings:
            raise SanitizerError(
                f"sanitizer collected {len(self.findings)} non-finite ops; "
                f"aborting (raise max_findings to keep going)"
            )

    # lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        push_sink(self, wants_tensors=True)
        return self

    def __exit__(self, *exc) -> None:
        remove_sink(self, wants_tensors=True)

    def report(self):
        from ..analysis.findings import Report

        rep = Report(tool="sanitizer", checks_run=["non-finite"])
        rep.findings.extend(self.findings)
        rep.metrics["ops_checked"] = self.ops_checked
        return rep


# ---------------------------------------------------------------------------
# the unified entry point
# ---------------------------------------------------------------------------
class capture:
    """Install one op-stream observer on the calling thread.

    Parameters
    ----------
    kind:
        ``"tape"``    -- record every op output (returns :class:`TapeRecorder`);
        ``"count"``   -- count kernel launches (returns
        :class:`~repro.autograd.instrument.KernelCounter`);
        ``"sanitize"`` -- NaN/Inf guard (returns :class:`Sanitizer`);
        ``"profile"`` -- span-attributed op timing (returns
        :class:`~repro.telemetry.profile.Profiler`).
    graph:
        ``kind="tape"`` only: force graph edges (``_parents`` /
        ``_backward_fn``) onto *every* recorded op output, so the tape
        exposes the complete forward dataflow even through no-grad
        regions.  Required by the tape compiler; never changes what
        ``backward`` computes.
    mode, max_findings:
        ``kind="sanitize"`` only: forwarded to :class:`Sanitizer`.
    tracer:
        ``kind="profile"`` only: the :class:`~repro.telemetry.trace.Tracer`
        whose spans attribute the op events.  The tracer must be (or get)
        installed on the same thread; when omitted, a private
        ``Tracer(keep_events=True)`` is created and installed for the
        capture's extent.  The profiler is attached as ``tracer.profiler``
        so downstream span/trace consumers find the op timeline in the
        usual place.
    held_threshold_s:
        ``kind="locks"`` only: holds longer than this become
        ``lock-held-too-long`` warnings on the recorder's report.

    Two further kinds observe the *lock* stream rather than the op
    stream (see :mod:`repro.analysis.concurrency`):

    ``"locks"``  -- install a
    :class:`~repro.analysis.concurrency.LockOrderRecorder` recording
    acquire-order edges of every :class:`TrackedLock`; ``"races"`` --
    install a :class:`~repro.analysis.concurrency.RaceChecker`
    validating every :class:`Guarded` field access against its declared
    lock.  Unlike the op sinks these are **process-global** (they must
    observe every thread, not just the installing one); they still
    compose and nest freely with each other and with op captures.

    Captures compose: nesting any combination pushes independent sinks
    that all observe the same op stream, and each ``__exit__`` removes
    only its own sink.
    """

    KINDS = ("tape", "count", "sanitize", "profile", "locks", "races")

    def __init__(
        self,
        kind: str = "tape",
        *,
        graph: bool = False,
        mode: str = "raise",
        max_findings: int = 100,
        tracer=None,
        held_threshold_s: Optional[float] = None,
    ):
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown capture kind {kind!r}; expected one of {self.KINDS}"
            )
        if graph and kind != "tape":
            raise ValueError("graph=True only applies to kind='tape'")
        if tracer is not None and kind != "profile":
            raise ValueError("tracer= only applies to kind='profile'")
        if held_threshold_s is not None and kind != "locks":
            raise ValueError("held_threshold_s= only applies to kind='locks'")
        self.kind = kind
        self.graph = bool(graph)
        self._tracer = tracer
        self._owns_tracer = False
        self._held_threshold_s = held_threshold_s
        if kind == "tape":
            self.sink = TapeRecorder()
        elif kind == "count":
            self.sink = KernelCounter()
        elif kind == "sanitize":
            self.sink = Sanitizer(mode=mode, max_findings=max_findings)
        else:  # profile/locks/races: lazy deps, sink built on enter
            self.sink = None

    def __enter__(self):
        if self.kind == "locks":
            from ..analysis.concurrency.locks import (
                LockOrderRecorder,
                install_recorder,
            )

            kwargs = {} if self._held_threshold_s is None \
                else {"held_threshold_s": self._held_threshold_s}
            recorder = LockOrderRecorder(**kwargs)
            install_recorder(recorder)
            self.sink = recorder
            return recorder
        if self.kind == "races":
            from ..analysis.concurrency.guard import (
                RaceChecker,
                install_checker,
            )

            checker = RaceChecker()
            install_checker(checker)
            self.sink = checker
            return checker
        if self.kind == "profile":
            from ..telemetry.profile import Profiler
            from ..telemetry.trace import Tracer

            tracer = self._tracer
            if tracer is None:
                tracer = Tracer(keep_events=True)
                tracer.__enter__()
                self._owns_tracer = True
                self._tracer = tracer
            prof = Profiler(tracer)
            tracer.profiler = prof
            prof.install()
            self.sink = prof
            return prof
        push_sink(
            self.sink,
            wants_tensors=self.kind in ("tape", "sanitize"),
            wants_graph=self.graph,
        )
        return self.sink

    def __exit__(self, *exc) -> None:
        if self.kind == "locks":
            from ..analysis.concurrency.locks import uninstall_recorder

            uninstall_recorder(self.sink)
            return
        if self.kind == "races":
            from ..analysis.concurrency.guard import uninstall_checker

            uninstall_checker(self.sink)
            return
        if self.kind == "profile":
            self.sink.uninstall()
            if self._owns_tracer:
                self._tracer.__exit__(*exc)
            return
        remove_sink(
            self.sink,
            wants_tensors=self.kind in ("tape", "sanitize"),
            wants_graph=self.graph,
        )
