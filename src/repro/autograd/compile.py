"""Tape compiler: fuse a recorded op tape into a replayable execution plan.

The FEKF step is shape-static: every iteration runs the *same* op
sequence over buffers of the same shapes (the JAX ``jit`` observation --
trace once, specialize, replay).  This module turns a tape recorded
through ``autograd.capture("tape", graph=True)`` into a
:class:`Program`:

* **No per-op allocation.**  Every op output gets a buffer from a
  reusable arena, allocated once at compile time; replay writes results
  with ``out=`` / ``np.copyto`` into stable buffers, so the thousands of
  temporaries an eager step allocates disappear.
* **View elision.**  ``reshape``/``transpose`` results that numpy serves
  as views are materialized *once* at compile time as views of the stable
  parent buffer -- zero work at replay.
* **Elementwise-chain fusion.**  Runs of elementwise kernels collapse
  into one ``fused_chain`` launch, spanning whatever the tape shows (a
  layer's bias-add + tanh + residual add, the switching-function
  polynomial, a backward closure cascade).
* **Opaque hand-written kernels.**  An op whose ``attrs`` declare a
  ``replay`` kernel (the Opt1 descriptor kernel ``env_fused`` and its
  vjp pair) replays as one step running that kernel's own numpy on the
  bound feeds; ops sharing a ``link`` share the intermediates the
  link's owner computes on each replay.
* **Precomputed broadcast/reduction geometry.**  Reduction axes, index
  tuples, broadcast targets and operand shapes are resolved at compile
  time; replay does no shape inference.

Replay is **bit-identical** to eager execution: every step mirrors the
exact numpy expression the eager op dispatch would run (same ufunc, same
reduction axis normalization, same pairwise summation), merely redirected
into preallocated buffers.  Selection ops (``where``/``maximum``) copy
bits rather than recompute, so not even sign-of-zero differs.

Inputs are rebound per replay through named *feeds*.  Leaves of the
traced graph resolve in three tiers:

1. tensors declared as section inputs (matched by identity),
2. arrays value-matched against named candidate feeds the caller
   supplies (batch masks, neighbor indices, shift vectors ...),
3. everything else is baked into the plan as a constant.

If a replay's feed shapes/dtypes diverge from the traced signature the
plan refuses with :class:`PlanMismatch` and the caller falls back to
eager (and may re-trace for the new signature; plans are cached by
tape CRC + shape signature via :meth:`Program.key`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import instrument as _instrument
from .capture import TapeRecorder, capture
from .instrument import record_launch, register_op
from .tensor import Tensor

__all__ = [
    "TraceSession",
    "Program",
    "PlanMismatch",
    "UnsupportedTrace",
    "compile_tape",
]

#: a run of these ops is collapsed into a single ``fused_chain`` launch
ELEMENTWISE_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "tanh",
    "sqrt", "abs", "sign", "cmp_mask", "maximum", "minimum", "where",
})

register_op("fused_chain", kind="fused")


class PlanMismatch(RuntimeError):
    """A replay's inputs diverge from the traced signature (shape/dtype
    changed, or a feed is missing).  The caller falls back to eager."""


class UnsupportedTrace(RuntimeError):
    """The tape contains structure the compiler cannot replay (an
    unknown op, or a parent produced outside any traced section)."""


# ---------------------------------------------------------------------------
# trace session: tape + section/input/output declarations
# ---------------------------------------------------------------------------
@dataclass
class Section:
    """One replayable slice of the tape.

    Sections share a single slot space (a later section may read buffers
    a former one produced -- the backward sweep reads forward
    activations), but replay independently: each ``Program.run`` call
    executes one section's steps after rebinding that section's feeds.
    """

    name: str
    inputs: dict = field(default_factory=dict)   # feed name -> input Tensor
    outputs: list = field(default_factory=list)  # output Tensors (set in-block)
    start: int = 0
    end: int = 0


class TraceSession:
    """Record a tape with full graph wiring plus section annotations.

    Usage::

        sess = TraceSession(candidates={"mask": batch.mask, ...})
        with sess:
            with sess.section("fwd", inputs={"w": w_tensor}) as sec:
                e = model.energy_graph(batch, ...)
                sec.outputs = [e]
            ...
        program = compile_tape(sess)

    ``candidates`` are named arrays that recur every step (neighbor
    indices, masks, shift vectors): any leaf constant on the tape whose
    value matches a candidate becomes a rebindable feed instead of a
    baked constant.
    """

    def __init__(self, candidates: Optional[dict] = None):
        self._cap = capture("tape", graph=True)
        self.tape: Optional[TapeRecorder] = None
        self.sections: list[Section] = []
        self.candidates: dict[str, np.ndarray] = {}
        self.add_candidates(candidates or {})

    def add_candidates(self, more: dict) -> None:
        for k, v in more.items():
            arr = np.asarray(v)
            self.candidates[k] = arr
            if arr.dtype == bool:
                # boolean masks recur on the tape as float {0,1} arrays
                # (the ``where`` backward mask); register the float view
                # under a derived name that ``Program.run`` knows how to
                # rebuild from the base feed
                self.candidates[k + ".f64"] = arr.astype(np.float64)

    def __enter__(self) -> "TraceSession":
        self.tape = self._cap.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._cap.__exit__(*exc)

    @contextmanager
    def section(self, name: str, inputs: Optional[dict] = None):
        if self.tape is None:
            raise RuntimeError("section() outside the recording context")
        sec = Section(name=name, inputs=dict(inputs or {}),
                      start=len(self.tape.entries))
        self.sections.append(sec)
        try:
            yield sec
        finally:
            sec.end = len(self.tape.entries)


# ---------------------------------------------------------------------------
# compiled program
# ---------------------------------------------------------------------------
class _Step:
    """One replay action: a closure writing into a stable buffer, plus
    the static launch metadata (mirroring what eager ``make_op`` would
    report to the instrumentation sinks)."""

    __slots__ = ("fn", "launch_name", "nbytes", "out_shape", "in_shapes", "fused")

    def __init__(self, fn, launch_name, nbytes, out_shape, in_shapes, fused=1):
        self.fn = fn
        self.launch_name = launch_name
        self.nbytes = nbytes
        self.out_shape = out_shape
        self.in_shapes = in_shapes
        self.fused = fused  # eager ops this launch replaces


@dataclass
class _CompiledSection:
    name: str
    steps: list = field(default_factory=list)
    #: feed names this section binds before executing (first read here)
    bind_names: tuple = ()
    #: output buffers, in declared order (views into the arena: valid
    #: until the next run touching their slots)
    out_bufs: tuple = ()


@dataclass
class PlanStats:
    """Per-plan telemetry, surfaced through optimizer ``stats()`` and the
    span pipeline."""

    compile_time_s: float = 0.0
    replays: int = 0
    traced_ops: int = 0
    steps: int = 0
    fused_ops: int = 0
    view_elisions: int = 0
    baked_consts: int = 0
    arena_bytes: int = 0
    #: bytes of per-op output allocation an eager execution would do per
    #: replay of the full program (the arena amortizes all of it)
    eager_alloc_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "compile_time_s": self.compile_time_s,
            "replays": self.replays,
            "traced_ops": self.traced_ops,
            "steps": self.steps,
            "fused_ops": self.fused_ops,
            "view_elisions": self.view_elisions,
            "baked_consts": self.baked_consts,
            "arena_bytes": self.arena_bytes,
            "eager_alloc_bytes": self.eager_alloc_bytes,
        }


class Program:
    """A compiled, replayable execution plan over a fixed-shape tape."""

    def __init__(self, sections, feed_sig, tape_crc, stats):
        self._sections: dict[str, _CompiledSection] = sections
        #: feed name -> (shape, dtype) signature the plan was traced at
        self.feed_sig: dict[str, tuple] = feed_sig
        self.tape_crc = tape_crc
        self.stats = stats

    def key(self) -> tuple:
        """Plan-cache key: tape CRC + the full shape signature."""
        return (self.tape_crc, tuple(sorted(
            (n, s, str(d)) for n, (s, d) in self.feed_sig.items()
        )))

    def section_names(self) -> tuple:
        return tuple(self._sections)

    def signature_of(self, section: str) -> dict:
        cs = self._sections[section]
        return {n: self.feed_sig[n] for n in cs.bind_names}

    def run(self, section: str, feeds: dict) -> list:
        """Replay one section, rebinding its feeds.

        Returns the section's output buffers *by reference*: they are
        owned by the plan's arena and stay valid until the next ``run``
        touching their slots -- copy anything that must survive.
        """
        cs = self._sections.get(section)
        if cs is None:
            raise PlanMismatch(f"program has no section {section!r}")
        for name in cs.bind_names:
            arr = feeds.get(name)
            if arr is None and name.endswith(".f64") and name[:-4] in feeds:
                arr = feeds[name[:-4]].astype(np.float64)
                feeds[name] = arr  # derived once, shared by later sections
            if arr is None:
                raise PlanMismatch(f"missing feed {name!r} for section {section!r}")
            shape, dtype = self.feed_sig[name]
            if arr.shape != shape or arr.dtype != dtype:
                raise PlanMismatch(
                    f"feed {name!r} diverged from traced signature: got "
                    f"{arr.shape}/{arr.dtype}, traced {shape}/{dtype}"
                )
        # all-or-nothing: validate every feed before mutating any buffer
        for name in cs.bind_names:
            np.copyto(self._feed_bufs[name], feeds[name], casting="no")
        want_shapes = _instrument._WANT_SHAPES > 0
        for st in cs.steps:
            st.fn(feeds)
            if want_shapes:
                record_launch(st.launch_name, st.nbytes, st.out_shape, st.in_shapes)
            else:
                record_launch(st.launch_name, st.nbytes)
        self.stats.replays += 1
        return list(cs.out_bufs)

    # populated by the compiler
    _feed_bufs: dict


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------
def _is_uniform(arr: np.ndarray) -> bool:
    """True for constant-valued arrays (all-zeros masks, ones_like fills):
    too degenerate to value-match safely."""
    if arr.size == 0:
        return True
    flat = arr.reshape(-1)
    return bool((flat == flat[0]).all())


def _match_candidate(arr: np.ndarray, candidates: dict) -> Optional[str]:
    """Name of the candidate feed ``arr`` corresponds to.

    Two passes.  *Strong*: the candidate IS the array (or a same-layout
    view over the same memory) -- always a match.  *Value*: bitwise-equal
    values of the same shape/dtype -- but uniform (constant-valued)
    arrays are excluded, because an all-True mask at trace time is
    indistinguishable from a programmatic ``ones_like`` constant, and
    binding the constant to a feed would corrupt later replays.
    """
    for name, cand in candidates.items():
        if cand.shape != arr.shape or cand.dtype != arr.dtype:
            continue
        if cand is arr or (
            np.shares_memory(cand, arr) and np.array_equal(cand, arr)
        ):
            return name
    if _is_uniform(arr):
        return None
    for name, cand in candidates.items():
        if cand.dtype == arr.dtype and cand.shape == arr.shape and np.array_equal(cand, arr):
            return name
    return None


class _Compiler:
    def __init__(self, session: TraceSession):
        if session.tape is None:
            raise UnsupportedTrace("session was never entered (no tape)")
        self.session = session
        self.entries = session.tape.entries
        self.stats = PlanStats(traced_ops=len(self.entries))
        # tensor id -> stable buffer (the slot space)
        self.buf: dict[int, np.ndarray] = {}
        # buffer id -> allocation root buffer id (views share their root)
        self.root: dict[int, int] = {}
        self.feed_bufs: dict[str, np.ndarray] = {}
        self.feed_sig: dict[str, tuple] = {}
        #: feed name -> section indices that (re)bind it before running.
        #: Declared inputs bind at the section that *declares* them -- so
        #: a backward section reads the same values its forward bound,
        #: and a later forward (e.g. the force graph after a weight
        #: update) rebinds fresh values.  Candidate feeds bind at every
        #: reading section (idempotent copies; always-correct values).
        self.feed_binder: dict[str, set] = {}
        # arena free-list: (shape, dtype) -> [root buffers]
        self.free: dict[tuple, list] = {}
        self.arena_roots: set[int] = set()
        # id(tensor) -> index of the last step (global order) reading it,
        # and the section that produced it (cross-section reads pin slots)
        self.last_use: dict[int, int] = {}
        self.producer_section: dict[int, int] = {}
        #: id(link) -> replay state shared by the opaque ops of one link
        self.link_state: dict[int, dict] = {}

    # -- feed/const registration ---------------------------------------
    def _register_feed(self, name: str, arr: np.ndarray, sec_idx: int) -> np.ndarray:
        buf = self.feed_bufs.get(name)
        if buf is None:
            buf = np.empty(arr.shape, dtype=arr.dtype)
            np.copyto(buf, arr)
            self.feed_bufs[name] = buf
            self.feed_sig[name] = (arr.shape, arr.dtype)
            self.root[id(buf)] = id(buf)
        elif self.feed_sig[name] != (arr.shape, arr.dtype):
            raise UnsupportedTrace(
                f"feed {name!r} bound at two signatures: "
                f"{self.feed_sig[name]} vs {(arr.shape, arr.dtype)}"
            )
        self.feed_binder.setdefault(name, set()).add(sec_idx)
        return buf

    def _resolve_leaf(self, t: Tensor, sec: Section, sec_idx: int) -> np.ndarray:
        # tier 1: declared section input (identity) -- binds at the
        # DECLARING section, so e.g. a stale-graph backward replays with
        # the weights its forward bound, not freshly rebound ones
        for dsi, s in enumerate(self.session.sections[: sec_idx + 1]):
            for name, inp in s.inputs.items():
                if inp is t:
                    return self._register_feed(name, t.data, dsi)
        # tier 2: value-matched candidate (binds at the reading section)
        name = _match_candidate(t.data, self.session.candidates)
        if name is not None:
            return self._register_feed(name, t.data, sec_idx)
        # tier 3: baked constant
        self.stats.baked_consts += 1
        buf = np.array(t.data, copy=True)
        self.root[id(buf)] = id(buf)
        return buf

    def _resolve_fmask(self, t: Tensor, cond, sec: Section, sec_idx: int) -> np.ndarray:
        """The float {0,1} mask leaf a ``where`` op records as its third
        parent.  Tie it to whatever feed its boolean ``cond`` resolves to
        (as ``<name>.f64``, derived per replay from the base bool feed)
        even when the trace-time mask is degenerate (all-True) and a
        value match alone could not distinguish it from a constant."""
        cond = np.asarray(cond)
        name = _match_candidate(cond, self.session.candidates)
        if name is not None:
            return self._register_feed(name + ".f64", t.data, sec_idx)
        return self._resolve_leaf(t, sec, sec_idx)

    def _resolve_array(self, arr, sec_idx: int):
        """Resolve an attr-embedded array (index array, where-cond):
        candidate-matched arrays become dynamic (resolved per replay from
        the feeds dict), everything else is baked.  Returns
        ``(getter, static_value_or_None)``."""
        arr = np.asarray(arr)
        name = _match_candidate(arr, self.session.candidates)
        if name is not None:
            self._register_feed(name, arr, sec_idx)
            shape, dtype = arr.shape, arr.dtype

            def get(feeds, _n=name, _s=shape, _d=dtype):
                a = feeds.get(_n)
                if a is None or a.shape != _s or a.dtype != _d:
                    raise PlanMismatch(f"dynamic index feed {_n!r} diverged")
                return a

            return get, None
        frozen = np.array(arr, copy=True)
        return (lambda feeds, _a=frozen: _a), frozen

    def _resolve_idx(self, idx, sec_idx: int):
        """An index expression (int/slice/array or a tuple of them) ->
        a per-replay getter.  Static when no component is a feed."""
        items = idx if isinstance(idx, tuple) else (idx,)
        getters = []
        dynamic = False
        for it in items:
            if isinstance(it, np.ndarray):
                g, frozen = self._resolve_array(it, sec_idx)
                getters.append(g)
                dynamic = dynamic or frozen is None
            else:
                getters.append(lambda feeds, _v=it: _v)
        if not isinstance(idx, tuple):
            single = getters[0]
            if not dynamic:
                static = single(None)
                return lambda feeds, _v=static: _v
            return single
        if not dynamic:
            static = tuple(g(None) for g in getters)
            return lambda feeds, _v=static: _v
        return lambda feeds, _gs=tuple(getters): tuple(g(feeds) for g in _gs)

    # -- arena ----------------------------------------------------------
    def _acquire(self, shape, dtype, in_bufs) -> np.ndarray:
        """A buffer for an op output: reused from the free-list when one
        is available that does not alias any input of the op."""
        key = (shape, np.dtype(dtype))
        forbidden = {self.root[id(b)] for b in in_bufs}
        pool = self.free.get(key, [])
        for i, cand in enumerate(pool):
            if id(cand) not in forbidden:
                pool.pop(i)
                return cand
        buf = np.empty(shape, dtype=dtype)
        self.root[id(buf)] = id(buf)
        self.root_buf[id(buf)] = buf
        self.arena_roots.add(id(buf))
        self.stats.arena_bytes += buf.nbytes
        return buf

    def _claim(self, t: Tensor, in_bufs) -> np.ndarray:
        """Acquire the output buffer for tape tensor ``t`` and register
        slot/root liveness."""
        out = self._acquire(t.data.shape, t.data.dtype, in_bufs)
        self.buf[id(t)] = out
        rid = self.root[id(out)]
        self.live_per_root[rid] = self.live_per_root.get(rid, 0) + 1
        return out

    def _release_dead(self, step_idx: int, persistent: set) -> None:
        """Return to the free-list every buffer whose tape tensor dies at
        ``step_idx``.  Reuse is strictly intra-section: buffers read by a
        later section -- or views of them -- never re-enter the pool,
        because sections replay independently and a cross-section slot
        must hold its value across replays."""
        for tid, last in self.dying.get(step_idx, ()):
            if tid in persistent:
                continue
            buf = self.buf.get(tid)
            if buf is None:
                continue
            rid = self.root[id(buf)]
            if rid not in self.arena_roots:
                continue  # feed or baked const: not arena-managed
            live = self.live_per_root.get(rid, 0) - 1
            self.live_per_root[rid] = live
            if live <= 0:
                rbuf = self.root_buf[rid]
                self.free.setdefault((rbuf.shape, rbuf.dtype), []).append(rbuf)

    # -- kernels ---------------------------------------------------------
    def _opaque(self, op: str, out: np.ndarray, ins, attrs, sec_idx: int):
        """The replay closure for an op with its own ``replay`` kernel.

        ``attrs["arrays"]`` (batch arrays) resolve like index arrays:
        feeds when candidate-matched, baked otherwise.  The owner of a
        ``link`` starts a fresh state dict that its kernel refills on
        every replay; the link's other ops read it, as their eager
        closures read the forward's intermediates."""
        link = id(attrs["link"])
        if attrs.get("owner"):
            state = self.link_state[link] = {}
        else:
            state = self.link_state.get(link)
            if state is None:
                raise UnsupportedTrace(
                    f"op {op!r} reads intermediates of a forward recorded "
                    "outside any section"
                )
        getters = {
            k: self._resolve_array(v, sec_idx)[0]
            for k, v in attrs.get("arrays", {}).items()
        }
        replay = attrs["replay"]

        def run(f, out=out, ins=tuple(ins), state=state):
            arrays = {k: g(f) for k, g in getters.items()}
            np.copyto(out, replay(ins, arrays, state))
        return run

    def _kernel(self, op: str, out: np.ndarray, ins, attrs, sec_idx: int):
        """The replay closure for one op: mirrors the eager numpy
        expression exactly, writing into ``out``."""
        if attrs is not None and "replay" in attrs:
            return self._opaque(op, out, ins, attrs, sec_idx)
        a = ins[0] if ins else None
        b = ins[1] if len(ins) > 1 else None
        if op == "add":
            return lambda f: np.add(a, b, out=out)
        if op == "sub":
            return lambda f: np.subtract(a, b, out=out)
        if op == "mul":
            return lambda f: np.multiply(a, b, out=out)
        if op == "div":
            return lambda f: np.divide(a, b, out=out)
        if op == "neg":
            return lambda f: np.negative(a, out=out)
        if op == "exp":
            return lambda f: np.exp(a, out=out)
        if op == "log":
            return lambda f: np.log(a, out=out)
        if op == "tanh":
            return lambda f: np.tanh(a, out=out)
        if op == "sqrt":
            return lambda f: np.sqrt(a, out=out)
        if op == "abs":
            return lambda f: np.absolute(a, out=out)
        if op == "sign":
            return lambda f: np.sign(a, out=out)
        if op == "pow":
            p = float(attrs["p"])
            return lambda f: np.power(a, p, out=out)
        if op == "cmp_mask":
            # eager: (a >= b).astype(float64); comparison ufuncs cast
            # bool -> float64 into out directly (a safe cast)
            if attrs["cmp"] == "ge":
                return lambda f: np.greater_equal(a, b, out=out)
            return lambda f: np.less_equal(a, b, out=out)
        if op in ("maximum", "minimum"):
            # eager: np.where(a >= b, a, b) -- replay as bitwise copy
            # selection into the stable buffer
            cmp = np.greater_equal if op == "maximum" else np.less_equal
            mask = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=bool)

            def run(f, a=a, b=b, out=out, mask=mask, cmp=cmp):
                cmp(a, b, out=mask)
                np.copyto(out, b)
                np.copyto(out, a, where=mask)
            return run
        if op == "where":
            get_cond = self._resolve_idx(attrs["cond"], sec_idx)

            def run(f, a=a, b=b, out=out, get_cond=get_cond):
                np.copyto(out, b)
                np.copyto(out, a, where=get_cond(f))
            return run
        if op == "sum":
            axis = attrs["axis"]
            axis = tuple(axis) if isinstance(axis, (list, tuple)) else axis
            keepdims = attrs["keepdims"]
            # np.add.reduce IS np.sum's reduction (same pairwise order,
            # bit-identical) minus the fromnumeric dispatch wrapper
            return lambda f: np.add.reduce(
                a, axis=axis, keepdims=keepdims, out=out
            )
        if op == "broadcast":
            # eager: np.broadcast_to(...).copy()
            return lambda f: np.copyto(out, a)
        if op == "concat":
            axis = attrs["axis"]
            srcs = tuple(ins)
            return lambda f: np.concatenate(srcs, axis=axis, out=out)
        if op == "matmul":
            return lambda f: np.matmul(a, b, out=out)
        if op == "gather":
            get_idx = self._resolve_idx(attrs["idx"], sec_idx)
            return lambda f: np.copyto(out, a[get_idx(f)])
        if op == "scatter_add":
            get_idx = self._resolve_idx(attrs["idx"], sec_idx)

            def run(f, a=a, out=out, get_idx=get_idx):
                out.fill(0.0)
                np.add.at(out, get_idx(f), a)
            return run
        raise UnsupportedTrace(f"op {op!r} has no replay kernel")

    # -- main pass -------------------------------------------------------
    def build(self) -> Program:
        t0 = time.perf_counter()
        sections = self.session.sections
        if not sections:
            raise UnsupportedTrace("trace has no sections")

        # global step order = concatenated section ranges; precompute
        # last-use and cross-section reads for the arena liveness scan
        order: list[tuple[int, int]] = []   # (section idx, entry idx)
        for si, sec in enumerate(sections):
            for ei in range(sec.start, sec.end):
                order.append((si, ei))
        entry_step = {ei: k for k, (si, ei) in enumerate(order)}
        read_sections: dict[int, set] = {}
        for k, (si, ei) in enumerate(order):
            e = self.entries[ei]
            for p in e.tensor._parents:
                self.last_use[id(p)] = k
                read_sections.setdefault(id(p), set()).add(si)
        for si, sec in enumerate(sections):
            for t in sec.outputs:
                self.last_use[id(t)] = len(order) + 1  # outputs never die
                read_sections.setdefault(id(t), set()).add(-1)

        # dying[step] -> [(tensor id, last step)]
        self.dying: dict[int, list] = {}
        for tid, last in self.last_use.items():
            self.dying.setdefault(last, []).append((tid, last))
        self.live_per_root: dict[int, int] = {}
        self.root_buf: dict[int, np.ndarray] = {}

        compiled: dict[str, _CompiledSection] = {}
        # the FULL tape, gaps included: a parent recorded outside every
        # section is a *computed* value we must not bake as a constant
        on_tape = {id(e.tensor) for e in self.entries}
        in_sections = {id(self.entries[ei].tensor) for _, ei in order}
        persistent: set[int] = set()

        for si, sec in enumerate(sections):
            if sec.name in compiled:
                raise UnsupportedTrace(f"duplicate section name {sec.name!r}")
            cs = _CompiledSection(name=sec.name)
            pending: list[_Step] = []        # elementwise run being fused

            def flush():
                if not pending:
                    return
                if len(pending) == 1:
                    cs.steps.append(pending[0])
                else:
                    subs = tuple(st.fn for st in pending)

                    def chain(f, _subs=subs):
                        for fn in _subs:
                            fn(f)
                    total_nb = sum(st.nbytes for st in pending)
                    cs.steps.append(_Step(
                        chain, "fused_chain", total_nb,
                        pending[-1].out_shape,
                        tuple(st.out_shape for st in pending),
                        fused=len(pending),
                    ))
                    self.stats.fused_ops += len(pending)
                pending.clear()

            for ei in range(sec.start, sec.end):
                e = self.entries[ei]
                t = e.tensor
                step_idx = entry_step[ei]
                # resolve parents
                in_bufs = []
                for p in t._parents:
                    pb = self.buf.get(id(p))
                    if pb is None:
                        if id(p) in on_tape and id(p) not in in_sections:
                            raise UnsupportedTrace(
                                f"parent of op {e.op!r} produced outside any "
                                f"section (tape #{e.seq})"
                            )
                        if e.op == "where" and p is t._parents[2]:
                            pb = self._resolve_fmask(p, t._attrs["cond"], sec, si)
                        else:
                            pb = self._resolve_leaf(p, sec, si)
                        self.buf[id(p)] = pb
                    in_bufs.append(pb)
                # cross-section consumers pin the slot out of the arena pool
                rs = read_sections.get(id(t), set())
                if rs - {si}:
                    persistent.add(id(t))
                self.producer_section[id(t)] = si

                if e.op in ("reshape", "transpose"):
                    src = in_bufs[0]
                    if e.op == "reshape":
                        view = src.reshape(t.data.shape)
                    else:
                        view = np.transpose(src, t._attrs["axes"])
                    if np.shares_memory(view, src):
                        # pure view of a stable buffer: materialize once,
                        # nothing to do at replay.  The view slot joins
                        # its root's liveness group so the root buffer is
                        # not reused while any view of it is still read.
                        self.buf[id(t)] = view
                        rid = self.root[id(src)]
                        self.root[id(view)] = rid
                        self.live_per_root[rid] = self.live_per_root.get(rid, 0) + 1
                        self.stats.view_elisions += 1
                        self._release_dead(step_idx, persistent)
                        continue
                    # reshape of a non-contiguous source copies in eager;
                    # mirror with an explicit copy step
                    out = self._claim(t, in_bufs)
                    fn = (lambda f, _s=src, _o=out, _sh=t.data.shape:
                          np.copyto(_o, _s.reshape(_sh)))
                    flush()
                    cs.steps.append(_Step(
                        fn, e.op, t.data.nbytes, t.data.shape,
                        tuple(p.data.shape for p in t._parents),
                    ))
                    self.stats.eager_alloc_bytes += t.data.nbytes
                    self._release_dead(step_idx, persistent)
                    continue

                out = self._claim(t, in_bufs)
                fn = self._kernel(e.op, out, in_bufs, t._attrs, si)
                st = _Step(fn, e.op, t.data.nbytes, t.data.shape,
                           tuple(p.data.shape for p in t._parents))
                self.stats.eager_alloc_bytes += t.data.nbytes
                if e.op in ELEMENTWISE_OPS:
                    pending.append(st)
                else:
                    flush()
                    cs.steps.append(st)
                self._release_dead(step_idx, persistent)
            flush()
            # intra-section-only reuse: drain the pool at the boundary
            self.free.clear()

            out_bufs = []
            for t in sec.outputs:
                buf = self.buf.get(id(t))
                if buf is None:
                    # an output that is not an op on the tape: a leaf the
                    # caller handed through unchanged (e.g. the zeros an
                    # unused parameter gets from grad()) -- bake it
                    buf = self._resolve_leaf(t, sec, si)
                    self.buf[id(t)] = buf
                out_bufs.append(buf)
            cs.out_bufs = tuple(out_bufs)
            compiled[sec.name] = cs

        for name, sis in self.feed_binder.items():
            for si in sorted(sis):
                cs = compiled[sections[si].name]
                cs.bind_names = cs.bind_names + (name,)

        self.stats.steps = sum(len(c.steps) for c in compiled.values())
        self.stats.compile_time_s = time.perf_counter() - t0
        prog = Program(compiled, self.feed_sig, self.session.tape.crc(), self.stats)
        prog._feed_bufs = self.feed_bufs
        return prog


def compile_tape(session: TraceSession) -> Program:
    """Compile a completed :class:`TraceSession` into a :class:`Program`."""
    return _Compiler(session).build()
