"""Pluggable rank-worker executors plus the one crash-recovery policy.

Three executor clients -- the data-parallel trainer
(:class:`~repro.parallel.trainer.DistributedFEKF`), the inference service
(:class:`~repro.serve.InferenceService`) and the prefetching loader
(:class:`~repro.data.StreamingLoader`) -- run rank workers (gradient,
predict and prefetch workers) through the backends defined here:

* :class:`SerialExecutor` -- every rank's worker runs in the calling
  thread, one after another.  The deterministic default; zero
  concurrency hazards, real per-rank replicas.
* :class:`ThreadExecutor` -- one pool thread per rank.  The gradient math
  bottoms out in BLAS kernels that release the GIL, so shard compute
  overlaps on a multi-core host with zero serialization cost for the
  shard payloads (shared address space).
* :class:`ProcessExecutor` -- one persistent worker process per rank,
  each holding its own replica.  Per-step traffic is the shard (once)
  plus the per-update weight *delta* broadcast -- mirroring the paper's
  Sec. 3.3 argument that only gradients ever travel, never P.

All three speak the same protocol (``start`` / ``submit`` / ``broadcast``
/ ``heal`` / ``close``) and, for a fixed seed, produce bit-identical
results: the per-rank computation is a pure function of its inputs and
the parent always consumes results in rank order.

Recovery policy -- one implementation for every client; a worker crash
costs wall time, never a step, a batch or the run.  Each step is counted
with a ``client`` label (``trainer`` / ``serve`` / ``loader``):

1. *Retry* (``parallel.worker_retries``): :meth:`Executor.submit` reruns
   a task that raised once on its rank; a second failure or a dead worker
   process raises :class:`WorkerCrash`.
2. *Fallback* (``parallel.serial_fallbacks``): under :class:`Supervised`
   the first crash switches that call, and every later one, to the
   client's local bit-identical ``fallback(rank, method, args, capture)``.
3. *Heal* (``parallel.executor_heals``): at its next consistent point the
   client calls :meth:`Supervised.recover`, which respawns dead ranks,
   pushes the weights and leaves the fallback.  If the heal raises, the
   pool is closed and the fallback serves for good (counted once).

The default backend is selected by the ``REPRO_EXECUTOR`` environment
variable (``serial`` / ``thread`` / ``process``; unset means serial), so
CI can run the whole parallel suite under each backend unchanged.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from abc import ABC, abstractmethod
from concurrent import futures
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..optim.worker import TaskResult
from ..telemetry import metrics as _metrics

__all__ = [
    "EXECUTOR_ENV",
    "EXECUTOR_NAMES",
    "WorkerCrash",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "Supervised",
    "make_executor",
]

#: environment variable naming the default backend (see :func:`make_executor`)
EXECUTOR_ENV = "REPRO_EXECUTOR"
EXECUTOR_NAMES = ("serial", "thread", "process")


class WorkerCrash(RuntimeError):
    """A rank failed its task twice (or its process died)."""

    def __init__(self, rank: int, method: str, reason: str):
        super().__init__(f"rank {rank} failed task {method!r}: {reason}")
        self.rank = rank
        self.method = method
        self.reason = reason


def _try_run(worker, method: str, args: tuple, capture) -> "TaskResult | Exception":
    """One in-process task attempt; a raised exception is returned."""
    try:
        return worker.run(method, args, capture)
    except Exception as exc:
        return exc


class Executor(ABC):
    """One worker per rank plus a dispatch protocol.

    ``submit`` takes one ``(method, args)`` call per rank and returns the
    rank-ordered :class:`TaskResult` list; ``broadcast`` sends the same
    call to every rank.  A task that raises is retried once on its rank;
    both raise :class:`WorkerCrash` when a rank fails twice or dies.
    Backends implement a single attempt (:meth:`_attempt`).
    """

    name = "abstract"
    #: ``client`` label of the retry counter (set by :class:`Supervised`)
    client = "none"

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = int(world_size)
        self._started = False

    # ------------------------------------------------------------------
    @abstractmethod
    def start(self, spec) -> None:
        """Build/spawn one worker per rank from ``spec``."""

    @abstractmethod
    def _attempt(self, calls: list, capture) -> list:
        """Run every ``(rank, method, args)`` call once, in parallel where
        the backend can.  A task that raised comes back as its exception;
        a rank that cannot run (dead process) as a :class:`WorkerCrash`."""

    @abstractmethod
    def close(self) -> None:
        """Tear down workers (idempotent)."""

    # ------------------------------------------------------------------
    def submit(
        self, calls: Sequence[tuple[str, tuple]], capture: "bool | str" = False
    ) -> list[TaskResult]:
        """Dispatch one ``(method, args)`` call per rank; rank order out.
        Every rank finishes before a crash surfaces (no straggler races
        the caller's recovery)."""
        self._check_calls(calls)
        results: list[Optional[TaskResult]] = [None] * self.world_size
        pending = [(rank, method, args) for rank, (method, args) in enumerate(calls)]
        crash: Optional[WorkerCrash] = None
        for attempt in range(2):
            retry = []
            for call, out in zip(pending, self._attempt(pending, capture)):
                if isinstance(out, TaskResult):
                    results[call[0]] = out
                elif attempt == 0 and not isinstance(out, WorkerCrash):
                    retry.append(call)
                elif crash is None:
                    crash = out if isinstance(out, WorkerCrash) else WorkerCrash(
                        call[0], call[1], repr(out)
                    )
            if not retry:
                break
            _metrics.REGISTRY.counter(
                "parallel.worker_retries", client=self.client
            ).inc(len(retry))
            pending = retry
        if crash is not None:
            raise crash
        return results

    def broadcast(self, method: str, *args, capture: bool = False) -> list[TaskResult]:
        """Run the same call on every rank (e.g. the weight-delta sync)."""
        return self.submit([(method, args)] * self.world_size, capture=capture)

    def heal(self, spec, weights: Optional[np.ndarray] = None) -> None:
        """Restore every rank to a healthy, bit-identical state: respawn
        whatever died and push the parent's ``weights`` (workers without
        weights, e.g. prefetch ranks, pass ``None``)."""
        self._respawn_dead(spec)
        if weights is not None:
            self.broadcast("set_weights", weights)

    def _respawn_dead(self, spec) -> None:
        """Backends with mortal workers (processes) override this."""

    def _check_calls(self, calls: Sequence[tuple[str, tuple]]) -> None:
        if not self._started:
            raise RuntimeError("executor not started (call start(spec) first)")
        if len(calls) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} calls, got {len(calls)}"
            )

    # ------------------------------------------------------------------
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class SerialExecutor(Executor):
    """All ranks run sequentially in the calling thread.

    The deterministic reference backend (and the default): identical
    semantics to the concurrent backends -- per-rank replicas, the same
    task vocabulary -- with none of the scheduling.
    """

    name = "serial"

    def __init__(self, world_size: int):
        super().__init__(world_size)
        self.workers: list = []

    def start(self, spec) -> None:
        self.workers = [spec.build(rank=r) for r in range(self.world_size)]
        self._started = True

    def _attempt(self, calls, capture):
        return [_try_run(self.workers[r], m, a, capture) for r, m, a in calls]

    def close(self) -> None:
        self.workers = []
        self._started = False


class ThreadExecutor(Executor):
    """One pool thread per rank; shard compute overlaps where BLAS
    releases the GIL.  Worker state is rank-private (each rank owns its
    replica and is only ever touched by one in-flight task), and worker
    telemetry is captured under thread-local tracers, so no parent state
    is shared mutably across threads."""

    name = "thread"

    def __init__(self, world_size: int):
        super().__init__(world_size)
        self.workers: list = []
        self._pool: Optional[futures.ThreadPoolExecutor] = None

    def start(self, spec) -> None:
        self.workers = [spec.build(rank=r) for r in range(self.world_size)]
        self._pool = futures.ThreadPoolExecutor(
            max_workers=self.world_size, thread_name_prefix="fekf-rank"
        )
        self._started = True

    def _attempt(self, calls, capture):
        fs = [
            self._pool.submit(_try_run, self.workers[r], m, a, capture)
            for r, m, a in calls
        ]
        # collect in rank order, not completion order (determinism of
        # the reduction)
        return [f.result() for f in fs]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.workers = []
        self._started = False


def _process_main(conn, spec, rank: int) -> None:
    """Worker-process loop: build a replica once, serve tasks until EOF.

    Exceptions raised by a task are reported back as ``("err", reason)``
    -- the process survives, so the parent's retry hits a live worker.
    """
    worker = spec.build(rank=rank)
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            method, args, capture = msg
            try:
                result = worker.run(method, args, capture)
                conn.send(("ok", result))
            except Exception as exc:
                conn.send(("err", repr(exc)))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        conn.close()


class ProcessExecutor(Executor):
    """One persistent worker process per rank.

    Each process builds its replica once and then receives only task
    messages -- for a training step that is the shard (once) and the
    per-update weight deltas, never the model and never P.  A task that
    raises leaves its process alive for the retry; a rank whose *process*
    dies is a :class:`WorkerCrash` at once and is respawned by ``heal``.
    """

    name = "process"

    def __init__(self, world_size: int, start_method: Optional[str] = None):
        super().__init__(world_size)
        self._ctx = (
            mp.get_context(start_method) if start_method else mp.get_context()
        )
        self._procs: list[Optional[mp.process.BaseProcess]] = []
        self._conns: list[Optional[Any]] = []
        self._dead: set[int] = set()

    # ------------------------------------------------------------------
    def _spawn(self, spec, rank: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_process_main,
            args=(child_conn, spec, rank),
            name=f"fekf-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn
        self._dead.discard(rank)

    def start(self, spec) -> None:
        self._procs = [None] * self.world_size
        self._conns = [None] * self.world_size
        self._dead = set()
        for rank in range(self.world_size):
            self._spawn(spec, rank)
        self._started = True

    # ------------------------------------------------------------------
    def _send(self, rank: int, msg) -> None:
        if rank in self._dead:
            raise WorkerCrash(rank, msg[0] if msg else "?", "worker process dead")
        try:
            self._conns[rank].send(msg)
        except (OSError, BrokenPipeError, ValueError) as exc:
            self._mark_dead(rank)
            raise WorkerCrash(
                rank, msg[0] if msg else "?", f"send failed: {exc!r}"
            ) from exc

    def _recv(self, rank: int, method: str):
        try:
            return self._conns[rank].recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(rank)
            raise WorkerCrash(
                rank, method, f"worker process died: {exc!r}"
            ) from exc

    def _mark_dead(self, rank: int) -> None:
        self._dead.add(rank)
        _metrics.REGISTRY.counter("parallel.worker_deaths").inc()

    def _attempt(self, calls, capture):
        # overlap: post every rank's task before collecting any result;
        # every successfully sent task must also be received (even after
        # another rank crashed), or the pipe protocol would desync
        outs: dict[int, Any] = {}
        sent = []
        for rank, method, args in calls:
            try:
                self._send(rank, (method, args, capture))
                sent.append((rank, method))
            except WorkerCrash as exc:
                outs[rank] = exc
        for rank, method in sent:
            try:
                status, payload = self._recv(rank, method)
            except WorkerCrash as exc:
                outs[rank] = exc
                continue
            outs[rank] = payload if status == "ok" else RuntimeError(payload)
        return [outs[rank] for rank, _, _ in calls]

    # ------------------------------------------------------------------
    def _respawn_dead(self, spec) -> None:
        for rank in range(self.world_size):
            proc = self._procs[rank]
            if rank in self._dead or proc is None or not proc.is_alive():
                if proc is not None:
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover - stuck child
                        proc.terminate()
                if self._conns[rank] is not None:
                    self._conns[rank].close()
                self._spawn(spec, rank)
                _metrics.REGISTRY.counter("parallel.worker_respawns").inc()

    def close(self) -> None:
        for rank, conn in enumerate(self._conns):
            if conn is None or rank in self._dead:
                continue
            try:
                conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck child
                    proc.terminate()
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._procs = []
        self._conns = []
        self._dead = set()
        self._started = False


class Supervised:
    """An executor under the recovery policy (module docstring, steps 2-3).

    Speaks the executor protocol, so a client holds it in place of the
    bare executor and supplies only ``fallback``: its local reproduction
    of one rank's task (state tasks may return an empty result).  With
    ``executor=None`` the fallback always serves -- the state a failed
    heal leaves behind.
    """

    def __init__(
        self,
        executor: Optional[Executor],
        spec,
        fallback: Callable[[int, str, tuple, Any], TaskResult],
        client: str,
    ):
        if executor is not None:
            executor.client = client
            executor.start(spec)
        self.executor = executor
        self.name = executor.name if executor is not None else "fallback"
        self.world_size = executor.world_size if executor is not None else 1
        self.spec = spec
        self.fallback = fallback
        self.client = client
        self.degraded = False
        #: degraded-mode entries over this supervisor's life
        self.fallbacks = 0

    def submit(
        self, calls: Sequence[tuple[str, tuple]], capture: "bool | str" = False
    ) -> list[TaskResult]:
        """The executor's results or, from a crash until :meth:`recover`,
        the fallback's."""
        if self.executor is not None and not self.degraded:
            try:
                return self.executor.submit(calls, capture=capture)
            except WorkerCrash:
                self.degraded = True
                self.fallbacks += 1
                _metrics.REGISTRY.counter(
                    "parallel.serial_fallbacks", client=self.client
                ).inc()
        return [
            self.fallback(rank, method, args, capture)
            for rank, (method, args) in enumerate(calls)
        ]

    def broadcast(self, method: str, *args, capture: bool = False) -> list[TaskResult]:
        return self.submit([(method, args)] * self.world_size, capture=capture)

    def recover(self, weights: Optional[np.ndarray] = None) -> bool:
        """Heal a degraded pool (no-op otherwise); True when it healed."""
        if not self.degraded or self.executor is None:
            return False
        try:
            self.executor.heal(self.spec, weights)
        except Exception:
            self.executor.close()
            self.executor = None
            return False
        self.degraded = False
        _metrics.REGISTRY.counter(
            "parallel.executor_heals", client=self.client
        ).inc()
        return True

    def inject_fault(self, rank: int, fault) -> None:
        """Install a :class:`~repro.optim.worker.FaultInjector` on one
        rank (robustness tests; the one hook for every client)."""
        if self.executor is None:
            raise RuntimeError(f"{self.client} has no worker pool")
        self.executor.submit(
            [("set_fault", (fault if r == rank else None,))
             for r in range(self.world_size)]
        )

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    kind: "str | Executor | None", world_size: int
) -> Executor:
    """Resolve an executor: an instance passes through, a name selects a
    backend, ``None`` consults ``$REPRO_EXECUTOR`` and defaults to
    ``serial``."""
    if isinstance(kind, Executor):
        if kind.world_size != world_size:
            raise ValueError(
                f"executor world_size {kind.world_size} != trainer world_size "
                f"{world_size}"
            )
        return kind
    if kind is None:
        kind = os.environ.get(EXECUTOR_ENV, "serial") or "serial"
    key = str(kind).lower()
    if key not in _BACKENDS:
        raise KeyError(
            f"unknown executor {kind!r}; available: {', '.join(EXECUTOR_NAMES)}"
        )
    return _BACKENDS[key](world_size)
