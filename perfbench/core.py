"""Measurement plumbing shared by every perfbench workload.

Nothing in here knows about a particular workload: a :class:`Run` collects
correctness checks and operation counts, :class:`Probe` times calls into a
layer's public API from outside (it replaces a bound method on one
instance with a timing wrapper, so no source under ``src/`` changes), and
the statistics helpers turn sample lists into the reported numbers.
"""

from __future__ import annotations

import math
import os
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space of one run (stores, span files, result files); ignored by git
OUT_DIR = os.path.join(HERE, "out")


def pct(samples, q: float) -> float:
    """``q``-th percentile (linear interpolation); NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    return pct(samples, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(x) -> bool:
    return x is not None and math.isfinite(float(x))


@dataclass
class Run:
    """Operation and correctness accounting for one workload run.

    ``attempted``/``failed`` count user-visible operations (optimizer
    steps, requests, loop rounds) plus every correctness check; a failed
    check or a failed operation is one failure.  ``fail_ratio`` is
    ``failed / attempted``.
    """

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def ops(self, attempted: int, failed: int = 0) -> None:
        with self._lock:
            self.attempted += int(attempted)
            self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        with self._lock:
            self.checks.append({"name": name, "ok": ok, "detail": detail})
            self.attempted += 1
            self.failed += 0 if ok else 1
        return ok

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)

    @property
    def fail_ratio(self) -> float:
        return self.failed / max(self.attempted, 1)


class Probe:
    """Times calls into public methods of live objects, from outside.

    ``wrap(obj, "method", "key")`` shadows ``obj.method`` with an
    instance attribute that records each call's wall time under ``key``
    (and, when a tracer is installed on the calling thread, opens a
    ``bench.<key>`` span around it).  Internal callers that go through
    ``self.method`` hit the wrapper too, which is how a layer reached only
    inside another layer's call (``kalman.update`` inside
    ``FEKF.step_batch``) is timed.  ``unwrap_all`` restores the originals.

    Never wrap an object that the program later deep-copies (the service
    replicates its models into workers): the copy would carry a wrapper
    bound to the original.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self._wrapped: list[tuple[object, str]] = []
        self._lock = threading.Lock()

    def record(self, key: str, seconds: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(seconds)

    def wrap(self, obj, method: str, key: str, around=None) -> None:
        from repro.telemetry import span

        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            with span(f"bench.{key}"):
                t0 = time.perf_counter()
                try:
                    if around is None:
                        return inner(*args, **kwargs)
                    with around(key):
                        return inner(*args, **kwargs)
                finally:
                    self.record(key, time.perf_counter() - t0)

        setattr(obj, method, timed)
        self._wrapped.append((obj, method))

    def unwrap_all(self) -> None:
        for obj, method in reversed(self._wrapped):
            try:
                delattr(obj, method)
            except AttributeError:
                pass
        self._wrapped.clear()

    def get(self, key: str) -> list[float]:
        with self._lock:
            return list(self.samples.get(key, ()))

    def total(self, key: str) -> float:
        return float(sum(self.get(key)))


def registry_total(snapshot: dict, prefix: str) -> float:
    """Sum every counter in a ``REGISTRY.snapshot()`` whose name (labels
    stripped) equals ``prefix``."""
    total = 0.0
    for key, value in snapshot.get("counters", {}).items():
        if key.split("{", 1)[0] == prefix:
            total += float(value)
    return total
