"""Per-layer measurement from outside the program.

The traced run installs a :class:`repro.telemetry.Tracer` (streaming to a
span file) and times each layer through :class:`core.Probe` wrappers on
the public methods of the live objects.  The program's own spans that
already exist (``serve.batch``, ``serve.worker_predict``, ...) land in
the same span file and are read back here; no span is added inside the
program.
"""

from __future__ import annotations

import os

from core import Probe, median, pct, registry_total

#: autograd entry points of a gradient worker (time in these is
#: ``autograd.grad_ms_per_step``)
GRAD_METHODS = (
    "energy_gradient", "force_graph", "force_group_gradient", "force_gradient",
)


class TraceSession:
    """A tracer streaming spans to ``<stem>.spans.jsonl``; on exit it
    appends a metrics snapshot and writes ``<stem>.chrome.json``."""

    def __init__(self, stem: str):
        from repro.telemetry import JsonlExporter, Tracer

        os.makedirs(os.path.dirname(stem), exist_ok=True)
        self.spans_path = stem + ".spans.jsonl"
        self.chrome_path = stem + ".chrome.json"
        self.exporter = JsonlExporter(self.spans_path)
        self.tracer = Tracer(sinks=[self.exporter], keep_events=True)

    def __enter__(self) -> "TraceSession":
        self.tracer.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        from repro.telemetry import REGISTRY, write_chrome_trace

        self.tracer.__exit__(*exc)
        self.exporter.write_metrics(REGISTRY)
        self.exporter.close()
        write_chrome_trace(self.chrome_path, self.tracer)

    def walls(self, name: str) -> list[float]:
        """Wall seconds of every recorded span called ``name``."""
        return [e.wall_s for e in self.tracer.events if e.name == name]


def kalman_cost(kalman) -> tuple[float, float]:
    """Computed bytes moved and flops of one fused Kalman update (the
    kernel every workload runs).

    Per block of size n, ``dsymv`` reads the stored triangle, n(n+1)/2
    doubles, and does 2n^2 flops; ``dsyr`` reads and writes the triangle
    and does n(n+1) flops.  Vector traffic is O(n) and left out.
    """
    nbytes = flops = 0.0
    for blk in kalman.blocks:
        n = blk.size
        nbytes += 8.0 * 3.0 * n * (n + 1) / 2.0
        flops += 2.0 * n * n + n * (n + 1)
    return nbytes, flops


def wrap_optimizer(probe: Probe, opt) -> None:
    """Time an FEKF's step, its Kalman updates, and its autograd calls.

    Every step also runs under a :class:`KernelCounter` so the launch
    count per step is exact.
    """
    from contextlib import contextmanager

    from repro.autograd.instrument import KernelCounter

    @contextmanager
    def count_launches(_key):
        with KernelCounter() as kc:
            yield
        probe.record("launches", float(kc.total_launches))

    probe.wrap(opt, "step_batch", "step", around=count_launches)
    probe.wrap(opt.kalman, "update", "kalman")
    for name in GRAD_METHODS:
        probe.wrap(opt.worker, name, "grad")


def compile_counts(opt) -> tuple[float, float]:
    c = opt.stats().get("compiled") or {}
    return float(c.get("replays", 0)), float(c.get("fallbacks", 0))


def optim_metrics(probe: Probe, opt, compile_before, mem_bw: dict) -> dict:
    """optim.* and autograd.* from the wrapped optimizer's samples."""
    steps = probe.get("step")
    kal = probe.get("kalman")
    nbytes, flops = kalman_cost(opt.kalman)
    kal_s = sum(kal)
    replays, fallbacks = compile_counts(opt)
    n_steps = max(len(steps), 1)
    return {
        "optim.step_ms_p50": 1e3 * median(steps),
        "optim.step_ms_p90": 1e3 * pct(steps, 90),
        "optim.kalman_ms_p50": 1e3 * median(kal),
        "optim.kalman_share": kal_s / sum(steps) if steps else 0.0,
        "optim.p_mb": opt.kalman.p_memory_bytes() / 1e6,
        "optim.kalman_bytes_per_update": nbytes,
        "optim.kalman_flops_per_update": flops,
        "optim.kalman_ops_per_byte": flops / nbytes if nbytes else 0.0,
        "optim.kalman_gbps": nbytes * len(kal) / kal_s / 1e9 if kal_s else 0.0,
        "optim.mem_bw_gbps": mem_bw.get("gbps", 0.0),
        "autograd.grad_ms_per_step": 1e3 * probe.total("grad") / n_steps,
        "autograd.launches_per_step": median(probe.get("launches")),
        "autograd.compile_replays": replays - compile_before[0],
        "autograd.compile_fallbacks": fallbacks - compile_before[1],
    }


def parallel_metrics(before: dict, after: dict) -> dict:
    """Deltas of the executor recovery counters over the traced phase."""

    def delta(*names):
        return sum(registry_total(after, n) - registry_total(before, n) for n in names)

    return {
        "parallel.retries": delta("parallel.worker_retries"),
        "parallel.serial_fallbacks": delta("parallel.serial_fallbacks", "serve.fallbacks"),
        "parallel.heals": delta("parallel.executor_heals", "parallel.worker_respawns"),
    }


def serve_metrics(stats: dict, session: TraceSession, latencies: list[float],
                  swaps: list[float]) -> dict:
    """serve.* and model.predict_ms_p50 from service stats and the
    service's own ``serve.batch`` / ``serve.worker_predict`` spans.
    ``latencies`` are of every request; their median minus the median
    batch time is the queue wait."""
    batch = session.walls("serve.batch")
    lat_p50 = median(latencies)
    batch_p50 = median(batch)
    return {
        "serve.batches": stats["batches"],
        "serve.batch_occupancy": stats["batch_occupancy"]["mean"],
        "serve.batch_ms_p50": 1e3 * batch_p50,
        "serve.queue_wait_ms_p50": max(1e3 * (lat_p50 - batch_p50), 0.0)
        if batch else 0.0,
        "serve.pred_cache_hit_ratio": stats["prediction_cache"]["hit_rate"],
        "serve.nbr_cache_hit_ratio": stats["neighbor_cache"]["hit_rate"],
        "serve.swap_ms_p50": 1e3 * median(swaps),
        "serve.timeouts": stats["timeouts"],
        "serve.rejected": stats["rejected"],
        "model.predict_ms_p50": 1e3 * median(session.walls("serve.worker_predict")),
    }
