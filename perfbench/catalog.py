"""The metric catalog: names and units of everything the benchmark reports.

``BENCHMARK.json`` declares the same names; the self-test checks that the
two agree.  End-to-end metrics are reported by every workload, each with
the meaning a user of that workload sees:

=================  ==================================  ==========================
metric             train-paper / train-small-stream    serve-swap
=================  ==================================  ==========================
setup_s            training data, (store ingest),      training data, the two
                   model, optimizer, loader, warm-up   weight sets, service
                   steps                               start, warm-up request
peak_rss_mb        peak resident memory of the run     same
throughput_per_s   training frames per second of the   responses per second
                   training loop (evaluation off)
latency_p50_ms     one training iteration (batch       one request (walker call
                   wait + FEKF step)                   or scanner burst)
latency_tail_ms    p90 of training iterations          p90 of requests
time_to_target_s   steps until the held-out force      seconds from ``swap`` to
                   RMSE reaches the target, times the  the held-out RMSE served
                   median iteration                    under the new version
                                                       (median over swaps)
force_rmse         held-out force RMSE the evaluated   of the served weights,
                   training ends with                  answered by the service
=================  ==================================  ==========================

Energy RMSE is reported in each result file but is not a declared
metric: the energy error of an untrained or briefly trained model is a
small residual whose size varies by half from one held-out draw to the
next, wider than any bound a change could be held to.

``fail_ratio`` is not a declared metric because it reads 0 on a healthy
run; it is the result line's ``failed / attempted``.  ``labels_used``
is not declared either: on these workloads it is fixed by the
configuration (training plus held-out frames), and the one workload
where the program decides it, the online loop, is not declared.

Per-layer metrics come from a separate traced run and are reported on
every workload; a layer a workload does not exercise reads 0.  What each
layer should move, written down before any change is measured:

* ``optim.*`` -- ``throughput_per_s`` and ``time_to_target_s`` on
  train-paper, by at most ``optim.kalman_share`` of the step; nothing on
  train-small-stream, where the Kalman share is a few percent.
* ``autograd.*`` -- ``throughput_per_s`` on train-small-stream (autograd
  is nearly all of its step), less on train-paper; through the predict
  path, ``latency_p50_ms`` on serve-swap.
* ``data.*`` -- ``throughput_per_s`` on train-small-stream (batch waits
  on the prefetching loader over the sharded store).
* ``model.*`` -- ``throughput_per_s`` and ``latency_p50_ms`` on serve-swap.
* ``serve.*`` -- ``latency_tail_ms`` and ``throughput_per_s`` on
  serve-swap, and its ``time_to_target_s`` (swap propagation).
* ``online.*``, ``md.*`` -- the closed loop's time to a promotion; they
  are measured in serve-swap's traced run and gate no declared metric
  (the loop is not a declared workload, see :mod:`online`).
* ``parallel.*`` -- the result line's ``failed / attempted``, every
  workload.
* ``telemetry.trace_overhead_ratio`` -- every end-to-end metric of a
  traced run; untraced runs do not pay it.
"""

from __future__ import annotations

import math

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "time_to_target_s": "s",
    "force_rmse": "eV/A",
}

PER_LAYER = {
    # optim: the Kalman filter and the FEKF step around it
    "optim.step_ms_p50": "ms",
    "optim.step_ms_p90": "ms",
    "optim.kalman_ms_p50": "ms",
    "optim.kalman_share": "ratio",
    "optim.p_mb": "MB",
    "optim.kalman_bytes_per_update": "bytes",
    "optim.kalman_flops_per_update": "flop",
    "optim.kalman_ops_per_byte": "flop/byte",
    "optim.kalman_gbps": "GB/s",
    "optim.mem_bw_gbps": "GB/s",
    # autograd: gradients of the network, eager or replayed plans
    "autograd.grad_ms_per_step": "ms",
    "autograd.launches_per_step": "count",
    "autograd.compile_replays": "count",
    "autograd.compile_fallbacks": "count",
    # data: loaders and stores
    "data.wait_ms_p50": "ms",
    "data.wait_share": "ratio",
    "data.store_mapped_mb": "MB",
    "data.append_ms_p50": "ms",
    # model: forward passes
    "model.eval_ms": "ms",
    "model.predict_ms_p50": "ms",
    # serve: the micro-batching inference service
    "serve.batches": "count",
    "serve.batch_occupancy": "frames",
    "serve.batch_ms_p50": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.pred_cache_hit_ratio": "ratio",
    "serve.nbr_cache_hit_ratio": "ratio",
    "serve.swap_ms_p50": "ms",
    "serve.timeouts": "count",
    "serve.rejected": "count",
    # online / md: the closed loop's stages
    "online.explore_s": "s",
    "online.gate_s": "s",
    "online.label_s": "s",
    "online.train_s": "s",
    "online.evaluate_s": "s",
    "online.labels_avoided_ratio": "ratio",
    "online.promotions_per_eval": "ratio",
    "online.segments": "count",
    "md.segment_ms_p50": "ms",
    "md.label_ms_p50": "ms",
    # parallel: executor recovery paths
    "parallel.retries": "count",
    "parallel.serial_fallbacks": "count",
    "parallel.heals": "count",
    # telemetry: what tracing costs
    "telemetry.trace_overhead_ratio": "ratio",
}


def render(values: dict, catalog: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every catalog name, in catalog
    order.  A name the workload did not produce, or a non-finite value,
    reads 0 -- the layer did no work on this workload."""
    out = {}
    for name, unit in catalog.items():
        v = values.get(name, 0.0)
        v = float(v) if v is not None and math.isfinite(float(v)) else 0.0
        out[name] = {"value": v, "unit": unit}
    return out
