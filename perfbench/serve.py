"""The ``serve-swap`` workload: closed-loop traffic against hot swaps.

The default 26,551-parameter network serves Cu (32 atoms) through an
``InferenceService`` with the default ``ServeConfig``.  Two client
threads each wait for their reply before sending again (a closed loop):
the walker sends single-frame ``predict`` calls, the scanner sends
``predict_many`` bursts of ``BURST`` frames.  Meanwhile the benchmark
thread promotes one of two weight sets every ``SWAP_EVERY_S``: it calls
``swap``, which purges the caches and re-syncs the workers, and then
scores ``EVAL_FRAMES`` held-out frames through the service, in bursts,
to confirm the served RMSE.  The seconds from the swap to that confirmed RMSE are the
workload's time to target: one sample sums several requests under load,
where the time to a single first response after a swap is a random
phase that spread by 0.25 over ten runs.

The traffic follows the serving half of the closed online loop of
:mod:`online`, measured on a 2-vCPU host (three loops run to 3
promotions each, with the paced client on):

* promotions went live 1.23-3.33 s apart, median 1.57 s over the 9
  intervals, hence ``SWAP_EVERY_S``;
* the loop's service answered 374 requests with 0 prediction-cache and
  0 neighbor-cache hits: every frame the loop scores is a fresh MD
  frame.  So every frame the clients send is fresh too (a training
  frame plus a random displacement); no frame repeats.

The traced run also drives one promotion of that loop, where the
``online.*`` and ``md.*`` layers are measured, and records its swap time
and cache hit ratios (``loop_first_swap_s``, ``loop_*_hit_ratio``) so
both figures can be re-checked.

The served weight sets are fixed (built on the training problem of
constant seed that the training workloads use); ``--seed`` draws the
traffic and the held-out set the served weights are scored on.

A run splits its traffic into ``SEGMENTS`` equal shares and sets the
service up ``SETUPS_PER_SEGMENT`` times before each, serving the share
from the last set-up: the median set-up time is taken across the run,
under the same host load as the traffic, rather than in a burst at its
start.

Correctness: a sample of responses is recomputed by a direct
``predict_many`` on a private session holding the weights of the
version stamped on the response, and must match bit for bit; each
client's versions must never go backwards; a burst that saw no swap
while in flight must carry one version; after every swap the held-out
set is answered under the new version alone, with the force RMSE a
direct ``evaluate_rmse`` of its weights gives.
"""

from __future__ import annotations

import copy
import os
import threading
import time

import numpy as np

from core import OUT_DIR, Probe, Run, median, pct, peak_rss_mb
from layers import TraceSession, parallel_metrics, serve_metrics
from online import traced_loop

#: median interval between promotions of the online loop (see above)
SWAP_EVERY_S = 1.6
BURST = 8
#: held-out frames scored after each swap, as many as the online loop
#: scores each candidate on (``OnlineConfig.eval_frames``)
EVAL_FRAMES = 32
#: every SAMPLE_EVERY-th walker response and scanner burst is re-checked
SAMPLE_EVERY = 16
JITTER_A = 0.02
#: the run's traffic is split into SEGMENTS equal shares, each served by
#: the last of SETUPS_PER_SEGMENT fresh set-ups
SEGMENTS = 9
SETUPS_PER_SEGMENT = 3
#: seed of the data the served weight sets are built on
PROBLEM_SEED = 0


class Setup:
    """Data, the two weight sets, the reference sessions, the service."""

    def __init__(self, holdout, tiny: bool):
        from repro.harness.common import experiment_setup
        from repro.model.network import DeePMD
        from repro.model.session import ModelSession
        from repro.serve import InferenceService, ServeConfig

        data = experiment_setup(
            "Cu", frames_per_temperature=4 if tiny else 16,
            size="tiny" if tiny else "small", network="paper", seed=PROBLEM_SEED,
        )
        self.data = data
        self.holdout = holdout
        models = [DeePMD.for_dataset(data.train, data.cfg, seed=s) for s in (1, 2)]
        self.states = [m.state_dict() for m in models]
        #: private sessions the sampled responses are recomputed on
        self.refs = [ModelSession(m) for m in models]
        self.service = InferenceService(
            ModelSession(copy.deepcopy(models[0])), ServeConfig()
        )
        #: model_version -> index of the weight set it serves
        self.weights_of = {self.service.model_version: 0}
        self.service.start()
        self.service.predict_many(data.train.positions[:BURST], data.train.species,
                                  data.train.cell)

    def close(self) -> None:
        self.service.stop()


class Client(threading.Thread):
    """One closed-loop caller; records latency, versions and samples."""

    def __init__(self, kind, setup, seed, stop, swaps_done, tamper=None):
        super().__init__(name=f"perfbench-{kind}", daemon=True)
        self.kind = kind
        self.s = setup
        self.rng = np.random.default_rng(seed)
        self.stop_evt = stop
        self.swaps_done = swaps_done
        self.tamper = tamper
        self.latencies: list[float] = []
        self.samples: list[tuple[np.ndarray, object]] = []
        self.responses = 0
        self.errors = 0
        self.rewinds = 0
        self.mixed = 0
        self.calls = 0

    def _fresh(self, n):
        pool = self.s.data.train.positions
        idx = self.rng.integers(0, len(pool), n)
        return pool[idx] + self.rng.normal(scale=JITTER_A, size=(n,) + pool.shape[1:])

    def run(self):
        from repro.serve import ServeError

        ds = self.s.data.train
        svc = self.s.service
        last_version = -1
        while not self.stop_evt.is_set():
            frames = self._fresh(1 if self.kind == "walker" else BURST)
            swaps_before = self.swaps_done[0]
            t0 = time.perf_counter()
            try:
                if self.kind == "walker":
                    preds = [svc.predict(frames[0], ds.species, ds.cell, timeout=10.0)]
                else:
                    preds = svc.predict_many(frames, ds.species, ds.cell, timeout=10.0)
            except ServeError:
                self.errors += 1
                continue
            t1 = time.perf_counter()
            self.calls += 1
            self.responses += len(preds)
            self.latencies.append(t1 - t0)
            versions = [p.model_version for p in preds]
            if min(versions) < last_version:
                self.rewinds += 1
            last_version = max(versions)
            if swaps_before == self.swaps_done[0] and len(set(versions)) > 1:
                self.mixed += 1
            if self.calls % SAMPLE_EVERY == 0:
                pred = preds[0] if self.tamper is None else self.tamper(preds[0])
                self.samples.append((frames[0].copy(), pred))


def drive(setup: Setup, seconds: float, seed: int, swap_every: float,
          first_swap: float, tamper=None) -> dict:
    """Closed-loop traffic for ``seconds``, with a promotion ``first_swap``
    seconds in and every ``swap_every`` after: a swap, then the held-out
    set scored through the service.  ``next_swap`` in the result is when
    the next one would have been due after the end, so consecutive calls
    keep one schedule."""
    stop = threading.Event()
    swaps_done = [0]
    clients = [
        Client("walker", setup, seed * 7919 + 1, stop, swaps_done, tamper),
        Client("scanner", setup, seed * 7919 + 2, stop, swaps_done),
    ]
    promotions: list[dict] = []
    t_start = time.perf_counter()
    for c in clients:
        c.start()
    try:
        nxt = t_start + first_swap
        while True:
            now = time.perf_counter()
            if now - t_start >= seconds:
                break
            if now >= nxt:
                target = 1 - setup.weights_of[setup.service.model_version]
                t0 = time.perf_counter()
                version = setup.service.swap(setup.states[target])
                t1 = time.perf_counter()
                setup.weights_of[version] = target
                swaps_done[0] += 1
                f_rmse, _, versions = served_rmse(setup)
                promotions.append({
                    "target": target, "version": version, "versions": versions,
                    "force_rmse": f_rmse, "swap_s": t1 - t0,
                    "scored_s": time.perf_counter() - t0,
                })
                nxt += swap_every
            time.sleep(min(0.01, max(nxt - time.perf_counter(), 0.0)))
    finally:
        stop.set()
        for c in clients:
            c.join(timeout=30.0)
    wall = time.perf_counter() - t_start
    return {
        "clients": clients, "wall": wall, "promotions": promotions,
        "next_swap": max(nxt - t_start - seconds, 0.0),
        "alive": [c.name for c in clients if c.is_alive()],
    }


def check_traffic(run: Run, setup: Setup, traffic: dict, expected: list) -> None:
    """Bit-identity of the sampled responses, version order, no mixing;
    after every swap, the held-out set is answered under the new version
    alone with the RMSE a direct evaluation of its weights gives
    (``expected``, by weight set)."""
    ds = setup.data.train
    for p in traffic["promotions"]:
        run.check("held-out set served under the swapped-in version",
                  p["versions"] == {p["version"]}, f"{p['versions']} vs {p['version']}")
        run.check("served held-out RMSE equals the direct evaluation",
                  np.isclose(p["force_rmse"], expected[p["target"]], rtol=1e-9, atol=0.0),
                  f"{p['force_rmse']} vs {expected[p['target']]}")
    for c in traffic["clients"]:
        run.ops(c.calls + c.errors, c.errors)
        run.check(f"{c.kind}: versions never rewind", c.rewinds == 0,
                  f"{c.rewinds} rewinds")
        run.check(f"{c.kind}: no mixed-version response set without a swap",
                  c.mixed == 0, f"{c.mixed} mixed")
        for frame, pred in c.samples:
            ref = setup.refs[setup.weights_of[pred.model_version]]
            want = ref.predict_many(frame[None], ds.species, ds.cell)[0]
            same = (want.energy == pred.energy
                    and np.array_equal(want.forces, pred.forces))
            run.check(f"{c.kind}: response bit-identical to direct predict_many",
                      same, f"version {pred.model_version}")
    run.check("client threads stopped", not traffic["alive"], str(traffic["alive"]))


def served_rmse(setup: Setup) -> tuple[float, float, set]:
    """Held-out force and energy RMSE of the weights the service holds
    now, answered by the service itself, and the versions answering."""
    test = setup.holdout
    preds = [  # bursts, like the scanner's: the request queue is bounded
        p
        for lo in range(0, test.n_frames, BURST)
        for p in setup.service.predict_many(
            test.positions[lo : lo + BURST], test.species, test.cell
        )
    ]
    e = np.array([p.energy for p in preds])
    f = np.stack([p.forces for p in preds])
    n = test.n_atoms
    e_rmse = float(np.sqrt(np.mean(((e - test.energies) / n) ** 2)))
    f_rmse = float(np.sqrt(np.mean((f - test.forces) ** 2)))
    return f_rmse, e_rmse, {p.model_version for p in preds}


def run_serve(seed: int, seconds: float, trace: bool, tiny: bool = False,
              tamper=None) -> dict:
    from repro.data.systems import generate_dataset

    run = Run()
    holdout = generate_dataset(
        "Cu", frames_per_temperature=2 if tiny else 11,
        size="tiny" if tiny else "small", seed=seed + 1,
        equilibration_steps=30, stride=4,
    )
    holdout = holdout.subset(np.arange(min(EVAL_FRAMES, holdout.n_frames)))
    # the self-test's runs last a few seconds; swap often enough to see some
    swap_every = 0.1 if tiny else SWAP_EVERY_S
    share = (seconds / 2 if trace else seconds) / SEGMENTS
    setup_s: list[float] = []
    clients: list[Client] = []
    wall = 0.0
    promotions: list[dict] = []
    expected = None  # direct held-out force RMSE of each weight set
    counts = {"timeouts": 0, "rejected": 0}
    layer: dict = {}
    info: dict = {"setup_s": setup_s}
    due = swap_every  # one swap schedule over the whole run's traffic
    for k in range(SEGMENTS):
        setup = None
        for _ in range(SETUPS_PER_SEGMENT):
            if setup is not None:
                setup.close()
            t0 = time.perf_counter()
            setup = Setup(holdout, tiny)
            setup_s.append(time.perf_counter() - t0)
        try:
            if expected is None:  # the weight sets are the same in every set-up
                e0 = time.perf_counter()
                expected = [ref.model.evaluate_rmse(holdout)["force_rmse"]
                            for ref in setup.refs]
                eval_s = (time.perf_counter() - e0) / len(expected)
            traffic = drive(setup, share, seed * SEGMENTS + k, swap_every, due, tamper)
            due = traffic["next_swap"]
            check_traffic(run, setup, traffic, expected)
            clients += traffic["clients"]
            wall += traffic["wall"]
            promotions += traffic["promotions"]
            if k == SEGMENTS - 1:
                f_rmse, e_rmse, versions = served_rmse(setup)
                want = expected[setup.weights_of[max(versions)]]
                run.check("final held-out set served under one version, "
                          "with the direct evaluation's RMSE",
                          len(versions) == 1
                          and np.isclose(f_rmse, want, rtol=1e-9, atol=0.0),
                          f"versions {versions}: {f_rmse} vs {want}")
                if trace:
                    layer, traced_rps = traced_phase(
                        setup, run, seed, share * SEGMENTS, swap_every, tiny, tamper,
                        expected, info,
                    )
                    layer["model.eval_ms"] = 1e3 * eval_s
        finally:
            setup.close()
        stats = setup.service.stats()
        for key in counts:
            counts[key] += stats[key]
    run.check("no request timed out or was rejected",
              counts["timeouts"] == 0 and counts["rejected"] == 0,
              f"{counts['timeouts']} timeouts, {counts['rejected']} rejected")
    responses = sum(c.responses for c in clients)
    # every request, walker calls and scanner bursts: the walker's own
    # latencies are bimodal (alone in a batch, or queued behind a burst)
    # and their median falls in the gap between the modes
    latencies = [x for c in clients for x in c.latencies]
    walker = [x for c in clients if c.kind == "walker" for x in c.latencies]
    scanner = [x for c in clients if c.kind == "scanner" for x in c.latencies]
    if trace:
        layer["telemetry.trace_overhead_ratio"] = (
            responses / wall / traced_rps if traced_rps else 0.0
        )
    e2e = {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": responses / wall,
        "latency_p50_ms": 1e3 * median(latencies),
        # p90: a slower host stretches p99 about twice as much as the
        # throughput drops, p90 about as much
        "latency_tail_ms": 1e3 * pct(latencies, 90),
        "time_to_target_s": median([p["scored_s"] for p in promotions]),
        "force_rmse": f_rmse,
    }
    named = {
        "energy_rmse": e_rmse,
        "serve_rps": e2e["throughput_per_s"],
        "serve_p50_ms": e2e["latency_p50_ms"],
        "serve_p99_ms": 1e3 * pct(latencies, 99),
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "fail_ratio": run.fail_ratio,
    }
    info.update({
        "responses": responses,
        "walker_requests": len(walker),
        "walker_p50_ms": 1e3 * median(walker),
        "walker_p99_ms": 1e3 * pct(walker, 99),
        "scanner_bursts": len(scanner),
        "scanner_burst_p50_ms": 1e3 * median(scanner),
        "swaps": len(promotions),
        "swap_call_s": [p["swap_s"] for p in promotions],
        "promotion_s": [p["scored_s"] for p in promotions],
        "timeouts_rejected": counts,
    })
    return {"run": run, "e2e": e2e, "layers": layer, "named": named, "info": info}


def traced_phase(setup: Setup, run: Run, seed: int, seconds: float, swap_every: float,
                 tiny: bool, tamper, expected: list, info: dict) -> tuple[dict, float]:
    """The per-layer measurement: ``seconds`` more traffic on ``setup``
    under a tracer, then one traced promotion of the online loop.
    Returns the per-layer metrics and the traced responses per second."""
    from repro.telemetry import REGISTRY

    probe = Probe()
    setup.service.stop()
    reg0 = REGISTRY.snapshot()
    session = TraceSession(os.path.join(OUT_DIR, f"serve-swap-seed{seed}"))
    with session:
        setup.service.start()
        probe.wrap(setup.service, "swap", "swap")
        try:
            traced = drive(setup, seconds, seed + 1, swap_every, swap_every, tamper)
        finally:
            probe.unwrap_all()
            setup.service.stop()
    check_traffic(run, setup, traced, expected)
    layer = serve_metrics(setup.service.stats(), session,
                          [x for c in traced["clients"] for x in c.latencies],
                          probe.get("swap"))
    layer.update(parallel_metrics(reg0, REGISTRY.snapshot()))
    info["spans_file"] = os.path.relpath(session.spans_path)
    info["chrome_trace"] = os.path.relpath(session.chrome_path)
    # the closed loop's stages: one traced promotion, its checks counted
    # with ours; its swap time and cache hits re-measure the traffic profile
    rep, loop_layer, loop_stats, loop_session = traced_loop(
        seed, tiny, run, os.path.join(OUT_DIR, f"serve-swap-seed{seed}-loop"),
    )
    layer.update(loop_layer)
    info["loop_spans_file"] = os.path.relpath(loop_session.spans_path)
    info["loop_first_swap_s"] = rep["swap_s"][0] if rep["swap_s"] else None
    info["loop_pred_cache_hit_ratio"] = loop_stats["prediction_cache"]["hit_rate"]
    info["loop_nbr_cache_hit_ratio"] = loop_stats["neighbor_cache"]["hit_rate"]
    return layer, sum(c.responses for c in traced["clients"]) / traced["wall"]
