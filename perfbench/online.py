"""The closed online loop (explore, gate, label, train, swap), driven once.

The ``online.*``, ``md.*`` and ``data.append_ms_p50`` layers are measured
here, in the traced run of ``serve-swap`` (see :mod:`serve`): one
``OnlineLearner`` over a 2-member committee runs with the online harness's
``OnlineConfig`` until ``TARGET_SWAPS`` promotions went live.  Labels are
appended into a fresh ``ShardedFrameStore``.  One paced client sends a
fresh perturbed frame every ``CLIENT_PERIOD_S`` and waits for the reply,
so store appends and hot swaps happen while the store and the service are
being read -- without the client spinning on cached frames.

The loop is not a declared workload of its own: the time to its
promotions spread by 0.14-0.28 (IQR over median) over three sweeps of ten
runs, and loops of 2-3 promotions are bimodal (3 or 4 training rounds,
decided by thread timing).

The learning problem is fixed (initial data, held-out set, committee
initialisation and the learner's RNG come from constant seeds); the
benchmark's seed drives the client's traffic.

Correctness: the served RMSE strictly decreases across swaps, the label
ledger adds up, the label store verifies, and the client saw no errors
and no version going backwards.
"""

from __future__ import annotations

import os
import shutil
import threading
import time

import numpy as np

from core import OUT_DIR, Probe, Run, median
from layers import TraceSession

#: promotions per loop; the path to the first promotion is the same in
#: every run (same served RMSE), while later promotions depend on which
#: frames the trainer had pooled when a round started -- thread timing
TARGET_SWAPS = 1
CLIENT_PERIOD_S = 0.1
JITTER_A = 0.02
START_TEMPERATURE_K = 400.0
#: seed of the fixed learning problem
PROBLEM_SEED = 0


class Loop:
    """One set-up: data, committee, label store, learner, running service."""

    def __init__(self, tag, tiny: bool):
        from repro.data.framestore import ShardedFrameStore
        from repro.data.systems import SYSTEMS
        from repro.harness.common import experiment_setup, fast_kalman
        from repro.model.ensemble import ModelEnsemble
        from repro.online import OnlineConfig, OnlineLearner

        data = experiment_setup(
            "Cu", frames_per_temperature=4 if tiny else 8,
            size="tiny" if tiny else "small", seed=PROBLEM_SEED,
        )
        self.data = data
        spec = SYSTEMS["Cu"]
        _, _, _, potential = spec.build("tiny" if tiny else "small")
        ensemble = ModelEnsemble.for_dataset(data.train, data.cfg, n_models=2,
                                             seed=PROBLEM_SEED + 1)
        self.store_dir = os.path.join(OUT_DIR, f"labels-{os.getpid()}-{tag}")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        species, cell = data.train.species, data.train.cell
        self.store = ShardedFrameStore.create(
            self.store_dir, species=species, cell=cell, shard_capacity=16,
        )
        self.cfg = OnlineConfig(
            md_steps=40, sample_every=10, select_lo=0.0, epochs_per_round=1,
            batch_size=4, max_new_frames=8, target_swaps=TARGET_SWAPS,
            max_segments=96, eval_frames=32,
        )
        self.learner = OnlineLearner(
            ensemble, potential, species, spec.masses(species), cell,
            cfg=self.cfg, kalman_cfg=fast_kalman(), initial_data=data.train,
            holdout=data.test, seed=PROBLEM_SEED, label_store=self.store,
        )
        self.initial_frames = self.store.n_frames
        self.learner.service.start()

    def close(self) -> None:
        self.learner.close()
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class PacedClient(threading.Thread):
    def __init__(self, loop: Loop, seed: int):
        super().__init__(name="perfbench-paced-client", daemon=True)
        self.loop = loop
        self.rng = np.random.default_rng(seed)
        self.stop_evt = threading.Event()
        self.latencies: list[float] = []
        self.errors = 0
        self.rewinds = 0

    def run(self):
        from repro.serve import ServeError

        test = self.loop.data.test
        svc = self.loop.learner.service
        last = -1
        nxt = time.perf_counter()
        while not self.stop_evt.is_set():
            frame = test.positions[self.rng.integers(0, test.n_frames)]
            frame = frame + self.rng.normal(scale=JITTER_A, size=frame.shape)
            t0 = time.perf_counter()
            try:
                pred = svc.predict(frame, test.species, test.cell, timeout=30.0)
            except ServeError:
                self.errors += 1
            else:
                self.latencies.append(time.perf_counter() - t0)
                if pred.model_version < last:
                    self.rewinds += 1
                last = pred.model_version
            nxt += CLIENT_PERIOD_S
            self.stop_evt.wait(max(nxt - time.perf_counter(), 0.0))


def wrap_learner(probe: Probe, lp: Loop) -> None:
    """Time every stage of the loop through its stage objects."""
    learner = lp.learner
    probe.wrap(learner.explorer, "explore", "explore")
    probe.wrap(learner.gate, "select", "gate")
    probe.wrap(learner.labeler, "label", "label")
    probe.wrap(learner.trainer, "train_round", "train")
    probe.wrap(learner.ensemble, "evaluate_rmse", "evaluate")
    probe.wrap(learner.service, "swap", "swap")
    probe.wrap(lp.store, "append", "append")


def loop_once(lp: Loop, seed: int, run: Run) -> dict:
    """Run the closed loop to the target swap count, with the client on."""
    learner = lp.learner
    initial = learner.ensemble.evaluate_rmse(lp.data.test,
                                             max_frames=lp.cfg.eval_frames)
    client = PacedClient(lp, seed * 7919 + 3)
    client.start()
    t0 = time.perf_counter()
    try:
        result = learner.run(lp.data.train.positions[0],
                             temperature=START_TEMPERATURE_K)
    finally:
        wall = time.perf_counter() - t0
        client.stop_evt.set()
        client.join(timeout=60.0)
    ledger = result.ledger
    rmses = [initial["force_rmse"]] + [s.force_rmse for s in result.swaps]
    run.ops(len(client.latencies) + client.errors, client.errors)
    run.ops(ledger["segments"], ledger["gate_errors"])
    run.check("reached the target swap count", result.n_swaps == TARGET_SWAPS,
              f"{result.n_swaps} swaps")
    run.check("served RMSE strictly decreases across swaps",
              all(a > b for a, b in zip(rmses, rmses[1:])), str(rmses))
    run.check(
        "ledger adds up",
        ledger["candidates"] == ledger["requested"] + ledger["avoided"]
        and ledger["labeled"] <= ledger["requested"]
        and lp.store.n_frames - lp.initial_frames <= ledger["labeled"],
        str(ledger),
    )
    from repro.data.framestore import FrameStoreCorrupt

    try:
        lp.store.verify()
        verified, why = True, ""
    except FrameStoreCorrupt as exc:
        verified, why = False, repr(exc)
    run.check("label store verifies", verified, why)
    run.check("paced client: no errors, versions never rewind",
              client.errors == 0 and client.rewinds == 0 and not client.is_alive(),
              f"{client.errors} errors, {client.rewinds} rewinds")
    return {
        "wall": wall,
        "swap_s": [sw.wall_s for sw in result.swaps],
        "ledger": ledger,
        "rmse_trajectory": rmses,
        "trained_rounds": result.trained_rounds,
        "segments": result.segments,
        "swaps": result.n_swaps,
    }


def traced_loop(seed: int, tiny: bool, run: Run, stem: str) -> tuple:
    """One loop under a tracer streaming to ``<stem>.*``, every stage
    wrapped; returns ``(loop result, per-layer metrics, service stats,
    trace session)``."""
    probe = Probe()
    session = TraceSession(stem)
    with session:
        lp = Loop("traced", tiny)
        try:
            wrap_learner(probe, lp)
            try:
                rep = loop_once(lp, seed, run)
            finally:
                probe.unwrap_all()
            stats = lp.learner.service.stats()
        finally:
            lp.close()
    led = rep["ledger"]
    layer = {
        "online.explore_s": probe.total("explore"),
        "online.gate_s": probe.total("gate"),
        "online.label_s": probe.total("label"),
        "online.train_s": probe.total("train"),
        "online.evaluate_s": probe.total("evaluate"),
        "online.labels_avoided_ratio": led["avoided"] / max(led["candidates"], 1),
        "online.promotions_per_eval": rep["swaps"] / max(rep["trained_rounds"], 1),
        "online.segments": rep["segments"],
        "md.segment_ms_p50": 1e3 * median(probe.get("explore")),
        "md.label_ms_p50": 1e3 * median(probe.get("label")),
        "data.append_ms_p50": 1e3 * median(probe.get("append")),
    }
    return rep, layer, stats, session
