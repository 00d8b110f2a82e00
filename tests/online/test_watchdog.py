"""Watchdog stall detection under fault injection.

The failure mode these tests provoke is the silent one: nothing crashes,
no exception propagates -- a stage or rank simply stops making progress.
A wedged :class:`BoundedWorkQueue` consumer and a stalled
:class:`InferenceService` worker must both surface as SLO *breach*
alerts within the configured deadline, and a healthy run of the same
machinery must raise zero.

Every scenario here -- faulted and healthy twin alike -- runs under the
annotated race checker (``capture("races")``): stalls injected by
:class:`FaultInjector` stretch the interleavings, and the checker
certifies that no ``Guarded`` field is ever touched without its
declared lock, with zero findings on the healthy twins.
"""

import threading
import time

import pytest

from repro.autograd.capture import capture
from repro.optim import FaultInjector
from repro.serve import BoundedWorkQueue, InferenceService, ServeConfig
from repro.telemetry.monitor import (
    HealthMonitor,
    HeartbeatRegistry,
    SLORule,
)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestWedgedQueueConsumer:
    """A consumer thread that stops draining its queue must breach both
    the heartbeat deadline and the queue-saturation SLO."""

    def _pipeline(self, wedge: bool):
        q = BoundedWorkQueue(4, name="work")
        beats = HeartbeatRegistry()
        release = threading.Event()

        def consumer():
            beats.beat("consumer")
            first = True
            while True:
                item = q.get(timeout=0.02)
                if item is None:
                    if q.drained():
                        break
                    beats.beat("consumer")
                    continue
                if wedge and first:
                    first = False
                    release.wait(timeout=10.0)  # wedged mid-item: no beats
                beats.beat("consumer")
            beats.done("consumer")

        t = threading.Thread(target=consumer, daemon=True)
        beats.register("consumer", deadline_s=0.2, thread=t)
        t.start()

        mon = HealthMonitor(interval_s=0.05)
        mon.add_source("online", lambda: {
            "queues": {"work": q.stats()},
            "heartbeats": beats.ages(),
        })
        mon.add_rules(
            SLORule("stage heartbeat", "heartbeat_s", 0.2, source="online"),
            SLORule("queue saturation", "queue_saturation", 0.9,
                    source="online"),
        )
        return q, t, release, mon

    def test_wedged_consumer_breaches_within_deadline(self):
        with capture("races") as races:
            q, t, release, mon = self._pipeline(wedge=True)
            with mon:
                for k in range(6):  # first item wedges; the rest pile up
                    q.put(k, timeout=0.5)
                assert _wait_until(lambda: mon.breaches() > 0, timeout=5.0)
            release.set()
            q.close()
            t.join(timeout=5.0)
        breached = {a["rule"] for a in mon.alerts if a["to"] == "breach"}
        assert "stage heartbeat" in breached
        assert "queue saturation" in breached
        # the wedge stretches the interleavings, not the lock discipline
        assert races.ok, races.report().render()

    def test_healthy_consumer_never_breaches(self):
        with capture("races") as races:
            q, t, release, mon = self._pipeline(wedge=False)
            with mon:
                for k in range(6):
                    q.put(k, timeout=0.5)
                    time.sleep(0.01)  # the live consumer keeps the depth low
                q.close()
                t.join(timeout=5.0)
                time.sleep(0.2)  # a few polls after the clean exit
        assert mon.breaches() == 0
        report = races.report()
        assert races.ok, report.render()  # healthy twin: zero findings
        assert report.metrics["guarded_accesses"] > 0  # and it did observe


class TestStalledServeWorker:
    """A rank that stalls (without crashing) wedges the batcher; the
    batcher heartbeat must breach, and a slow-but-alive rank must push
    the windowed p99 past a tight latency SLO."""

    @pytest.fixture()
    def service(self, cu_model, cu_dataset):
        cfg = ServeConfig(
            max_batch=2, max_delay_s=0.001, executor="thread", world_size=1,
            window_s=2.0, heartbeat_deadline_s=0.3,
            cache_predictions=False, cache_neighbors=False,
        )
        from repro.model import ModelSession

        svc = InferenceService(ModelSession(cu_model), cfg)
        with svc:
            yield svc

    def test_stalled_worker_breaches_batcher_heartbeat(self, service, cu_dataset):
        mon = HealthMonitor(interval_s=0.05)
        mon.watch_service(service, rules=[
            SLORule("batcher heartbeat", "heartbeat_s", 0.3, source="serve"),
        ])
        # wedge rank 0 inside its next predict_task: alive, not crashed,
        # so the executor's heal path never fires -- only the watchdog sees
        service._executor.inject_fault(
            0, FaultInjector("predict_task", times=1, stall_s=1.2,
                             raises=False),
        )
        frame = cu_dataset.positions[0]
        with capture("races") as races:
            with mon:
                pred = service.predict(
                    frame, cu_dataset.species, cu_dataset.cell, timeout=30.0
                )
                assert pred is not None
                assert _wait_until(lambda: mon.breaches() > 0, timeout=5.0)
        alerts = [a for a in mon.alerts if a["to"] == "breach"]
        assert any(a["kind"] == "heartbeat_s" for a in alerts)
        assert any("serve-batcher" in a["detail"] for a in alerts)
        assert races.ok, races.report().render()

    def test_slow_worker_breaches_p99_latency(self, service, cu_dataset):
        mon = HealthMonitor(interval_s=0.05)
        mon.watch_service(service, rules=[
            SLORule("p99 latency", "p99_latency_s", 0.05, source="serve",
                    min_count=1),
        ])
        service._executor.inject_fault(
            0, FaultInjector("predict_task", times=8, stall_s=0.15,
                             raises=False),
        )
        frame = cu_dataset.positions[0]
        with mon:
            for _ in range(4):
                service.predict(
                    frame, cu_dataset.species, cu_dataset.cell, timeout=30.0
                )
            assert _wait_until(lambda: mon.breaches() > 0, timeout=5.0)
        alerts = [a for a in mon.alerts if a["to"] == "breach"]
        assert any(a["kind"] == "p99_latency_s" for a in alerts)

    def test_healthy_service_zero_false_positives(self, service, cu_dataset):
        mon = HealthMonitor(interval_s=0.05)
        mon.watch_service(service)  # stock serve rules
        frame = cu_dataset.positions[0]
        with capture("races") as races:
            with mon:
                for _ in range(6):
                    service.predict(
                        frame, cu_dataset.species, cu_dataset.cell, timeout=30.0
                    )
                time.sleep(0.2)
        assert mon.breaches() == 0
        assert len(mon.snapshots) >= 3
        report = races.report()
        assert races.ok, report.render()  # healthy twin: zero findings
        assert report.metrics["guarded_accesses"] > 0


class TestLearnerHealthSurface:
    def test_health_reports_stages_queues_and_rmse(self, make_learner, split):
        learner = make_learner(target_swaps=1, max_segments=4)
        train, _ = split
        h0 = learner.health()
        assert h0["swap_age_s"] is None  # never run
        assert h0["queues"] == {}
        learner.run(train.positions[0], temperature=300.0)
        h = learner.health()
        assert h["segments"] >= 1
        assert set(h["queues"]) == {
            "online candidates", "online label queue", "online train queue"
        }
        beats = h["heartbeats"]
        assert set(beats) == {
            "online-explore", "online-gate", "online-label", "online-train"
        }
        # all stages exited cleanly: done, not stalled
        assert all(b["done"] and not b["stalled"] for b in beats.values())
        assert h["served_rmse"] <= h0["served_rmse"] or h0["served_rmse"] == float("inf")
        assert h["best_rmse"] == h["served_rmse"]
        assert h["swap_age_s"] is not None

    def test_monitored_run_is_breach_free(self, make_learner, split):
        learner = make_learner(target_swaps=1, max_segments=4)
        train, _ = split
        mon = HealthMonitor(interval_s=0.05)
        learner.service.start()
        # stock kinds, but with p99 slack: the gate pushes ensemble
        # committee batches through the service, and on a loaded CI box
        # those can crest the 2 s interactive-traffic default -- which
        # would be a latency-budget flake, not the watchdog/error false
        # positive this test is about
        from repro.telemetry.monitor import default_serve_rules

        mon.watch_service(
            learner.service, rules=list(default_serve_rules(p99_latency_s=30.0))
        )
        mon.watch_learner(learner)
        with mon:
            learner.run(train.positions[0], temperature=300.0)
        assert mon.breaches() == 0
        assert len(mon.snapshots) >= 2
        # the monitor actually saw live data, not just no_data
        last = mon.snapshots[-1]
        assert last.sources["online"]["segments"] >= 1
