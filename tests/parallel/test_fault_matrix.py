"""Fault-injection matrix: one recovery policy for every executor client.

Three clients (data-parallel trainer, inference service, prefetching
loader) x three backends x three fault modes, plus a killed worker
process and a stalled-but-alive one on the process backend.  Every case
must reproduce the fault-free run bit for bit and move the client's
recovery counters by exactly the policy's amounts.
"""

import itertools

import numpy as np
import pytest

from repro.data import StreamingLoader
from repro.model import DeePMD, ModelSession, make_batch
from repro.optim import FaultInjector, KalmanConfig
from repro.parallel import EXECUTOR_NAMES, DistributedFEKF
from repro.serve import InferenceService, ServeConfig
from repro.telemetry import metrics as _metrics

#: mode -> expected (retries, serial fallbacks, heals) for one fault
EXPECTED = {
    "crash_once": (1, 0, 0),  # the in-place retry absorbs it
    "crash_twice": (1, 1, 1),  # fallback for the round, then heal
    "heal_fails": (1, 1, 0),  # permanent fallback, counted once
    "killed": (0, 1, 1),  # a dead process is not retried
    "stall": (0, 0, 0),  # slow but alive: no recovery at all
}
_COUNTERS = (
    "parallel.worker_retries",
    "parallel.serial_fallbacks",
    "parallel.executor_heals",
)


def _broken_heal(spec, weights=None):
    raise RuntimeError("heal failed")


def _arm(sup, mode, method):
    """Degrade rank 1 of a started :class:`Supervised` pool per ``mode``."""
    if mode is None:
        return
    if mode == "killed":
        proc = sup.executor._procs[1]
        proc.terminate()
        proc.join()
        return
    if mode == "stall":
        fault = FaultInjector(method, times=1, stall_s=0.2, raises=False)
    else:
        fault = FaultInjector(method, times=1 if mode == "crash_once" else 2)
    sup.inject_fault(1, fault)
    if mode == "heal_fails":
        sup.executor.heal = _broken_heal


def _trainer(ds, cfg, kind, mode):
    """Two FEKF steps; output = final weights + the P checksum trace.
    The fault is armed after step 1's second force update, so it hits the
    third force group: the fallback must rebuild the shared force graph
    at the post-energy weights, not the current ones."""
    model = DeePMD.for_dataset(ds, cfg, seed=1)
    dist = DistributedFEKF(
        model, world_size=2, seed=7, executor=kind,
        kalman_cfg=KalmanConfig(blocksize=1024, fused_update=True),
    )
    kalman = dist.kalman
    updates = itertools.count(1)

    def arming_update(*args):
        if next(updates) == 3:  # energy, force group 1, force group 2
            _arm(dist.executor, mode, "force_task")
        return type(kalman).update(kalman, *args)

    kalman.update = arming_update
    try:
        batch = make_batch(ds, np.arange(4), cfg)
        checksums = []
        for _ in range(2):
            dist.step_batch(batch)
            checksums.append(dist.kalman.checksum())
        return [model.params.flatten(), checksums], dist.executor
    finally:
        dist.close()


def _service(ds, cfg, kind, mode):
    """Four frames, a hot swap, four more; output = (energy, forces,
    version) per response."""
    served = ModelSession(DeePMD.for_dataset(ds, cfg, seed=1))
    new_state = DeePMD.for_dataset(ds, cfg, seed=2).state_dict()
    conf = ServeConfig(
        executor=kind, world_size=2, max_batch=4,
        cache_predictions=False, cache_neighbors=False,
    )
    with InferenceService(served, conf) as svc:
        _arm(svc._executor, mode, "predict_task")
        preds = svc.predict_many(ds.positions[:4], ds.species, ds.cell)
        svc.swap(new_state)
        preds += svc.predict_many(ds.positions[4:8], ds.species, ds.cell)
        sup = svc._executor
    return [[p.energy, p.forces, p.model_version] for p in preds], sup


def _loader(ds, cfg, kind, mode):
    """One prefetched epoch; output = the (indices, batch arrays) sequence."""
    with StreamingLoader(ds, 4, cfg=cfg, seed=3, executor=kind, workers=2) as loader:
        loader.warm_up()
        sup = loader._executor
        _arm(sup, mode, "make_batch")
        seq = [
            [idx, b.coords, b.idx_flat, b.shift, b.mask, b.energies, b.forces]
            for idx, b in loader.iter_batches(epoch_index=0)
        ]
    return seq, sup


CLIENTS = {"trainer": _trainer, "serve": _service, "loader": _loader}


def _assert_identical(got, ref):
    assert type(got) is type(ref)
    if isinstance(ref, list):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_identical(g, r)
    elif isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    else:
        assert got == ref


@pytest.fixture(scope="module")
def reference(cu_dataset, small_cfg):
    """Fault-free outputs, memoised per (client, backend)."""
    memo = {}

    def get(client, kind):
        if (client, kind) not in memo:
            out, _ = CLIENTS[client](cu_dataset, small_cfg, kind, None)
            memo[client, kind] = out
        return memo[client, kind]

    return get


def _check(client, kind, mode, reference, cu_dataset, small_cfg):
    def counts():
        return [_metrics.REGISTRY.counter(n, client=client).value for n in _COUNTERS]

    before = counts()
    out, sup = CLIENTS[client](cu_dataset, small_cfg, kind, mode)
    deltas = tuple(a - b for a, b in zip(counts(), before))
    _assert_identical(out, reference(client, kind))
    assert deltas == EXPECTED[mode]
    assert sup.fallbacks == EXPECTED[mode][1]
    if mode == "heal_fails":
        assert sup.executor is None  # pool closed: the fallback for good
    else:
        assert not sup.degraded


@pytest.mark.parametrize("mode", ["crash_once", "crash_twice", "heal_fails"])
@pytest.mark.parametrize("kind", EXECUTOR_NAMES)
@pytest.mark.parametrize("client", CLIENTS)
def test_fault_matrix(client, kind, mode, reference, cu_dataset, small_cfg):
    _check(client, kind, mode, reference, cu_dataset, small_cfg)


@pytest.mark.parametrize("mode", ["killed", "stall"])
@pytest.mark.parametrize("client", CLIENTS)
def test_process_faults(client, mode, reference, cu_dataset, small_cfg):
    _check(client, "process", mode, reference, cu_dataset, small_cfg)
