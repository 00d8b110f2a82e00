"""repro.parallel -- data parallelism for FEKF: simulated collectives
plus pluggable rank executors (serial / thread / process).

The model-parallel side (P blocks sharded over threads) lives in the
Kalman core itself (:class:`repro.optim.kalman.BlockPool`);
``shard_blocks`` is re-exported here."""

from ..optim.blocks import shard_blocks
from .comm import (
    CommLedger,
    CostModel,
    SimCommunicator,
    allreduce_volume_bytes,
    broadcast_volume_bytes,
)
from .topology import (
    ClusterSpec,
    build_fat_tree,
    cluster_for_gpus,
    cost_model_for,
    ring_hops,
    ring_order,
)
from .executor import (
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    Supervised,
    ThreadExecutor,
    WorkerCrash,
    make_executor,
)
from .trainer import DistributedFEKF, StepTiming

__all__ = [
    "SimCommunicator",
    "CommLedger",
    "CostModel",
    "allreduce_volume_bytes",
    "broadcast_volume_bytes",
    "ClusterSpec",
    "build_fat_tree",
    "cluster_for_gpus",
    "cost_model_for",
    "ring_order",
    "ring_hops",
    "EXECUTOR_ENV",
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "Supervised",
    "WorkerCrash",
    "make_executor",
    "DistributedFEKF",
    "StepTiming",
    "shard_blocks",
]
