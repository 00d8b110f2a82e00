"""Minibatch iteration over frame sources, with optional prefetch.

The loader yields frame-index arrays; the model's input pipeline turns
them into batched descriptor inputs.  Shuffling is seeded per epoch so
training runs are exactly reproducible -- convergence-epoch comparisons
between optimizers (Tables 1 and 4) depend on that determinism.

Two loaders share one ordering kernel (:func:`~repro.data.source.
windowed_order`), so they visit frames identically for equal parameters:

* :class:`BatchLoader` -- builds each batch synchronously in the
  consumer's thread.  The historical path, now speaking the
  :class:`~repro.data.source.FrameSource` protocol instead of a concrete
  in-memory dataset.
* :class:`StreamingLoader` -- a producer thread runs batch construction
  on rank workers via the executor layer (:mod:`repro.parallel.
  executor`, under its shared recovery policy), keeping a bounded queue
  of ready batches ahead of the consumer: descriptor-input assembly
  (frame reads, neighbor tables, index flattening) overlaps the
  optimizer's Kalman algebra.  Hit/stall counters and ``data.prefetch``
  worker spans make the overlap observable.

Construct via :func:`make_loader` (mirrors ``make_optimizer``): it picks
the class from the options and accepts anything
:func:`~repro.data.source.open_source` understands.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterator, Optional

import numpy as np

from ..telemetry import metrics as _metrics
from ..telemetry.trace import current_tracer, span as _span
from .source import FrameSource, open_source, windowed_order

__all__ = ["BatchLoader", "StreamingLoader", "make_loader"]


class BatchLoader:
    """Iterate a frame source in shuffled minibatches of frame indices.

    ``window`` bounds shuffle locality (see :func:`~repro.data.source.
    windowed_order`): ``None`` reproduces the historical global
    permutation bit-exactly; a finite window keeps any moment of
    iteration inside one window's worth of frames, which is what lets an
    out-of-core store serve an epoch from a small LRU of mapped shards.
    """

    def __init__(
        self,
        source: FrameSource,
        batch_size: int = 1,
        shuffle: bool = True,
        drop_last: bool = True,
        seed: int = 0,
        window: Optional[int] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None)")
        self.source = source
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = seed
        self.window = window
        self._epoch = 0

    def __len__(self) -> int:
        n = self.source.n_frames
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch(self, epoch_index: int | None = None) -> Iterator[np.ndarray]:
        """Yield minibatch index arrays for one epoch.

        ``epoch_index`` selects the deterministic shuffle; ``None`` reads
        the loader's epoch cursor without advancing it.  This method
        never mutates loader state, so ``list(loader.epoch(i))`` is
        reproducible for any ``i`` at any time.
        """
        if epoch_index is None:
            epoch_index = self._epoch
        n = self.source.n_frames
        if self.shuffle:
            order = windowed_order(n, self.window, self.seed, epoch_index)
        else:
            order = np.arange(n)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for lo in range(0, stop, self.batch_size):
            yield order[lo : lo + self.batch_size]

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate the epoch at the cursor, then advance the cursor.

        The cursor moves only when the iterator is exhausted -- merely
        calling ``iter(loader)`` (or abandoning it part-way) leaves the
        epoch sequence unchanged, so consecutive full passes replay
        ``epoch(0)``, ``epoch(1)``, ... exactly.
        """
        e = self._epoch
        yield from self.epoch(e)
        self._epoch = e + 1

    # ------------------------------------------------------------------
    def iter_batches(self, cfg, epoch_index: int | None = None):
        """Yield ``(indices, DescriptorBatch)`` pairs for one epoch.

        The synchronous path: each batch is built in the caller's thread
        right before it is yielded.  :class:`StreamingLoader` overrides
        this with the prefetching producer; both yield identical pairs
        for equal loader parameters (same ordering kernel, same
        ``make_batch``), which is the bit-identity contract the
        determinism audit checks.
        """
        from ..model.environment import make_batch  # deferred: model imports data

        for idx in self.epoch(epoch_index):
            yield idx, make_batch(self.source, idx, cfg)

    def warm_up(self) -> None:
        """Pre-start worker resources (no-op for the synchronous path)."""

    def close(self) -> None:
        """Release loader resources (no-op for the synchronous path)."""


class StreamingLoader(BatchLoader):
    """Prefetching loader: batch construction on rank workers, ahead of
    the consumer.

    A producer thread dispatches ``make_batch`` tasks in groups of
    ``workers`` through an executor (:class:`~repro.optim.worker.
    PrefetchWorker` ranks; serial / thread / process backends all work)
    and feeds a queue bounded at ``depth`` groups -- bounded memory, no
    matter how far the optimizer falls behind.  The consumer's
    :meth:`iter_batches` drains the queue in submission order, so the
    batch sequence is exactly the synchronous loader's.

    Observability: ``data.prefetch.hits`` / ``data.prefetch.stalls``
    counters (was a batch ready the moment the optimizer asked?), a
    ``data.prefetch.wait_s`` histogram of consumer stall time, worker
    ``data.prefetch`` spans merged into an ambient tracer, and
    :attr:`stats` totals for the benchmark gate.  After a worker crash
    the producer rebuilds the group itself (``make_batch`` is pure); a
    failure that recurs locally (e.g. ``FrameStoreCorrupt``) reaches the
    consumer as that exception, after the batches queued before it.
    """

    def __init__(
        self,
        source: FrameSource,
        batch_size: int = 1,
        cfg=None,
        shuffle: bool = True,
        drop_last: bool = True,
        seed: int = 0,
        window: Optional[int] = None,
        executor: "str | None" = None,
        workers: int = 2,
        depth: int = 2,
    ):
        super().__init__(source, batch_size, shuffle, drop_last, seed, window)
        if cfg is None:
            raise TypeError(
                "StreamingLoader needs the descriptor config (cfg=) to "
                "build batches on its workers"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.cfg = cfg
        self.executor_kind = executor
        self.workers = int(workers)
        self.depth = int(depth)
        self._executor = None
        #: lifetime totals, for the gated benchmark and tests
        self.stats = {"batches": 0, "hits": 0, "stalls": 0, "wait_s": 0.0}

    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            from ..optim.worker import PrefetchSpec
            from ..parallel.executor import Supervised, make_executor

            spec = PrefetchSpec(source=self.source, cfg=self.cfg)
            local = spec.build()  # the fallback: make_batch in this process
            self._executor = Supervised(
                make_executor(self.executor_kind, self.workers),
                spec,
                lambda rank, method, args, capture: local.run(method, args, capture),
                client="loader",
            )
        return self._executor

    def _produce(
        self,
        batches: list[np.ndarray],
        ready_queue: "queue.Queue",
        stop: threading.Event,
        capture: bool,
    ) -> None:
        """Producer loop: submit index groups, enqueue results in order;
        every item, a failure too, waits for space until the consumer
        stops."""

        def put(item) -> bool:
            while not stop.is_set():
                try:
                    ready_queue.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        ws = self.workers
        try:
            for lo in range(0, len(batches), ws):
                if stop.is_set():
                    return
                group = batches[lo : lo + ws]
                calls = [("make_batch", (idx,)) for idx in group]
                calls += [("noop", ())] * (ws - len(group))
                results = self._executor.submit(calls, capture=capture)
                self._executor.recover()
                for idx, res in zip(group, results):
                    if not put(("ok", idx, res.payload, res.telemetry)):
                        return
            put(("end",))
        except BaseException as exc:  # surfaced in the consumer
            put(("err", exc))

    @staticmethod
    def _next(ready_queue: "queue.Queue", producer: threading.Thread):
        """The next queued item; never waits on a producer that is gone."""
        while True:
            try:
                return ready_queue.get(timeout=0.1)
            except queue.Empty:
                if not producer.is_alive() and ready_queue.empty():
                    raise RuntimeError(
                        "prefetch producer exited without a result"
                    ) from None

    def _merge_telemetry(self, tel, tracer) -> None:
        _metrics.REGISTRY.merge_counters(tel.counters, rank=tel.rank)
        if tracer is not None and tel.spans:
            tracer.emit_foreign(tel.spans, rank=tel.rank, pid=tel.pid)

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Start the worker executor now; idempotent.  Without it the
        first :meth:`iter_batches` pays the worker spawn cost, which
        throughput measurements usually want outside the timed region."""
        self._ensure_executor()

    def iter_batches(self, cfg=None, epoch_index: int | None = None):
        """Yield ``(indices, DescriptorBatch)`` with prefetch overlap.

        ``cfg`` must match the loader's config when given (the workers
        were built with :attr:`cfg`).  Abandoning the generator part-way
        (early stop, exceptions) stops the producer and leaves the
        executor reusable for the next epoch.
        """
        if cfg is not None and cfg != self.cfg:
            raise ValueError("iter_batches cfg differs from the loader's cfg")
        self._ensure_executor()
        batches = list(self.epoch(epoch_index))
        tracer = current_tracer()
        hits = _metrics.REGISTRY.counter("data.prefetch.hits")
        stalls = _metrics.REGISTRY.counter("data.prefetch.stalls")
        wait_h = _metrics.REGISTRY.histogram("data.prefetch.wait_s")
        ready_queue: "queue.Queue" = queue.Queue(maxsize=self.depth * self.workers)
        stop = threading.Event()
        producer = threading.Thread(
            target=self._produce,
            args=(batches, ready_queue, stop, tracer is not None),
            name="data-prefetch",
            daemon=True,
        )
        producer.start()
        served = 0
        try:
            while served < len(batches):
                if ready_queue.empty():
                    self.stats["stalls"] += 1
                    stalls.inc()
                    t0 = time.perf_counter()
                    with _span("data.prefetch.wait", served=served):
                        item = self._next(ready_queue, producer)
                    waited = time.perf_counter() - t0
                    self.stats["wait_s"] += waited
                    wait_h.observe(waited)
                else:
                    self.stats["hits"] += 1
                    hits.inc()
                    item = self._next(ready_queue, producer)
                if item[0] == "err":
                    raise item[1]
                if item[0] == "end":  # producer stopped early
                    raise RuntimeError(
                        "prefetch producer ended before the epoch completed"
                    )
                _, idx, batch, tel = item
                self._merge_telemetry(tel, tracer)
                served += 1
                self.stats["batches"] += 1
                yield idx, batch
        finally:
            stop.set()  # the producer's puts time out and see it
            producer.join(timeout=5.0)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker executor down (idempotent; reopens on use)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "StreamingLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def make_loader(
    source,
    batch_size: int,
    *,
    cfg=None,
    shuffle: bool = True,
    drop_last: bool = True,
    seed: int = 0,
    window: Optional[int] = None,
    prefetch: bool = False,
    executor: "str | None" = None,
    workers: int = 2,
    depth: int = 2,
) -> BatchLoader:
    """Build the right loader for a source (mirrors ``make_optimizer``).

    ``source`` is anything :func:`~repro.data.open_source` accepts -- a
    ``Dataset``, a ``ShardedFrameStore``, an ``.npz`` path, or a store
    directory.  ``prefetch=True`` returns a :class:`StreamingLoader`
    (requires ``cfg``); otherwise a plain :class:`BatchLoader`.  Both
    yield bit-identical batch sequences for equal parameters.
    """
    source = open_source(source)
    if prefetch:
        return StreamingLoader(
            source,
            batch_size,
            cfg=cfg,
            shuffle=shuffle,
            drop_last=drop_last,
            seed=seed,
            window=window,
            executor=executor,
            workers=workers,
            depth=depth,
        )
    return BatchLoader(
        source,
        batch_size,
        shuffle=shuffle,
        drop_last=drop_last,
        seed=seed,
        window=window,
    )
