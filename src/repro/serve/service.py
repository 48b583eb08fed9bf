"""Penalty-as-a-service: micro-batched async serving with a DES cold path.

:class:`PenaltyService` turns the :class:`~repro.serve.SurrogateModel`
into a serving component an application scheduler (or a capacity
planner's inner loop) can query at production rates:

* **Bounded intake.** Requests enter a bounded :class:`asyncio.Queue`;
  when it is full the caller gets a typed
  :class:`ServiceOverloadedError` immediately instead of unbounded
  buffering — overload is a signal, not a memory leak.
* **Micro-batching.** One batcher task drains whatever is queued (up
  to ``max_batch``) and answers the whole batch with a *single*
  vectorized :meth:`~repro.serve.SurrogateModel.evaluate` call. The
  per-request Python work is one future resolution; everything else
  is numpy over the packed series arrays. This is what sustains the
  serving benchmark's ≥100k predictions/s warm-path target in one
  process.
* **Cold path.** Queries the surrogate refuses (unknown series, slack
  beyond the grid, too-short series) fall back — when a
  :class:`ColdPathConfig` is given — to a *real* DES measurement
  through :func:`repro.proxy.run_slack_sweep`, which brings the
  per-point cache and :class:`~repro.parallel.SweepExecutor` with it
  (a previously-measured point is a cache hit, not a re-simulation).
  The measurement is :meth:`~repro.serve.SurrogateModel.observe`-d
  back into the surrogate, so the region is warm for every later
  query; concurrent misses on the same quantized point share one
  in-flight measurement. Negative slack is never measured — it is a
  caller error and raises through.

Telemetry follows the repo's snapshot idiom: the hot path counts into
plain ints, :meth:`PenaltyService.publish` folds them into the active
metrics registry under ``serve.*`` (see
:func:`repro.obs.publish_service`), and :meth:`PenaltyService.report`
wraps that into a ``kind="serve"`` :class:`~repro.obs.RunReport`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import RunReport, get_registry
from ..obs.publish import publish_service
from ..proxy.options import SweepOptions
from ..proxy.quantize import slack_bucket
from .surrogate import Prediction, SurrogateDomainError, SurrogateModel

__all__ = [
    "ColdPathConfig",
    "PenaltyService",
    "ServiceOverloadedError",
    "predict_penalty",
]


class ServiceOverloadedError(RuntimeError):
    """The bounded request queue is full; the caller should back off."""


@dataclass(frozen=True, kw_only=True)
class ColdPathConfig:
    """How the service measures a refused query for real.

    ``iterations`` / ``target_compute_s`` size the DES proxy run
    (small defaults: the cold path trades a little measurement noise
    for latency; re-fit from a dense sweep for certified bounds).
    ``options`` carries the executor knobs — in particular
    ``cache=True`` makes repeated cold misses across service restarts
    hit the on-disk :class:`~repro.parallel.PointCache` instead of
    re-simulating. ``max_concurrent`` bounds simultaneous DES
    measurements so a burst of distinct cold queries cannot fork an
    unbounded thread pile.
    """

    iterations: int = 6
    target_compute_s: float = 30.0
    options: SweepOptions = SweepOptions(workers=1, cache=True)
    max_concurrent: int = 2
    #: > 1 offloads each cold measurement to that many shard
    #: subprocesses via :class:`~repro.parallel.ShardCoordinator`: the
    #: serving process never runs the DES itself, the workers share
    #: the service's point cache, and the answer is byte-identical to
    #: the in-process path (the merge contract).
    shard_workers: int = 0


@dataclass
class ServiceStats:
    """Plain-int hot-path counters (see :meth:`PenaltyService.stats`)."""

    requests: int = 0
    answered_warm: int = 0
    refused: int = 0
    overloads: int = 0
    batches: int = 0
    max_batch: int = 0
    queue_high_water: int = 0
    cold_misses: int = 0
    cold_shared: int = 0
    cold_measured_points: int = 0
    cold_wall_s: float = 0.0

    def to_doc(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "answered_warm": self.answered_warm,
            "refused": self.refused,
            "overloads": self.overloads,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "queue_high_water": self.queue_high_water,
            "cold_misses": self.cold_misses,
            "cold_shared": self.cold_shared,
            "cold_measured_points": self.cold_measured_points,
            "cold_wall_s": self.cold_wall_s,
        }


class PenaltyService:
    """Async micro-batching front end over a fitted surrogate.

    Keyword-only construction; use as an async context manager (or
    call :meth:`start` / :meth:`stop` explicitly)::

        model = SurrogateModel.fit(sweep)
        async with PenaltyService(surrogate=model) as svc:
            penalty, bound = await svc.predict(4096, 1e-4, threads=2)

    Without a ``cold_path`` the service is pure warm-path: refusals
    raise :class:`~repro.serve.SurrogateDomainError` to the caller.
    """

    def __init__(
        self,
        *,
        surrogate: SurrogateModel,
        max_queue: int = 4096,
        max_batch: int = 1024,
        cold_path: Optional[ColdPathConfig] = None,
    ) -> None:
        if max_queue < 1 or max_batch < 1:
            raise ValueError("max_queue and max_batch must be >= 1")
        self.surrogate = surrogate
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.cold_path = cold_path
        self.stats_counters = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._cold_sem: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[Tuple[int, int, str], asyncio.Task] = {}

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> "PenaltyService":
        """Create the request queue and launch the batcher task."""
        if self._batcher is not None:
            return self
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        if self.cold_path is not None:
            self._cold_sem = asyncio.Semaphore(self.cold_path.max_concurrent)
        self._batcher = asyncio.create_task(
            self._batch_loop(), name="penalty-service-batcher"
        )
        return self

    async def stop(self) -> None:
        """Drain in-flight work and stop the batcher."""
        if self._batcher is None:
            return
        assert self._queue is not None
        await self._queue.put(None)  # sentinel: drain then exit
        await self._batcher
        self._batcher = None
        for task in list(self._inflight.values()):
            try:
                await task
            except Exception:
                pass  # surfaced through the waiter futures already
        self._inflight.clear()

    async def __aenter__(self) -> "PenaltyService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- request path ---------------------------------------------------------
    async def predict(
        self, matrix_size: int, slack_s: float, threads: int = 1
    ) -> Prediction:
        """One penalty prediction with its error bound.

        Argument order mirrors
        :meth:`~repro.proxy.SlackResponseSurface.penalty`. Raises
        :class:`ServiceOverloadedError` when the bounded queue is
        full, and :class:`~repro.serve.SurrogateDomainError` when the
        query is refused and no cold path can answer it.
        """
        return await self._submit(
            (int(matrix_size), int(threads), float(slack_s))
        )

    async def predict_many(
        self, queries: List[Tuple[int, float, int]]
    ) -> List[Prediction]:
        """Concurrent form: ``(matrix_size, slack_s, threads)`` triples.

        Each query is enqueued with its own future; no task or
        coroutine is created per query. Queries that find the queue
        full are counted as overloads one by one, and the first
        failure raises to the caller as :func:`asyncio.gather` would.
        """
        loop = asyncio.get_running_loop()
        futs = []
        for n, s, t in queries:
            fut = loop.create_future()
            try:
                self._enqueue((int(n), int(t), float(s)), fut)
            except ServiceOverloadedError as err:
                fut.set_exception(err)
            futs.append(fut)
        return list(await asyncio.gather(*futs))

    async def predict_batch(
        self,
        matrix_sizes: Sequence[int],
        slack_values_s: Sequence[float],
        threads: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Warm-only vectorized batch: arrays in, arrays out.

        The whole batch occupies one queue slot and one future, and is
        answered inside the batcher's single numpy evaluation — no
        per-element Python anywhere, which is what the ≥100k/s serving
        throughput target rides on. Returns ``(penalties, bounds)``
        aligned with the inputs. The batch path never falls back to
        the cold path: any refused element raises the corresponding
        :class:`~repro.serve.SurrogateDomainError` for the first
        refusal (batch consumers are expected to pre-validate against
        :meth:`~repro.serve.SurrogateModel.domain`, or retry the
        refused element through :meth:`predict`).
        """
        n = np.asarray(matrix_sizes, dtype=np.int64)
        s = np.asarray(slack_values_s, dtype=np.float64)
        t = (
            np.ones(len(n), dtype=np.int64)
            if threads is None
            else np.asarray(threads, dtype=np.int64)
        )
        return await self._submit((n, t, s))

    async def _submit(self, work: Tuple[Any, Any, Any]) -> Any:
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._enqueue(work, fut)
        return await fut

    def _enqueue(self, work: Tuple[Any, Any, Any], fut: asyncio.Future) -> None:
        if self._queue is None:
            raise RuntimeError(
                "PenaltyService is not running; use 'async with' or start()"
            )
        try:
            self._queue.put_nowait((*work, fut))
        except asyncio.QueueFull:
            self.stats_counters.overloads += 1
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue}); back off"
            ) from None

    # -- batcher --------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            batch: List[Tuple[int, int, float, asyncio.Future]] = []
            stop = item is None
            if item is not None:
                batch.append(item)
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            if batch:
                depth = len(batch) + self._queue.qsize()
                if depth > self.stats_counters.queue_high_water:
                    self.stats_counters.queue_high_water = depth
                self._process(batch)
            if stop:
                return

    def _process(
        self, batch: List[Tuple[Any, Any, Any, asyncio.Future]]
    ) -> None:
        """Answer one drained batch with a single vectorized evaluate.

        Queue items are either scalar requests (``predict``) or whole
        array batches (``predict_batch``); both concatenate into one
        evaluation, then each item reads back its own slice.
        """
        st = self.stats_counters
        st.batches += 1
        # Expand: (start, count) slice of the concatenated arrays per item.
        spans: List[Tuple[int, int]] = []
        sizes: List[Any] = []
        thrs: List[Any] = []
        slacks: List[Any] = []
        cursor = 0
        for size, threads, slack, _fut in batch:
            count = 1 if isinstance(size, int) else len(size)
            spans.append((cursor, count))
            cursor += count
            if count == 1 and isinstance(size, int):
                sizes.append(size)
                thrs.append(threads)
                slacks.append(slack)
            else:
                sizes.extend(size)
                thrs.extend(threads)
                slacks.extend(slack)
        st.requests += cursor
        st.max_batch = max(st.max_batch, cursor)
        pen, bound, reason = self.surrogate.evaluate(sizes, thrs, slacks)
        for (size, threads, slack, fut), (start, count) in zip(batch, spans):
            if fut.cancelled():
                continue
            if isinstance(size, int):
                self._answer_one(
                    size, threads, slack, fut,
                    float(pen[start]), float(bound[start]),
                    int(reason[start]),
                )
                continue
            sl = slice(start, start + count)
            refused = np.flatnonzero(reason[sl])
            if len(refused) == 0:
                st.answered_warm += count
                fut.set_result((pen[sl].copy(), bound[sl].copy()))
            else:
                st.refused += count
                i = int(refused[0])
                name = (
                    self.surrogate.reason_name(int(reason[start + i]))
                    or "unknown"
                )
                query = (int(size[i]), int(threads[i]), float(slack[i]))
                fut.set_exception(
                    SurrogateDomainError(
                        name,
                        f"batch element {i} refused ({name}): "
                        f"matrix_size={query[0]} threads={query[1]} "
                        f"slack_s={query[2]!r}",
                        query,
                    )
                )

    def _answer_one(
        self,
        size: int,
        threads: int,
        slack: float,
        fut: asyncio.Future,
        pen: float,
        bound: float,
        reason: int,
    ) -> None:
        st = self.stats_counters
        if reason == 0:
            st.answered_warm += 1
            fut.set_result(Prediction(pen, bound))
            return
        name = self.surrogate.reason_name(reason) or "unknown"
        if self.cold_path is None or name == "negative-slack":
            st.refused += 1
            fut.set_exception(
                SurrogateDomainError(
                    name,
                    f"surrogate refuses ({name}): matrix_size={size} "
                    f"threads={threads} slack_s={slack!r}",
                    (size, threads, slack),
                )
            )
        else:
            self._schedule_cold(size, threads, slack, fut)

    # -- cold path ------------------------------------------------------------
    def _schedule_cold(
        self, size: int, threads: int, slack: float, fut: asyncio.Future
    ) -> None:
        key = (size, threads, slack_bucket(slack))
        task = self._inflight.get(key)
        if task is None:
            self.stats_counters.cold_misses += 1
            task = asyncio.create_task(
                self._cold_measure(key, size, threads, slack)
            )
            self._inflight[key] = task
        else:
            self.stats_counters.cold_shared += 1
        task.add_done_callback(
            lambda t: self._finish_cold(t, size, threads, slack, fut)
        )

    async def _cold_measure(
        self,
        key: Tuple[int, int, str],
        size: int,
        threads: int,
        slack: float,
    ) -> None:
        assert self.cold_path is not None and self._cold_sem is not None
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            async with self._cold_sem:
                measured = await loop.run_in_executor(
                    None, self._measure_sync, size, threads, slack
                )
        finally:
            self._inflight.pop(key, None)
            self.stats_counters.cold_wall_s += loop.time() - start
        for s, p in measured:
            self.surrogate.observe(size, threads, s, p)
        self.stats_counters.cold_measured_points += len(measured)

    def _measure_sync(
        self, size: int, threads: int, slack: float
    ) -> List[Tuple[float, float]]:
        """Blocking DES measurement (thread pool): the real answer.

        Runs the requested point through ``run_slack_sweep`` — cache,
        executor, calibration and all. When the surrogate's series for
        this key would stay below two points (unknown or degenerate
        series), a companion point at half the slack rides along so
        the refit series becomes viable for interpolation instead of
        refusing everything but the exact point.
        """
        from ..proxy.sweep import run_slack_sweep

        cfg = self.cold_path
        assert cfg is not None
        slacks = [slack]
        if self.surrogate.series_points(size, threads) < 2:
            companion = slack / 2.0
            if companion > 0:
                slacks = [companion, slack]
        if cfg.shard_workers > 1:
            # Offload to shard subprocesses (byte-identical by the
            # merge contract; see ColdPathConfig.shard_workers).
            from ..parallel import GridSpec, ShardCoordinator

            grid = GridSpec(
                matrix_sizes=(size,),
                slack_values_s=tuple(slacks),
                threads=(threads,),
                iterations=cfg.iterations,
                target_compute_s=cfg.target_compute_s,
            )
            result = ShardCoordinator(
                grid,
                min(cfg.shard_workers, grid.task_count),
                options=cfg.options,
            ).run()
        else:
            result = run_slack_sweep(
                matrix_sizes=[size],
                slack_values_s=slacks,
                threads=[threads],
                iterations=cfg.iterations,
                target_compute_s=cfg.target_compute_s,
                options=cfg.options,
            )
        return [
            (s, max(0.0, result.get(size, threads, s).penalty))
            for s in slacks
        ]

    def _finish_cold(
        self,
        task: "asyncio.Task[None]",
        size: int,
        threads: int,
        slack: float,
        fut: asyncio.Future,
    ) -> None:
        if fut.cancelled():
            return
        exc = task.exception() if not task.cancelled() else None
        if task.cancelled():
            fut.cancel()
            return
        if exc is not None:
            fut.set_exception(exc)
            return
        try:
            fut.set_result(
                self.surrogate.predict(size, slack, threads)
            )
        except SurrogateDomainError as err:
            self.stats_counters.refused += 1
            fut.set_exception(err)

    # -- telemetry ------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Hot-path counters plus surrogate refusal/observation state."""
        doc = self.stats_counters.to_doc()
        doc["observed_points"] = float(self.surrogate.observed_points)
        for name, count in self.surrogate.refusals.items():
            doc[f"refusal.{name}"] = float(count)
        return doc

    def publish(self, registry: Any = None) -> None:
        """Fold the service counters into the metrics registry."""
        publish_service(self.stats(), registry)

    def report(self, meta: Optional[Dict[str, Any]] = None) -> RunReport:
        """Publish and snapshot a ``kind="serve"`` run report."""
        self.publish()
        merged = {
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "cold_path": self.cold_path is not None,
            "surrogate_method": self.surrogate.method,
            "series": len(self.surrogate.series_keys),
        }
        merged.update(meta or {})
        return RunReport.collect(get_registry(), kind="serve", meta=merged)


def predict_penalty(
    matrix_size: int,
    slack_s: float,
    threads: int = 1,
    *,
    surrogate: SurrogateModel,
    cold_path: Optional[ColdPathConfig] = None,
) -> Prediction:
    """One-shot synchronous prediction through a short-lived service.

    The convenience form behind ``repro predict``: spins up a
    :class:`PenaltyService` for a single query and tears it down. Use
    a long-lived service for real serving — the one-shot pays the
    event-loop setup on every call.
    """

    async def _run() -> Prediction:
        async with PenaltyService(
            surrogate=surrogate, cold_path=cold_path
        ) as svc:
            return await svc.predict(matrix_size, slack_s, threads)

    return asyncio.run(_run())
