"""CUDA-style streams: in-order device work queues.

Operations enqueued on one stream execute in submission order; work on
different streams overlaps subject to engine availability. Each
stream runs a dispatcher process that pulls operations and drives the
appropriate engine; completion events let the host (or CUDA events)
wait on individual operations or on the whole stream draining.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, List, Optional, Tuple, Union

from ..des import Environment, Event
from ..trace import CopyKind, EventKind, Tracer
from .engines import ComputeEngine, CopyEngine, ExecutionReceipt
from .kernels import KernelSpec

__all__ = ["Stream", "KernelOp", "CopyOp", "MarkerOp"]

_op_ids = itertools.count(1)


@dataclass
class _BaseOp:
    """Common bookkeeping for device operations."""

    completion: Event
    thread: int = 0
    correlation_id: int = 0
    op_id: int = field(default_factory=lambda: next(_op_ids))
    receipt: Optional[ExecutionReceipt] = None


@dataclass
class KernelOp(_BaseOp):
    """A kernel launch awaiting execution."""

    kernel: Optional[KernelSpec] = None


@dataclass
class CopyOp(_BaseOp):
    """A memcpy awaiting a DMA engine."""

    nbytes: int = 0
    copy_kind: CopyKind = CopyKind.H2D
    transfer_time: float = 0.0


@dataclass
class MarkerOp(_BaseOp):
    """A no-work marker (CUDA event record) that completes in order."""


Op = Union[KernelOp, CopyOp, MarkerOp]


class Stream:
    """One in-order work queue on a simulated GPU.

    The command queue is a deque of at most ``max_depth`` operations;
    submits beyond that wait in ``_blocked`` (back-pressure). Its put
    and get events are scheduled in the order a
    :class:`~repro.des.Store` schedules them: when the dispatcher is
    already waiting, the put before the get; when operations are
    queued, the get before the put it admits from ``_blocked``.
    """

    def __init__(
        self,
        env: Environment,
        stream_id: int,
        compute: ComputeEngine,
        copy_h2d: CopyEngine,
        copy_d2h: CopyEngine,
        tracer: Tracer,
        gpu_execution_time: Any,
        max_depth: int = 1024,
    ) -> None:
        if max_depth <= 0:
            raise ValueError(f"max_depth must be > 0, got {max_depth}")
        self.env = env
        self.stream_id = stream_id
        self._compute = compute
        # Resolved once: OccupancyComputeEngine co-schedules kernels by
        # SM share, every other compute engine serializes them.
        self._execute_kernel = getattr(compute, "execute_kernel", None)
        self._copy = {CopyKind.H2D: copy_h2d, CopyKind.D2H: copy_d2h}
        self._tracer = tracer
        self._execution_time = gpu_execution_time
        self._max_depth = max_depth
        self._items: Deque[Op] = deque()
        self._blocked: Deque[Tuple[Event, Op]] = deque()
        #: The dispatcher's get event while it waits on an empty queue.
        self._getter: Optional[Event] = None
        self._in_flight: Optional[Op] = None
        self._drain_waiters: List[Event] = []
        # Explicit outstanding-op counter: an op handed from the queue
        # to the dispatcher's pending get is otherwise momentarily
        # invisible to both the queue and _in_flight.
        self._outstanding = 0
        self.ops_retired = 0
        env.process(self._dispatch(), name=f"stream{stream_id}-dispatch")

    # -- host-facing ------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Operations submitted but not yet retired."""
        return self._outstanding

    @property
    def idle(self) -> bool:
        """Whether the stream has no queued or executing work."""
        return self.pending == 0

    def submit(self, op: Op) -> Event:
        """Enqueue an operation; returns the put-event (back-pressure)."""
        self._outstanding += 1
        put = Event(self.env)
        if len(self._items) < self._max_depth:
            self._items.append(op)
            put.succeed()
            getter = self._getter
            if getter is not None:
                self._getter = None
                getter.succeed(self._items.popleft())
        else:
            self._blocked.append((put, op))
        return put

    def drained(self) -> Event:
        """An event that fires when the stream has fully drained."""
        evt = self.env.event()
        if self.idle:
            evt.succeed(None)
        else:
            self._drain_waiters.append(evt)
        return evt

    # -- dispatcher ---------------------------------------------------------------
    def _dispatch(self) -> Generator[Event, Any, None]:
        env = self.env
        items = self._items
        blocked = self._blocked
        while True:
            get = Event(env)
            if items:
                get.succeed(items.popleft())
                if blocked:
                    put, queued = blocked.popleft()
                    items.append(queued)
                    put.succeed()
            else:
                self._getter = get
            op = yield get
            self._in_flight = op
            if isinstance(op, KernelOp):
                yield from self._run_kernel(op)
            elif isinstance(op, CopyOp):
                yield from self._run_copy(op)
            else:
                op.receipt = None
            self._in_flight = None
            self._outstanding -= 1
            self.ops_retired += 1
            op.completion.succeed(op)
            if self.idle and self._drain_waiters:
                waiters, self._drain_waiters = self._drain_waiters, []
                for evt in waiters:
                    evt.succeed(None)

    def _run_kernel(self, op: KernelOp) -> Generator[Event, Any, None]:
        assert op.kernel is not None
        busy = self._execution_time(op.kernel)
        execute_kernel = self._execute_kernel
        if execute_kernel is not None:
            receipt = yield from execute_kernel(busy, op.kernel.sm_fraction)
        else:
            receipt = yield from self._compute.execute(busy)
        op.receipt = receipt
        self._tracer.record(
            EventKind.KERNEL,
            op.kernel.name,
            receipt.start,
            receipt.end,
            stream=self.stream_id,
            correlation_id=op.correlation_id,
            thread=op.thread,
            meta={
                "starvation_cost": receipt.starvation_cost,
                **op.kernel.meta,
            },
        )

    def _run_copy(self, op: CopyOp) -> Generator[Event, Any, None]:
        engine = self._copy[op.copy_kind]
        receipt = yield from engine.copy(op.nbytes, op.transfer_time)
        op.receipt = receipt
        self._tracer.record(
            EventKind.MEMCPY,
            f"memcpy{op.copy_kind.value}",
            receipt.start,
            receipt.end,
            stream=self.stream_id,
            nbytes=op.nbytes,
            copy_kind=op.copy_kind,
            correlation_id=op.correlation_id,
            thread=op.thread,
        )
