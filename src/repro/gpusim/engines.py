"""Device-side execution engines of the simulated GPU.

A GPU exposes three serial engines, matching the hardware units a
CUDA device schedules independently:

* the **compute engine** executing kernels;
* two **copy engines** (DMA), one per direction (H2D, D2H).

Each engine serializes its own work but runs concurrently with the
others, which is what lets multi-threaded workloads overlap transfers
with compute — the latency hiding slack disrupts.

**Starvation accounting** (the paper's central mechanism) lives here.
:class:`DeviceActivity` tracks when *any* engine last had work; the
compute engine charges :meth:`GPUSpec.starvation_cost` on the idle gap
since then — the clock/power-ramp and scheduler re-priming cost a real
GPU pays when its queue runs dry. While anything keeps the device busy
the gap is zero and no cost accrues, so well-fed GPUs (long kernels,
or many parallel submitters) hide slack exactly as the paper observes.
Copy (DMA) engines pay no ramp: they run off the bus clock.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from ..des import PENDING, Environment, Event, Timeout, UtilizationTracker, quantize
from ..hw import GPUSpec

__all__ = ["DeviceActivity", "Engine", "ComputeEngine", "CopyEngine", "ExecutionReceipt"]


class DeviceActivity:
    """Device-wide record of the last time any engine had work."""

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.ever_busy = False

    def note(self, until: float) -> None:
        """Extend the device-busy horizon to ``until``."""
        self.ever_busy = True
        if until > self.busy_until:
            self.busy_until = until

    def idle_gap(self, now: float) -> float:
        """Idle time since the device last had work (0 if fresh/busy)."""
        if not self.ever_busy:
            return 0.0
        return max(0.0, now - self.busy_until)


class ExecutionReceipt:
    """What an engine reports back for one executed operation."""

    __slots__ = ("start", "end", "queued_at", "starvation_cost")

    def __init__(
        self, start: float, end: float, queued_at: float,
        starvation_cost: float = 0.0,
    ) -> None:
        self.start = start
        self.end = end
        self.queued_at = queued_at
        self.starvation_cost = starvation_cost

    def __repr__(self) -> str:
        return (
            f"ExecutionReceipt(start={self.start!r}, end={self.end!r}, "
            f"queued_at={self.queued_at!r}, "
            f"starvation_cost={self.starvation_cost!r})"
        )

    @property
    def duration(self) -> float:
        """Busy time including any starvation cost."""
        return self.end - self.start

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for the engine."""
        return self.start - self.queued_at


class Engine:
    """A serial device engine with utilization tracking.

    The engine is one FIFO slot: ``_held`` says whether an operation
    occupies it, ``_waiters`` holds the grant events of the operations
    queued behind it. A grant is scheduled at request time when the
    engine is free, otherwise by the release of the operation ahead.
    """

    def __init__(self, env: Environment, name: str, activity: DeviceActivity) -> None:
        self.env = env
        self.name = name
        self.activity = activity
        self._held = False
        self._waiters: Deque[Event] = deque()
        self.tracker = UtilizationTracker(env, name=name)
        self.ops_executed = 0

    def execute(self, busy_time: float) -> Generator[Event, None, ExecutionReceipt]:
        """Occupy the engine for ``busy_time`` seconds (a sub-process).

        Use as ``receipt = yield from engine.execute(t)`` inside
        another process generator.
        """
        env = self.env
        queued_at = env.now
        grant = Event(env)
        if self._held:
            self._waiters.append(grant)
        else:
            self._held = True
            grant.succeed()
        try:
            yield grant
            start = env.now
            extra = self._pre_execution_cost()
            # Mark the device busy through this op's expected end so
            # concurrent engines measure their gaps correctly even
            # while this op is still in flight.
            self.activity.note(start + busy_time + extra)
            self.tracker.set_busy()
            yield Timeout(env, busy_time + extra)
            end = env.now
            self.activity.note(end)
            self.tracker.set_idle()
            self.ops_executed += 1
        finally:
            self._release(grant)
        return ExecutionReceipt(start, end, queued_at, extra)

    def _release(self, grant: Event) -> None:
        """Give the slot to the next waiter, or withdraw ``grant``.

        A grant that never triggered belongs to an operation
        interrupted while queued: it leaves the queue and the holder
        keeps the slot.
        """
        if grant._value is PENDING:
            self._waiters.remove(grant)
        elif self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False

    def _pre_execution_cost(self) -> float:
        """Extra cost charged before this execution (engine-specific)."""
        return 0.0

    def utilization(self) -> float:
        """Busy fraction over the engine's observed lifetime."""
        self.tracker.finish()
        return self.tracker.utilization()


class ComputeEngine(Engine):
    """The kernel-execution engine, with starvation cost on idle gaps.

    ``faults`` optionally holds a compiled
    :class:`~repro.faults.FaultInjector`: operations starting inside a
    ``GpuStall`` window pay its extra busy time (throttling/preemption
    pauses), charged through the same pre-execution path as the
    starvation cost so both engine variants inherit it.
    """

    #: Optional fault injector (set by the runtime; None = healthy).
    faults = None

    def __init__(
        self,
        env: Environment,
        gpu: GPUSpec,
        activity: Optional[DeviceActivity] = None,
        name: str = "compute",
    ) -> None:
        super().__init__(env, name, activity or DeviceActivity())
        self.gpu = gpu
        self.total_starvation_cost = 0.0

    def _pre_execution_cost(self) -> float:
        # Tick-quantized (repro.des.timebase) so starvation totals and
        # the event times they extend stay exactly representable.
        cost = quantize(self.gpu.starvation_cost(self.activity.idle_gap(self.env.now)))
        self.total_starvation_cost += cost
        if self.faults is not None:
            cost += self.faults.charge_stall(self.env.now)
        return cost


class OccupancyComputeEngine(ComputeEngine):
    """A compute engine that co-schedules kernels by SM occupancy.

    Instead of serializing all kernels on one unit, kernels acquire a
    share of the device's SMs (``kernel.sm_fraction``): small kernels
    from different streams run concurrently, which is the
    latency-hiding the Background section describes ("GPUs function
    best with large amounts of work queued up at their scheduler").
    Execution time is unchanged while shares fit — concurrent kernels
    use disjoint SMs.
    """

    def __init__(
        self,
        env: Environment,
        gpu: GPUSpec,
        activity: Optional[DeviceActivity] = None,
        name: str = "compute-occupancy",
    ) -> None:
        super().__init__(env, gpu, activity, name)
        from ..des import Container

        self._sms = Container(
            env, capacity=float(gpu.sm_count), init=float(gpu.sm_count)
        )
        self._resident = 0

    @property
    def resident_kernels(self) -> int:
        """Kernels currently executing concurrently."""
        return self._resident

    def execute_kernel(
        self, busy_time: float, sm_fraction: float
    ) -> Generator[Event, None, ExecutionReceipt]:
        """Run one kernel on its SM share (concurrent with others)."""
        if not 0 < sm_fraction <= 1:
            raise ValueError("sm_fraction must be in (0, 1]")
        queued_at = self.env.now
        share = max(1.0, sm_fraction * self.gpu.sm_count)
        yield self._sms.get(share)
        start = self.env.now
        extra = self._pre_execution_cost()
        self.activity.note(start + busy_time + extra)
        self._resident += 1
        if self._resident == 1:
            self.tracker.set_busy()
        yield self.env.timeout(busy_time + extra)
        end = self.env.now
        self.activity.note(end)
        self._resident -= 1
        if self._resident == 0:
            self.tracker.set_idle()
        self.ops_executed += 1
        yield self._sms.put(share)
        return ExecutionReceipt(start, end, queued_at, extra)


class CopyEngine(Engine):
    """A DMA engine; transfer time comes from the host link (PCIe)."""

    def __init__(
        self, env: Environment, name: str, activity: Optional[DeviceActivity] = None
    ) -> None:
        super().__init__(env, name, activity or DeviceActivity())
        self.bytes_moved = 0.0

    def copy(
        self, nbytes: float, transfer_time: float
    ) -> Generator[Event, None, ExecutionReceipt]:
        """Occupy the engine for one transfer of ``nbytes``."""
        receipt = yield from self.execute(transfer_time)
        self.bytes_moved += nbytes
        return receipt
