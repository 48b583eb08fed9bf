"""Unit tests for device engines, activity tracking and kernel specs."""

import pytest

from repro.des import Environment, Interrupt
from repro.gpusim import (
    ComputeEngine,
    CopyEngine,
    DeviceActivity,
    ExecutionReceipt,
    KernelSpec,
    matmul_efficiency,
    matmul_kernel,
)
from repro.hw import A100_SXM4_40GB, GPUSpec


def drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class TestDeviceActivity:
    def test_fresh_device_no_gap(self):
        activity = DeviceActivity()
        assert activity.idle_gap(100.0) == 0.0

    def test_gap_after_activity(self):
        activity = DeviceActivity()
        activity.note(10.0)
        assert activity.idle_gap(15.0) == 5.0
        assert activity.idle_gap(10.0) == 0.0
        assert activity.idle_gap(5.0) == 0.0  # still busy

    def test_note_only_extends(self):
        activity = DeviceActivity()
        activity.note(10.0)
        activity.note(5.0)  # earlier end must not shrink the horizon
        assert activity.busy_until == 10.0


class TestEngineExecution:
    def test_receipt_fields(self):
        env = Environment()
        engine = ComputeEngine(env, A100_SXM4_40GB)

        def host():
            receipt = yield from engine.execute(2.0)
            return receipt

        receipt = drive(env, host())
        assert receipt.queued_at == 0.0
        assert receipt.start == 0.0
        assert receipt.end == pytest.approx(2.0)
        assert receipt.duration == pytest.approx(2.0)
        assert receipt.queue_wait == 0.0
        assert engine.ops_executed == 1

    def test_contention_measured_in_queue_wait(self):
        env = Environment()
        engine = ComputeEngine(env, A100_SXM4_40GB)
        receipts = []

        def user():
            receipt = yield from engine.execute(1.0)
            receipts.append(receipt)

        env.process(user())
        env.process(user())
        env.run()
        waits = sorted(r.queue_wait for r in receipts)
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(1.0)

    def test_utilization_counts_busy_fraction(self):
        env = Environment()
        engine = ComputeEngine(env, A100_SXM4_40GB)

        def host():
            yield from engine.execute(3.0)
            yield env.timeout(1.0)
            yield from engine.execute(1.0)

        drive(env, host())
        # 4.025 s busy (the second kernel pays the 25 ms ramp after
        # its 1 s starvation gap) over a 5.025 s lifetime.
        assert engine.utilization() == pytest.approx(4.025 / 5.025)

    def test_copy_engine_tracks_bytes(self):
        env = Environment()
        engine = CopyEngine(env, "h2d")

        def host():
            yield from engine.copy(1000, 0.5)
            yield from engine.copy(2000, 0.5)

        drive(env, host())
        assert engine.bytes_moved == 3000
        assert engine.ops_executed == 2

    def test_shared_activity_suppresses_starvation(self):
        env = Environment()
        activity = DeviceActivity()
        compute = ComputeEngine(env, A100_SXM4_40GB, activity)
        copier = CopyEngine(env, "h2d", activity)

        def host():
            yield from compute.execute(0.01)
            # Long idle, but a copy right before the kernel re-warms
            # the device.
            yield env.timeout(0.1)
            yield from copier.copy(100, 0.001)
            receipt = yield from compute.execute(0.01)
            return receipt

        receipt = drive(env, host())
        assert receipt.starvation_cost < 1e-6


class TestKernelSpecs:
    def test_explicit_duration_wins(self):
        k = KernelSpec(name="k", duration_s=0.5, flops=1e15)
        assert k.execution_time(A100_SXM4_40GB) == 0.5

    def test_memory_bound_kernel(self):
        # Pure bandwidth: 155.5 GB at 1555 GB/s = 0.1 s.
        k = KernelSpec(name="k", bytes_accessed=155.5e9)
        assert k.execution_time(A100_SXM4_40GB) == pytest.approx(0.1)

    def test_compute_bound_kernel(self):
        k = KernelSpec(name="k", flops=19.5e12, efficiency=1.0)
        assert k.execution_time(A100_SXM4_40GB) == pytest.approx(1.0)

    def test_roofline_takes_max(self):
        k = KernelSpec(name="k", flops=19.5e12, bytes_accessed=1555e9 * 2,
                       efficiency=1.0)
        assert k.execution_time(A100_SXM4_40GB) == pytest.approx(2.0)

    def test_no_work_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(name="empty")

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(name="k", duration_s=-1)
        with pytest.raises(ValueError):
            KernelSpec(name="k", flops=-1)
        with pytest.raises(ValueError):
            KernelSpec(name="k", flops=1, efficiency=0)

    def test_matmul_kernel_metadata(self):
        k = matmul_kernel(4096)
        assert k.meta["matrix_size"] == 4096
        assert k.flops == 2 * 4096**3
        assert k.efficiency == matmul_efficiency(4096)

    def test_matmul_invalid(self):
        with pytest.raises(ValueError):
            matmul_kernel(0)
        with pytest.raises(ValueError):
            matmul_kernel(128, dtype_bytes=0)
        with pytest.raises(ValueError):
            matmul_efficiency(0)


class TestEngineSlot:
    """The engine's FIFO slot: grant order, withdrawal, release."""

    def test_fifo_grants_across_three_contending_streams(self):
        from repro.gpusim import CudaRuntime

        env = Environment()
        rt = CudaRuntime(env)
        kernel = KernelSpec(name="k", duration_s=1e-3)
        ops = {}

        def host(tid):
            stream = rt.create_stream()
            ops[tid] = yield from rt.launch(kernel, stream, tid, blocking=True)

        for tid in range(3):
            env.process(host(tid))
        env.run()
        starts = [ops[tid].receipt.start for tid in range(3)]
        ends = [ops[tid].receipt.end for tid in range(3)]
        # Same submit time; the engine grants in request order and
        # each grant comes from the release of the op ahead.
        assert starts == sorted(starts)
        assert starts[1] == ends[0] and starts[2] == ends[1]
        assert [ops[t].receipt.queued_at for t in range(3)] == [starts[0]] * 3

    def test_interrupted_waiter_withdraws_and_next_is_granted(self):
        env = Environment()
        engine = CopyEngine(env, "copy")
        log = []

        def user(name, busy):
            try:
                receipt = yield from engine.execute(busy)
                log.append((name, receipt.start, receipt.end))
            except Interrupt:
                log.append((name, "interrupted", env.now))

        env.process(user("holder", 2.0))
        victim = env.process(user("victim", 1.0))
        env.process(user("next", 1.0))

        def attacker():
            yield env.timeout(0.5)
            victim.interrupt()

        env.process(attacker())
        env.run()
        assert log == [
            ("victim", "interrupted", 0.5),
            ("holder", 0.0, 2.0),
            ("next", 2.0, 3.0),
        ]
        assert not engine._held and not engine._waiters
        assert engine.ops_executed == 2

    def test_exception_while_holding_releases_the_engine(self):
        env = Environment()
        engine = ComputeEngine(env, A100_SXM4_40GB)
        log = []

        def holder():
            try:
                yield from engine.execute(2.0)
            except Interrupt:
                log.append(("holder", "interrupted", env.now))

        def waiter():
            receipt = yield from engine.execute(1.0)
            log.append(("waiter", receipt.start, receipt.queue_wait))

        victim = env.process(holder())
        env.process(waiter())

        def attacker():
            yield env.timeout(0.5)
            victim.interrupt()

        env.process(attacker())
        env.run()
        assert log == [("holder", "interrupted", 0.5), ("waiter", 0.5, 0.5)]
        assert not engine._held and not engine._waiters

    def test_one_op_costs_a_grant_and_a_timeout(self):
        env = Environment()
        engine = CopyEngine(env, "copy")

        def user():
            yield from engine.copy(1024, 1.0)

        env.process(user())
        env.run()
        # Initialize, grant, busy timeout, process end: no release
        # event and no Request object per operation.
        assert env.metrics_snapshot()["events_dispatched"] == 4
        assert engine.bytes_moved == 1024

    def test_receipt_is_slotted_with_derived_properties(self):
        receipt = ExecutionReceipt(1.0, 3.5, 0.5, 0.25)
        assert (receipt.duration, receipt.queue_wait) == (2.5, 0.5)
        assert not hasattr(receipt, "__dict__")
        assert repr(receipt) == (
            "ExecutionReceipt(start=1.0, end=3.5, queued_at=0.5, "
            "starvation_cost=0.25)"
        )
