"""Unit tests for Stream mechanics: ordering, drain events, back-pressure."""

import pytest

from repro.des import Environment
from repro.gpusim import CudaRuntime, KernelOp, KernelSpec, Stream
from repro.hw import MiB
from repro.trace import CopyKind


def make():
    env = Environment()
    return env, CudaRuntime(env)


def drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class TestOrdering:
    def test_copy_then_kernel_then_copy_serialize_in_stream(self):
        env, rt = make()

        def host():
            c1 = yield from rt.memcpy_async(MiB, CopyKind.H2D)
            k = yield from rt.launch(KernelSpec(name="k", duration_s=1e-3))
            c2 = yield from rt.memcpy_async(MiB, CopyKind.D2H)
            yield c2.completion
            return c1, k, c2

        c1, k, c2 = drive(env, host())
        assert c1.receipt.end <= k.receipt.start
        assert k.receipt.end <= c2.receipt.start

    def test_ops_retired_counter(self):
        env, rt = make()

        def host():
            for _ in range(5):
                yield from rt.memcpy(MiB, CopyKind.H2D)

        drive(env, host())
        assert rt.default_stream.ops_retired == 5


class TestDrainEvents:
    def test_drained_fires_immediately_when_idle(self):
        env, rt = make()

        def host():
            t0 = env.now
            yield rt.default_stream.drained()
            return env.now - t0

        assert drive(env, host()) == 0.0

    def test_drained_waits_for_in_flight_work(self):
        env, rt = make()

        def host():
            yield from rt.launch(KernelSpec(name="k", duration_s=0.5))
            t0 = env.now
            yield rt.default_stream.drained()
            return env.now - t0

        waited = drive(env, host())
        assert waited >= 0.45

    def test_pending_and_idle_flags(self):
        env, rt = make()
        observed = []

        def host():
            yield from rt.launch(KernelSpec(name="k", duration_s=1.0))
            observed.append((rt.default_stream.pending,
                             rt.default_stream.idle))
            yield rt.default_stream.drained()
            observed.append((rt.default_stream.pending,
                             rt.default_stream.idle))

        drive(env, host())
        assert observed[0][0] >= 1 and observed[0][1] is False
        assert observed[1] == (0, True)


class TestCrossStreamIndependence:
    def test_blocked_stream_does_not_block_another(self):
        env, rt = make()
        s1, s2 = rt.create_stream(), rt.create_stream()
        done = []

        def slow():
            yield from rt.launch(KernelSpec(name="slow", duration_s=10.0),
                                 stream=s1, blocking=True)
            done.append(("slow", env.now))

        def fast():
            # Copies use a different engine: finish long before s1.
            for _ in range(3):
                yield from rt.memcpy(MiB, CopyKind.H2D, s2)
            done.append(("fast", env.now))

        env.process(slow())
        env.process(fast())
        env.run()
        order = [name for name, _ in done]
        assert order == ["fast", "slow"]

    def test_kernels_across_streams_serialize_on_compute(self):
        env, rt = make()
        s1, s2 = rt.create_stream(), rt.create_stream()

        def host():
            k1 = yield from rt.launch(KernelSpec(name="a", duration_s=1.0),
                                      stream=s1)
            k2 = yield from rt.launch(KernelSpec(name="b", duration_s=1.0),
                                      stream=s2)
            yield k1.completion & k2.completion
            return k1, k2

        k1, k2 = drive(env, host())
        # Default (serial) compute engine: no overlap.
        assert k2.receipt.start >= k1.receipt.end or \
            k1.receipt.start >= k2.receipt.end


class TestCorrelationIds:
    def test_api_and_device_events_share_correlation(self):
        env, rt = make()

        def host():
            yield from rt.memcpy(MiB, CopyKind.H2D)

        drive(env, host())
        trace = rt.tracer.trace
        api = [e for e in trace if e.name == "cudaMemcpy"][0]
        dev = trace.memcpys()[0]
        assert api.correlation_id == dev.correlation_id != 0


class TestCommandQueue:
    """The stream's bounded command queue and its event order."""

    def _stream(self, env, max_depth):
        rt = CudaRuntime(env)
        return Stream(
            env, 99, rt.compute, rt.copy_h2d, rt.copy_d2h, rt.tracer,
            gpu_execution_time=lambda kernel: kernel.duration_s,
            max_depth=max_depth,
        )

    def _op(self, env, name):
        return KernelOp(
            completion=env.event(), kernel=KernelSpec(name=name, duration_s=1.0)
        )

    def test_max_depth_two_blocks_the_third_submit(self):
        env = Environment()
        stream = self._stream(env, max_depth=2)
        ops = [self._op(env, f"k{i}") for i in range(4)]
        # The dispatcher has not started yet: two ops fill the queue,
        # the third and fourth wait for room.
        puts = [stream.submit(op) for op in ops]
        assert [p.triggered for p in puts] == [True, True, False, False]
        assert stream.pending == 4
        admitted = {}

        def watch(i):
            yield puts[i]
            admitted[i] = env.now

        for i in range(4):
            env.process(watch(i))
        env.run()
        # Each get frees one slot and admits one blocked submit.
        assert admitted == {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}
        assert [op.receipt.start for op in ops] == [0.0, 1.0, 2.0, 3.0]
        assert stream.idle and stream.ops_retired == 4

    def test_put_before_get_when_dispatcher_waits(self):
        env = Environment()
        stream = self._stream(env, max_depth=2)
        env.run()  # the dispatcher parks on its get
        op = self._op(env, "k")
        put = stream.submit(op)
        seen = []
        put.callbacks.append(lambda _: seen.append(stream._in_flight))
        env.run()
        # The put is processed before the get resumes the dispatcher.
        assert seen == [None]
        assert op.completion.processed

    def test_get_before_admitted_put_when_ops_are_queued(self):
        env = Environment()
        stream = self._stream(env, max_depth=1)
        first, second = self._op(env, "a"), self._op(env, "b")
        stream.submit(first)
        blocked = stream.submit(second)
        seen = []
        blocked.callbacks.append(lambda _: seen.append(stream._in_flight))
        env.run()
        # The dispatcher's get (taking ``first``) is processed before
        # the put it admitted from the blocked queue.
        assert seen == [first]

    def test_rejects_non_positive_depth(self):
        env = Environment()
        with pytest.raises(ValueError, match="max_depth"):
            self._stream(env, max_depth=0)
