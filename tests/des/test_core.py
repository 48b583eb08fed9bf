"""Unit tests for the DES kernel core: events, processes, conditions."""

from heapq import heappop

import pytest

from repro.des import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_time():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 3.0
    assert env.now == 3.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "late", 5.0))
    env.process(proc(env, "early", 1.0))
    env.process(proc(env, "mid", 3.0))
    env.run()
    assert order == ["early", "mid", "late"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for i in range(5):
        env.process(proc(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_midway():
    env = Environment()
    hits = []

    def proc(env):
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(proc(env))
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env, ev):
        value = yield ev
        return value

    def trigger(env, ev):
        yield env.timeout(1.0)
        ev.succeed(123)

    w = env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert w.value == 123


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    env.process(waiter(env, ev))
    env.process(failer(env, ev))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_simulation():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("defused"))
    ev.defuse()
    env.run()  # no exception


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return {"answer": 42}

    p = env.process(proc(env))
    env.run()
    assert p.value == {"answer": 42}


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def fails(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waits(env, target):
        try:
            yield target
        except ValueError as exc:
            return f"caught {exc}"

    target = env.process(fails(env))
    w = env.process(waits(env, target))
    env.run()
    assert w.value == "caught inner"


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def proc(env):
        try:
            yield 42  # type: ignore[misc]
        except SimulationError:
            return "rejected"

    p = env.process(proc(env))
    env.run()
    assert p.value == "rejected"


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_waiting_on_already_processed_event():
    env = Environment()
    results = []

    def early(env, ev):
        yield env.timeout(1.0)
        ev.succeed("early-value")

    def late(env, ev):
        yield env.timeout(10.0)
        value = yield ev
        results.append(value)

    ev = env.event()
    env.process(early(env, ev))
    env.process(late(env, ev))
    env.run()
    assert results == ["early-value"]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(env, victim_proc):
        yield env.timeout(2.0)
        victim_proc.interrupt("stop now")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(2.0, "stop now")]


def test_interrupted_process_can_continue():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    def attacker(env, v):
        yield env.timeout(2.0)
        v.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == 3.0


def test_interrupting_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def proc(env):
        try:
            env.active_process.interrupt()
        except SimulationError as exc:
            errors.append(str(exc))
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert len(errors) == 1


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, ["a", "b"])


def test_any_of_fires_on_first_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, ["fast"])


def test_and_operator_builds_all_of():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0) & env.timeout(2.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.0


def test_or_operator_builds_any_of():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0) | env.timeout(2.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_condition_failure_propagates():
    env = Environment()
    ev = env.event()

    def proc(env, ev):
        try:
            yield env.all_of([env.timeout(10.0), ev])
        except RuntimeError as exc:
            return str(exc)

    def failer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("cond-fail"))

    p = env.process(proc(env, ev))
    env.process(failer(env, ev))
    env.run()
    assert p.value == "cond-fail"


def test_mixed_environment_events_rejected():
    env1 = Environment()
    env2 = Environment()
    t1 = env1.timeout(1.0)
    t2 = env2.timeout(1.0)
    with pytest.raises(SimulationError):
        AllOf(env1, [t1, t2])


def test_nested_process_waiting():
    env = Environment()

    def inner(env):
        yield env.timeout(2.0)
        return "inner-done"

    def outer(env):
        result = yield env.process(inner(env))
        return f"outer saw {result}"

    p = env.process(outer(env))
    env.run()
    assert p.value == "outer saw inner-done"


def test_event_repr_states():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    env.run()
    assert "processed" in repr(ev)


def test_large_event_count_performance_sanity():
    # 10k timeouts should execute without recursion issues.
    env = Environment()
    counter = []

    def proc(env):
        for _ in range(10_000):
            yield env.timeout(0.001)
        counter.append(env.now)

    env.process(proc(env))
    env.run()
    assert len(counter) == 1
    assert counter[0] == pytest.approx(10.0, rel=1e-6)


def test_urgent_events_precede_normal_at_same_time():
    from repro.des import NORMAL, URGENT

    env = Environment()
    order = []

    normal = env.event()
    normal._ok = True
    normal._value = None
    env.schedule(normal, priority=NORMAL, delay=1.0)
    normal.callbacks.append(lambda e: order.append("normal"))

    urgent = env.event()
    urgent._ok = True
    urgent._value = None
    env.schedule(urgent, priority=URGENT, delay=1.0)
    urgent.callbacks.append(lambda e: order.append("urgent"))

    env.run()
    assert order == ["urgent", "normal"]


def test_nested_conditions_compose():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="f")
        slow = env.timeout(10.0, value="s")
        mid = env.timeout(5.0, value="m")
        # (fast AND mid) OR slow -> fires at t=5.
        yield (fast & mid) | slow
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0


def test_condition_value_excludes_unfired_children():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(10.0, value="slow")
        result = yield fast | slow
        return sorted(result.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["fast"]


def test_process_waiting_on_itself_impossible_but_chain_works():
    env = Environment()

    def level3(env):
        yield env.timeout(1.0)
        return 3

    def level2(env):
        v = yield env.process(level3(env))
        return v + 2

    def level1(env):
        v = yield env.process(level2(env))
        return v + 1

    p = env.process(level1(env))
    env.run()
    assert p.value == 6


def test_environment_peek_advances_with_pops():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.peek() == 1.0
    env.step()
    assert env.peek() == 2.0
    env.step()
    assert env.peek() == float("inf")


def test_run_until_zero_elapsed():
    env = Environment()
    hits = []

    def proc(env):
        yield env.timeout(1.0)
        hits.append(env.now)

    env.process(proc(env))
    env.run(until=0.5)
    assert hits == []
    assert env.now == 0.5
    # Continue the same environment to completion.
    env.run()
    assert hits == [1.0]


class CountingEnvironment(Environment):
    """Counts step() calls, to tell direct dispatch from the old path."""

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


class TestDirectDispatch:
    """A process continuing in its own frame keeps step()'s order."""

    def test_timeout_chain_skips_steps_not_events(self):
        env = CountingEnvironment()
        times = []

        def proc(env):
            for _ in range(10):
                yield env.timeout(1.0)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [float(t) for t in range(1, 11)]
        # Initialize + 10 timeouts + the process event itself: every
        # one is pushed and popped, and the telemetry counts them all.
        snap = env.metrics_snapshot()
        assert snap["events_scheduled"] == snap["events_dispatched"] == 12
        assert snap["heap_depth"] == 0
        # The chain ran in one frame: far fewer step() calls.
        assert env.steps < 12

    def test_metrics_count_every_event_processed(self, monkeypatch):
        from repro.des import core

        pops = []

        def counting_heappop(heap):
            entry = heappop(heap)
            pops.append(entry[0])
            return entry

        monkeypatch.setattr(core, "heappop", counting_heappop)
        env = CountingEnvironment()

        def worker(env, delay):
            for _ in range(3):
                yield env.timeout(delay)
            return delay

        def main(env):
            a = env.process(worker(env, 1.0))
            b = env.process(worker(env, 0.25))
            done = yield a & b
            return sorted(done.values())

        p = env.process(main(env))
        env.run()
        assert p.value == [0.25, 1.0]
        snap = env.metrics_snapshot()
        # 3 initializations, 6 timeouts, 2 worker ends, the AllOf and
        # main's own end: each processed exactly once, by step() or
        # by a process popping it directly.
        assert len(pops) == 13
        assert snap["events_dispatched"] == snap["events_scheduled"] == 13
        assert pops == sorted(pops)
        assert env.steps < len(pops)

    def test_same_time_interrupt_is_delivered_first(self):
        env = Environment()
        log = []

        def victim(env):
            try:
                # Due now, but the interrupt below is URGENT and also
                # due now: it sits at the heap top, so the process
                # must park instead of popping its own timeout.
                yield env.timeout(0)
                log.append("timeout")
            except Interrupt as exc:
                log.append(("interrupt", exc.cause, env.now))
            yield env.timeout(1.0)
            log.append(("done", env.now))

        proc = env.process(victim(env))
        proc.interrupt("now")
        env.run()
        assert log == [("interrupt", "now", 0.0), ("done", 1.0)]

    def test_run_until_time_stops_at_the_boundary(self):
        env = Environment()
        hits = []

        def proc(env):
            while True:
                yield env.timeout(1.0)
                hits.append(env.now)

        env.process(proc(env))
        env.run(until=3.0)
        # The stop event is URGENT at t=3: the timeout due at 3 must
        # not be popped by the process ahead of it.
        assert hits == [1.0, 2.0]
        assert env.now == 3.0
        env.run(until=5.0)
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_two_waiters_on_one_timeout(self):
        env = Environment()
        shared = env.timeout(1.0)
        log = []

        def waiter(env, name):
            value = yield shared
            log.append((name, env.now, value))
            yield env.timeout(0.5)
            log.append((name, env.now))

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))
        env.run()
        # "a" yields the shared timeout while "b" has not started yet:
        # the heap top is b's initialization, so "a" parks and both
        # resume from step() in registration order.
        assert log == [
            ("a", 1.0, None),
            ("b", 1.0, None),
            ("a", 1.5),
            ("b", 1.5),
        ]

    def test_joining_a_heap_top_event_that_has_a_waiter(self):
        env = Environment()
        shared = env.timeout(1.0, value="v")
        log = []

        def early(env):
            value = yield shared
            log.append(("early", env.now, value))

        def late(env):
            yield env.timeout(0.5)
            # ``shared`` is now the heap top, but ``early`` already
            # waits on it: ``late`` must join the callbacks, not pop.
            value = yield shared
            log.append(("late", env.now, value))

        env.process(early(env))
        env.process(late(env))
        env.run()
        assert log == [("early", 1.0, "v"), ("late", 1.0, "v")]

    def test_failing_event_is_thrown_in_and_defused(self):
        env = Environment()
        caught = []

        def proc(env):
            ev = env.event()
            ev.fail(ValueError("boom"))
            try:
                # Failed, callback-free and at the heap top: taken by
                # direct dispatch, thrown into the generator here.
                yield ev
            except ValueError as exc:
                caught.append((str(exc), env.now, ev.defused))
            yield env.timeout(1.0)
            return "survived"

        p = env.process(proc(env))
        env.run()
        assert caught == [("boom", 0.0, True)]
        assert p.value == "survived"

    def test_unhandled_failure_still_crashes_the_run(self):
        env = Environment()

        def proc(env):
            ev = env.event()
            ev.fail(ValueError("boom"))
            yield ev

        env.process(proc(env))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_condition_children_keep_their_order(self):
        env = Environment()
        log = []

        def proc(env):
            first = env.timeout(1.0, value="one")
            second = env.timeout(2.0, value="two")
            either = first | second
            # ``first`` already carries the condition's callback, so
            # the process parks on it through step().
            value = yield first
            log.append(("first", env.now, value, either.triggered))
            result = yield either
            log.append(("either", env.now, list(result.values())))
            both = yield env.all_of([second, env.timeout(0.5)])
            log.append(("both", env.now, sorted(both.values(), key=str)))

        env.process(proc(env))
        env.run()
        assert log == [
            ("first", 1.0, "one", True),
            ("either", 1.0, ["one"]),
            ("both", 2.0, [None, "two"]),
        ]
