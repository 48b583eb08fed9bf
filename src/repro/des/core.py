"""Core of the discrete-event simulation (DES) kernel.

This is a compact, dependency-free process-based DES engine in the
style of SimPy: simulated time is a float, processes are Python
generators that ``yield`` events, and an :class:`Environment` advances
time by popping events off a binary heap.

The GPU runtime (:mod:`repro.gpusim`), network fabric
(:mod:`repro.network`) and application models (:mod:`repro.apps`) are
all built as processes on top of this kernel, which is what lets the
reproduction inject microsecond-scale "slack" into CPU-to-GPU
interactions deterministically and observe the starvation effects the
paper measures on real hardware.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return "done at %g" % env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
'done at 5'
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PENDING",
    "NORMAL",
    "URGENT",
]


class _Pending:
    """Sentinel for the value of an event that has not yet fired."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Unique sentinel marking an untriggered event's value.
PENDING: Any = _Pending()

#: Default scheduling priority for events.
NORMAL = 1

#: Priority for events that must run before same-time NORMAL events
#: (used for process initialization and interrupts).
URGENT = 0

#: Bit position packing (priority, sequence) into one heap-key integer:
#: same-time events order by priority first, then insertion sequence.
#: 52 bits of sequence (~4.5e15 events) before priorities could collide.
_PRIORITY_SHIFT = 52

#: Priority bits of a NORMAL heap key.
_NORMAL_KEY = NORMAL << _PRIORITY_SHIFT


class Event:
    """An event that may happen at some point in simulated time.

    Events progress through three states: *untriggered* (just created),
    *triggered* (scheduled, carries a value, waiting in the event
    queue), and *processed* (its callbacks have run).

    An event can either *succeed* with a value or *fail* with an
    exception. Processes waiting on a failed event have the exception
    re-raised at their ``yield`` statement.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed. Set
        #: to ``None`` once processed. Lists are recycled through the
        #: environment's free pool: most events carry exactly one
        #: callback, and reusing the list spares one allocation per
        #: event on the dispatch hot path.
        pool = env._cb_pool
        self.callbacks: Optional[list[Callable[["Event"], None]]] = (
            pool.pop() if pool else []
        )
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """Whether a failure has been marked as handled.

        A failed event whose exception nobody handles crashes the
        simulation when processed; waiting on it (or calling
        :meth:`defuse`) marks it handled.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event's exception as handled."""
        self._defused = True

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event as successful with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Environment.schedule inlined: succeed() runs once per grant,
        # put, get and completion on the simulator's hot path.
        env = self.env
        heappush(env._queue, (env._now, _NORMAL_KEY | env._next_eid(), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Useful as a callback: chaining ``evt.callbacks.append(other.trigger)``
        propagates success/failure from ``evt`` to ``other``.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_event, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts dominate simulations, so this constructor is the
        # allocation fast path: initialize the event inline (already
        # triggered, no state transitions to guard) and push the heap
        # entry directly instead of going through Event.__init__ +
        # Environment.schedule.
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(
            env._queue,
            (
                env._now + delay,
                _NORMAL_KEY | env._next_eid(),
                self,
            ),
        )

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        assert self.callbacks is not None
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class _InterruptEvent(Event):
    """Internal urgent event delivering an :class:`Interrupt`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        assert self.callbacks is not None
        self.callbacks.append(process._resume_interrupt)
        env.schedule(self, priority=URGENT)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process, wrapping a generator that yields events.

    A process is itself an event: it triggers when the generator
    returns (success, with the return value) or raises (failure).
    Other processes can therefore ``yield`` a process to wait for it.
    """

    __slots__ = ("generator", "_target", "name", "_send", "_throw")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        # Bound once: the resume loop runs these for every yielded
        # event, and the attribute chain lookup is measurable there.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on, if any.
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process receives the interrupt at its current ``yield``
        statement. Interrupting a dead process is an error.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- resumption machinery ---------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        # If the process already terminated between the interrupt being
        # scheduled and delivered, silently drop it (it can no longer
        # be observed by anyone).
        if self._value is not PENDING:
            return
        # Detach from the event the process was waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._loop(event)

    def _loop(self, event: Event) -> None:
        """Advance the generator until it yields an untriggered event.

        **Direct dispatch.** When this process runs as the only
        callback of the event :meth:`Environment.step` is dispatching,
        and it yields an event that has no callbacks yet and sits at
        the heap top, step()'s very next action would be to pop that
        event and resume this process with it. The loop then does the
        pop itself and continues in this frame: the same events are
        pushed and popped in the same order at the same times, only
        the park/return/dispatch round trip is skipped.
        """
        env = self.env
        env._active_proc = self
        send = self._send
        queue = env._queue
        direct = env._solo is event
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed; re-raise inside the process.
                    event._defused = True
                    exc = event._value
                    next_event = self._throw(exc)
            except StopIteration as exc:
                # Process finished successfully.
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                # Process crashed; fail the process event.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc2 = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                try:
                    self.generator.throw(exc2)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    env.schedule(self)
                    break
                except BaseException as raised:
                    self._ok = False
                    self._value = raised
                    env.schedule(self)
                    break
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed. The target must stay
                # recorded so an interrupt can detach the process.
                self._target = next_event
                if direct and not callbacks and queue and queue[0][2] is next_event:
                    env._now = heappop(queue)[0]
                    next_event.callbacks = None
                    pool = env._cb_pool
                    if len(pool) < 256:
                        pool.append(callbacks)
                    event = next_event
                    continue
                # Park the process on it.
                callbacks.append(self._resume)
                env._active_proc = None
                return
            # Event already processed: loop immediately with its value.
            event = next_event

        # Only reached on termination (StopIteration or crash).
        self._target = None
        env._active_proc = None

    #: Resume entry point registered as an event callback. Aliased to
    #: :meth:`_loop` so dispatching an event into a parked process costs
    #: one Python frame instead of two; bound-method equality keeps
    #: interrupt detachment (``callbacks.remove(self._resume)``) intact.
    _resume = _loop

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


class Condition(Event):
    """An event that fires when a predicate over child events is met.

    Used to implement ``evt1 & evt2`` (:class:`AllOf`) and
    ``evt1 | evt2`` (:class:`AnyOf`). The condition's value is a dict
    mapping each *triggered* child event to its value.
    """

    __slots__ = ("_evaluate", "_events", "_fired")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        #: Events that have actually been *processed* so far, in order.
        self._fired: list[Event] = []

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._fired if e.ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._fired.append(event)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, len(self._fired)):
            self.succeed(self._collect())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Predicate: every child has triggered."""
        return len(events) == count

    @staticmethod
    def any_event(events: list[Event], count: int) -> bool:
        """Predicate: at least one child has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once *all* of ``events`` have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once *any* of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_event, events)


class Environment:
    """Execution environment for an event-driven simulation.

    Time starts at ``initial_time`` and only advances through
    :meth:`step`/:meth:`run`. All events and processes are bound to
    exactly one environment.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries are (time, packed key, event): priority and the
        # insertion sequence share one integer (see _PRIORITY_SHIFT),
        # which keeps entries at three slots and tie-breaking at a
        # single int comparison.
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = itertools.count()
        self._next_eid = self._eid.__next__
        self._active_proc: Optional[Process] = None
        #: The event step() is dispatching to a single callback (see
        #: Process._loop, direct dispatch); stale once that returns.
        self._solo: Optional[Event] = None
        # Recycled callback lists (see Event.__init__); bounded so a
        # burst of events cannot pin memory forever.
        self._cb_pool: list[list[Callable[[Event], None]]] = []

    # -- introspection ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def metrics_snapshot(self) -> dict[str, float]:
        """Pull-style kernel telemetry for :mod:`repro.obs`.

        Deliberately computed from state the hot path already
        maintains — reading it costs nothing per event, which is how
        the metrics layer keeps the dispatch loop untouched. Every
        heap entry consumes one event id, so ids issued minus entries
        still pending is exactly the number of dispatched events.
        """
        # itertools.count exposes its next value through the pickle
        # protocol ((count, (n,)) from __reduce__) without consuming it.
        scheduled = self._eid.__reduce__()[1][0]
        pending = len(self._queue)
        return {
            "events_scheduled": float(scheduled),
            "events_dispatched": float(scheduled - pending),
            "heap_depth": float(pending),
            "cb_pool_free": float(len(self._cb_pool)),
            "sim_time_s": self._now,
        }

    # -- event construction shortcuts ----------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay``."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition met when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition met when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling / execution ----------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` time units."""
        heappush(
            self._queue,
            (
                self._now + delay,
                (priority << _PRIORITY_SHIFT) | self._next_eid(),
                event,
            ),
        )

    def step(self) -> None:
        """Process the single next event, advancing time to it."""
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        self._now, _, event = heappop(queue)

        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        if len(callbacks) == 1:
            # The overwhelmingly common case (one process parked on the
            # event): skip the loop machinery.
            self._solo = event
            callbacks[0](event)
        else:
            for callback in callbacks:
                callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation.
            exc = event._value
            raise exc

        # Recycle the callback list (detached above, so no live
        # references remain) for the next event's construction.
        pool = self._cb_pool
        if len(pool) < 256:
            callbacks.clear()
            pool.append(callbacks)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until
            simulated time reaches it; an :class:`Event` — run until it
            fires and return its value.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} must not be before current time {self._now}"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, priority=URGENT, delay=at - self._now)
                stop_event.callbacks.append(_stop_simulation)

        step = self.step
        try:
            while True:
                step()
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                if isinstance(until, Event):
                    raise SimulationError(
                        "no more events but the until-event was never triggered"
                    ) from None
            return None


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event._value if event._ok else None)
