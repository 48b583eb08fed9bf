"""Shared-resource primitives for the DES kernel.

Three families, mirroring the classic SimPy set:

* :class:`Resource` / :class:`PriorityResource` — a semaphore with
  ``capacity`` slots; processes ``yield resource.request()`` and later
  ``release()`` (or use the request as a context manager).
* :class:`Container` — a bulk-quantity store (e.g. bytes of GPU memory)
  with ``put``/``get`` of arbitrary amounts.
* :class:`Store` — a FIFO buffer of discrete items with bounded
  capacity.

All waiting is fair (FIFO) unless a priority is given.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generic, Optional, TypeVar

from .core import Environment, Event
from .errors import SimulationError

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Preempted",
    "PreemptiveResource",
    "PreemptiveRequest",
    "Container",
    "ContainerPut",
    "ContainerGet",
    "Store",
    "Barrier",
    "StorePut",
    "StoreGet",
    "FilterStore",
]

T = TypeVar("T")


class Request(Event):
    """A pending request for one slot of a :class:`Resource`.

    Supports the context-manager protocol so callers can write::

        with resource.request() as req:
            yield req
            ...  # slot held here
    """

    __slots__ = ("resource", "usage_since", "owner")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: Simulation time at which the request was granted.
        self.usage_since: Optional[float] = None
        #: The process that issued the request (interrupt target for
        #: preemption), if issued from within a process.
        self.owner = resource.env.active_process
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if held, or withdraw the pending request."""
        if self.triggered and self.usage_since is not None:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)


class Release(Event):
    """Event that fires immediately once a slot has been given back."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._do_release(self)


class Resource:
    """A semaphore-like resource with a fixed number of slots.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Number of concurrent holders allowed (>= 1).
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Give back the slot held by ``request``."""
        return Release(self, request)

    # -- internals -----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed(request)

    def _withdraw(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            raise SimulationError(
                "released a request that does not hold this resource"
            ) from None
        release.request.usage_since = None
        self._wake_next()
        release.succeed(None)

    def _wake_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.pop(0)
            self._grant(nxt)


class Preempted:
    """Cause object delivered when a request is preempted."""

    def __init__(self, by: Any, usage_since: Optional[float]) -> None:
        self.by = by
        self.usage_since = usage_since

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Preempted(by={self.by!r}, usage_since={self.usage_since})"


class PriorityRequest(Request):
    """A :class:`Request` with a priority (lower value = more urgent)."""

    __slots__ = ("priority", "time", "_key")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        self._key = (priority, self.time)
        super().__init__(resource)


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._pq: list[tuple[tuple[int, float], int, PriorityRequest]] = []
        self._tiebreak = itertools.count()

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Ask for one slot with the given ``priority``."""
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            heapq.heappush(self._pq, (request._key, next(self._tiebreak), request))
            self.queue.append(request)

    def _withdraw(self, request: Request) -> None:
        super()._withdraw(request)
        self._pq = [item for item in self._pq if item[2] is not request]
        heapq.heapify(self._pq)

    def _wake_next(self) -> None:
        while self._pq and len(self.users) < self._capacity:
            _, _, nxt = heapq.heappop(self._pq)
            try:
                self.queue.remove(nxt)
            except ValueError:  # withdrawn concurrently
                continue
            self._grant(nxt)


class PreemptiveRequest(PriorityRequest):
    """A :class:`PriorityRequest` that may evict a worse holder."""

    __slots__ = ("preempt",)

    def __init__(
        self, resource: "PreemptiveResource", priority: int = 0,
        preempt: bool = True,
    ) -> None:
        self.preempt = preempt
        super().__init__(resource, priority)


class PreemptiveResource(PriorityResource):
    """A :class:`PriorityResource` whose requests can evict holders.

    A request with ``preempt=True`` that finds the resource full will
    evict the *worst* current holder (highest priority value, most
    recent acquisition) if that holder is strictly lower-priority than
    the request. The evicted process receives an :class:`Interrupt`
    whose cause is a :class:`Preempted` record carrying the usurper
    and the victim's acquisition time.

    Used for CDI scheduling studies where an urgent composition can
    reclaim pooled GPUs from a preemptible job.
    """

    def request(  # type: ignore[override]
        self, priority: int = 0, preempt: bool = True
    ) -> PreemptiveRequest:
        """Ask for a slot; optionally preempting a worse holder."""
        return PreemptiveRequest(self, priority, preempt)

    def _do_request(self, request: Request) -> None:
        if (
            isinstance(request, PreemptiveRequest)
            and request.preempt
            and len(self.users) >= self._capacity
        ):
            self._maybe_preempt(request)
        super()._do_request(request)

    def _maybe_preempt(self, request: PreemptiveRequest) -> None:
        victims = [u for u in self.users if isinstance(u, PriorityRequest)]
        if not victims:
            return
        victim = max(victims, key=lambda u: u._key)
        if victim._key <= request._key:
            return  # nobody strictly worse than the usurper
        self.users.remove(victim)
        cause = Preempted(by=request, usage_since=victim.usage_since)
        victim.usage_since = None
        if victim.owner is not None and victim.owner.is_alive:
            victim.owner.interrupt(cause)


class ContainerPut(Event):
    """Pending deposit of ``amount`` into a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._put_waiters.append(self)
        container._dispatch()


class ContainerGet(Event):
    """Pending withdrawal of ``amount`` from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._get_waiters.append(self)
        container._dispatch()


class Container:
    """A homogeneous bulk store (e.g. bytes of device memory).

    ``put`` blocks while the container is too full; ``get`` blocks
    while it holds less than requested.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: list[ContainerPut] = []
        self._get_waiters: list[ContainerGet] = []

    @property
    def capacity(self) -> float:
        """Maximum amount the container can hold."""
        return self._capacity

    @property
    def level(self) -> float:
        """Current amount held."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; fires once it fits."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; fires once available."""
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.pop(0)
                    self._level += put.amount
                    put.succeed(None)
                    progressed = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if self._level >= get.amount:
                    self._get_waiters.pop(0)
                    self._level -= get.amount
                    get.succeed(None)
                    progressed = True


class StorePut(Event):
    """Pending insertion of ``item`` into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending removal of the next item from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._dispatch()


class Store(Generic[T]):
    """A FIFO buffer of discrete items with bounded capacity.

    A simulated GPU stream's command queue
    (:class:`repro.gpusim.Stream`) schedules its put and get events in
    the order this class does.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: list[T] = []
        self._put_waiters: list[StorePut] = []
        self._get_waiters: list[StoreGet] = []

    @property
    def capacity(self) -> float:
        """Maximum number of queued items."""
        return self._capacity

    def put(self, item: T) -> StorePut:
        """Insert ``item``; fires once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove the oldest item; fires once one exists."""
        return StoreGet(self)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed(None)
                progressed = True
            if self._get_waiters and self.items:
                get = self._get_waiters.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


class Barrier:
    """A cyclic barrier for ``parties`` processes.

    Each participant yields :meth:`wait`; the event fires once all
    parties have arrived, and the barrier resets for the next cycle.
    Models OpenMP worksharing-construct barriers.
    """

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self._waiting: list[Event] = []
        self.cycles_completed = 0

    @property
    def waiting(self) -> int:
        """Parties currently blocked at the barrier."""
        return len(self._waiting)

    def wait(self) -> Event:
        """Arrive at the barrier; the event fires when all have arrived."""
        evt = Event(self.env)
        self._waiting.append(evt)
        if len(self._waiting) >= self.parties:
            waiters, self._waiting = self._waiting, []
            self.cycles_completed += 1
            for w in waiters:
                w.succeed(self.cycles_completed)
        return evt


class FilterStoreGet(StoreGet):
    """A :class:`StoreGet` that only matches items passing a filter."""

    __slots__ = ("filter",)

    def __init__(
        self, store: "FilterStore", filter: Callable[[Any], bool]
    ) -> None:
        self.filter = filter
        super().__init__(store)


class FilterStore(Store[T]):
    """A :class:`Store` whose getters can select items by predicate."""

    def get(self, filter: Callable[[T], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        """Remove the oldest item satisfying ``filter``."""
        return FilterStoreGet(self, filter)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed(None)
                progressed = True
            for get in list(self._get_waiters):
                assert isinstance(get, FilterStoreGet)
                for i, item in enumerate(self.items):
                    if get.filter(item):
                        self.items.pop(i)
                        self._get_waiters.remove(get)
                        get.succeed(item)
                        progressed = True
                        break
