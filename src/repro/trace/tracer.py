"""The Tracer: records simulator activity into a :class:`Trace`.

Plays the role NSight Systems plays in the paper: it observes the
CUDA-like runtime from outside (no application-source knowledge) and
records kernel executions, memcpys, API calls and injected slack.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..des import Environment
from .events import CopyKind, EventKind, TraceEvent
from .store import _COPY_CODE, _KIND_CODE, _NONE, ColumnarTrace

__all__ = ["Tracer", "NullTracer"]


class Tracer:
    """Collects :class:`TraceEvent` records from a running simulation.

    The runtime calls :meth:`record` (or the :meth:`interval` context
    manager) as activity completes. ``enabled`` can be toggled to
    bracket the traced region, mirroring profiler capture windows.

    Events land in an append-only :class:`ColumnarTrace`: recording
    appends a row to its column store (no ``TraceEvent`` allocation),
    and the dataclass view is materialized lazily only where analysis
    still iterates events.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.trace = ColumnarTrace(name=name)
        self._append_row = self.trace.store.append_row
        self.enabled = True
        self._correlation = itertools.count(1)

    def next_correlation_id(self) -> int:
        """A fresh correlation id joining API call and device activity."""
        return next(self._correlation)

    def record(
        self,
        kind: EventKind,
        name: str,
        start: float,
        end: float,
        *,
        stream: Optional[int] = None,
        nbytes: int = 0,
        copy_kind: Optional[CopyKind] = None,
        correlation_id: int = 0,
        thread: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Optional[TraceEvent]:
        """Append a completed interval to the trace (if enabled).

        Validation matches :class:`TraceEvent` construction; the event
        itself is only materialized on demand, so the return value is
        always ``None``.
        """
        if not self.enabled:
            return None
        self._append_row(
            _KIND_CODE[kind],
            name,
            start,
            end,
            stream,
            nbytes,
            _NONE if copy_kind is None else _COPY_CODE[copy_kind],
            correlation_id,
            thread,
            meta,
        )
        return None

    @contextmanager
    def interval(
        self,
        kind: EventKind,
        name: str,
        **kwargs: Any,
    ) -> Iterator[None]:
        """Record an interval spanning the with-block's simulated time.

        Only valid when simulated time can advance inside the block
        (i.e. within a process that yields).
        """
        start = self.env.now
        try:
            yield
        finally:
            self.record(kind, name, start, self.env.now, **kwargs)


class NullTracer(Tracer):
    """A tracer that records nothing (profiling disabled)."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env, name="null")
        self.enabled = False
