"""Columnar trace storage: append-only numpy columns behind ``Trace``.

Recording every kernel/memcpy as a frozen :class:`TraceEvent` dataclass
makes the *application* side of the paper's method the bench bottleneck
once the proxy side is fast-forwarded: a traced LAMMPS run emits tens of
thousands of events, and every analysis pass (duration extraction,
``%Runtime`` unions, Table IV binning) walks those objects in scalar
Python. This module replaces the object stream with an **append-only
columnar store**:

* :class:`ColumnStore` — preallocated, geometrically grown numpy arrays
  for ``start``/``end``/``stream``/``nbytes``/``correlation_id``/
  ``thread``, plus interned code tables for event kinds, names and copy
  directions. Appending a row is O(1) amortized and costs no object
  allocation beyond the (rare, usually-``None``) meta dict.
* :class:`ColumnarTrace` — a :class:`~repro.trace.container.Trace`
  whose ground truth is a :class:`ColumnStore` (optionally restricted
  to a row selection). Every summary the paper's pipeline needs —
  durations, sizes, busy-time unions, concurrency, per-name groups —
  is a masked column operation; iteration and ``filter`` lazily
  materialize bit-identical :class:`TraceEvent` objects, preserving the
  container API as a compatibility view.

All vectorized summaries are *exact* replications of the scalar
reference implementations in :class:`Trace`: the same IEEE operations
in the same order (running maxima for interval unions, per-run
accumulation, stable sorts), verified element-for-element by the parity
property tests in ``tests/trace/test_store.py``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .container import Trace
from .events import CopyKind, EventKind, TraceEvent

__all__ = ["ColumnStore", "ColumnarTrace"]

#: Fixed kind/copy code tables (enum declaration order).
_KINDS: Tuple[EventKind, ...] = tuple(EventKind)
_KIND_CODE: Dict[EventKind, int] = {k: i for i, k in enumerate(_KINDS)}
_COPIES: Tuple[CopyKind, ...] = tuple(CopyKind)
_COPY_CODE: Dict[CopyKind, int] = {c: i for i, c in enumerate(_COPIES)}

#: Code standing for "absent" in the stream / copy-kind columns.
_NONE = -1

_MEMCPY_CODE = _KIND_CODE[EventKind.MEMCPY]

#: The numpy columns, in the field order of a buffered row.
_COLUMNS = ("_start", "_end", "_stream", "_nbytes", "_corr", "_thread",
            "_kind", "_name_code", "_copy")
_WIDTH = len(_COLUMNS)

#: Most rows :meth:`ColumnStore.append_row` buffers before it fills
#: the columns; bounds the buffer's memory (~150 bytes a row).
CHUNK_ROWS = 1024
_CHUNK_VALUES = _WIDTH * CHUNK_ROWS


def _column(attr: str, doc: str) -> property:
    """A numpy column that first fills in any pending rows."""

    def get(self: "ColumnStore") -> np.ndarray:
        if self._pending:
            self._flush()
        return getattr(self, attr)

    return property(get, doc=doc)


class ColumnStore:
    """Append-only columnar event storage with interned code tables.

    Rows are stored in record (append) order; sorting is the reader's
    concern. Arrays grow geometrically (doubling), so appends are O(1)
    amortized; ``growths`` counts reallocation events and
    ``nbytes_allocated`` the current (== peak, the store never shrinks)
    column footprint for the ``trace.store.*`` metrics.

    :meth:`append_row` validates each row at once but only buffers its
    values; the columns are filled in chunks of at most
    :data:`CHUNK_ROWS` rows, and before any column is read. ``n``,
    ``capacity`` and ``growths`` always count the buffered rows, so
    every reader sees exactly what row-by-row appends would give.
    The buffer is one flat list of plain values: a tuple per row would
    be a container the cyclic garbage collector tracks and scans.
    """

    __slots__ = (
        "n",
        "capacity",
        "growths",
        "_start",
        "_end",
        "_stream",
        "_nbytes",
        "_corr",
        "_thread",
        "_kind",
        "_name_code",
        "_copy",
        "_pending",
        "metas",
        "_names",
        "_name_codes",
    )

    start = _column("_start", "Event start times (float64).")
    end = _column("_end", "Event end times (float64).")
    stream = _column("_stream", "Stream ids (int64, -1 = none).")
    nbytes = _column("_nbytes", "Bytes moved (int64).")
    corr = _column("_corr", "Correlation ids (int64).")
    thread = _column("_thread", "Host thread ids (int64).")
    kind = _column("_kind", "EventKind codes (int8).")
    name_code = _column("_name_code", "Interned name codes (int32).")
    copy = _column("_copy", "CopyKind codes (int8, -1 = none).")

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.n = 0
        self.capacity = capacity
        self.growths = 0
        self._start = np.empty(capacity, dtype=np.float64)
        self._end = np.empty(capacity, dtype=np.float64)
        self._stream = np.empty(capacity, dtype=np.int64)
        self._nbytes = np.empty(capacity, dtype=np.int64)
        self._corr = np.empty(capacity, dtype=np.int64)
        self._thread = np.empty(capacity, dtype=np.int64)
        self._kind = np.empty(capacity, dtype=np.int8)
        self._name_code = np.empty(capacity, dtype=np.int32)
        self._copy = np.empty(capacity, dtype=np.int8)
        #: Values of the validated rows not yet in the columns, row
        #: after row in _COLUMNS order (at most CHUNK_ROWS rows).
        self._pending: List[Any] = []
        #: Per-row meta dict (None for the common empty case).
        self.metas: List[Optional[Dict[str, Any]]] = []
        #: Interned event names: code -> string and string -> code.
        self._names: List[str] = []
        self._name_codes: Dict[str, int] = {}

    # -- writing -----------------------------------------------------------------
    def intern_name(self, name: str) -> int:
        """Code for ``name``, interning it on first sight."""
        code = self._name_codes.get(name)
        if code is None:
            code = len(self._names)
            self._name_codes[name] = code
            self._names.append(name)
        return code

    def name_at(self, code: int) -> str:
        """The interned string behind ``code``."""
        return self._names[code]

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names, in interning order."""
        return tuple(self._names)

    def _flush(self) -> None:
        """Fill the buffered rows into the columns.

        The columns are reallocated once to the capacity the row-by-row
        doubling reached while the rows were buffered.
        """
        values = self._pending
        first = self.n - len(values) // _WIDTH
        if self._start.size < self.capacity:
            self._reallocate(first)
        for j, col in enumerate(_COLUMNS):
            getattr(self, col)[first : self.n] = values[j::_WIDTH]
        values.clear()

    def _reallocate(self, keep: int) -> None:
        """Grow every column to ``capacity``, keeping its first rows."""
        for col in _COLUMNS:
            old = getattr(self, col)
            grown = np.empty(self.capacity, dtype=old.dtype)
            grown[:keep] = old[:keep]
            setattr(self, col, grown)

    def append_row(
        self,
        kind_code: int,
        name: str,
        start: float,
        end: float,
        stream: Optional[int],
        nbytes: int,
        copy_code: int,
        correlation_id: int,
        thread: int,
        meta: Optional[Dict[str, Any]],
    ) -> int:
        """Append one event row; returns its row index.

        Validation mirrors :class:`TraceEvent.__post_init__` exactly, so
        recording through columns rejects the same malformed intervals
        the object path would. The values are converted to the column
        dtypes when their chunk is filled in.
        """
        if end < start:
            raise ValueError(
                f"event {name!r} ends ({end}) before it starts ({start})"
            )
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if kind_code == _MEMCPY_CODE and copy_code == _NONE:
            raise ValueError("memcpy events need a copy_kind")
        code = self._name_codes.get(name)
        if code is None:
            code = self.intern_name(name)
        pending = self._pending
        pending += (
            start, end, _NONE if stream is None else stream, nbytes,
            correlation_id, thread, kind_code, code, copy_code,
        )
        self.metas.append(meta if meta else None)
        i = self.n
        if i == self.capacity:
            self.capacity = 2 * i
            self.growths += 1
        self.n = i + 1
        if len(pending) == _CHUNK_VALUES:
            self._flush()
        return i

    def extend_rows(
        self,
        kind_code: int,
        name_codes: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        stream: Optional[np.ndarray] = None,
        nbytes: Optional[np.ndarray] = None,
        copy_code: int = _NONE,
        correlation_id: Optional[np.ndarray] = None,
        thread: Optional[np.ndarray] = None,
    ) -> int:
        """Bulk :meth:`append_row`: append ``len(start)`` rows at once.

        All rows share one ``kind_code`` and ``copy_code``;
        ``name_codes`` must be pre-interned (see :meth:`intern_name`).
        Optional columns default to the same sentinels as the scalar
        path. Validation matches :meth:`append_row` and reports the
        first offending row. Returns the index of the first new row.
        """
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        m = len(start)
        if len(end) != m or len(np.atleast_1d(name_codes)) not in (1, m):
            raise ValueError("bulk columns must align")
        bad = np.flatnonzero(end < start)
        if len(bad):
            row = int(bad[0])
            codes = np.broadcast_to(np.atleast_1d(name_codes), (m,))
            name = self._names[int(codes[row])]
            raise ValueError(
                f"event {name!r} ends ({end[row]}) before it starts "
                f"({start[row]})"
            )
        if nbytes is not None and len(np.atleast_1d(nbytes)) and int(
            np.min(nbytes)
        ) < 0:
            raise ValueError("nbytes must be non-negative")
        if kind_code == _MEMCPY_CODE and copy_code == _NONE:
            raise ValueError("memcpy events need a copy_kind")
        if self._pending:
            self._flush()
        i = self.n
        if i + m > self.capacity:
            while self.capacity < i + m:
                self.capacity *= 2
            self._reallocate(i)
            self.growths += 1
        sl = slice(i, i + m)
        self.start[sl] = start
        self.end[sl] = end
        self.stream[sl] = _NONE if stream is None else stream
        self.nbytes[sl] = 0 if nbytes is None else nbytes
        self.corr[sl] = 0 if correlation_id is None else correlation_id
        self.thread[sl] = 0 if thread is None else thread
        self.kind[sl] = kind_code
        self.name_code[sl] = name_codes
        self.copy[sl] = copy_code
        self.metas.extend([None] * m)
        self.n = i + m
        return i

    # -- reading -----------------------------------------------------------------
    def event_at(self, row: int) -> TraceEvent:
        """Materialize one row as a :class:`TraceEvent`."""
        if self._pending:
            self._flush()
        copy_code = int(self._copy[row])
        stream = int(self._stream[row])
        meta = self.metas[row]
        return TraceEvent(
            kind=_KINDS[self._kind[row]],
            name=self._names[self._name_code[row]],
            start=float(self._start[row]),
            end=float(self._end[row]),
            stream=None if stream == _NONE else stream,
            nbytes=int(self._nbytes[row]),
            copy_kind=None if copy_code == _NONE else _COPIES[copy_code],
            correlation_id=int(self._corr[row]),
            thread=int(self._thread[row]),
            meta=dict(meta) if meta else {},
        )

    @property
    def nbytes_allocated(self) -> int:
        """Bytes currently held by the numpy columns (== peak)."""
        if self._pending:
            self._flush()
        return sum(getattr(self, col).nbytes for col in _COLUMNS)

    def stats(self) -> Dict[str, float]:
        """Flat metrics for ``repro.obs`` (``trace.store.*`` section)."""
        return {
            "events": float(self.n),
            "bytes": float(self.nbytes_allocated),
            "growths": float(self.growths),
            "interned_names": float(len(self._names)),
        }

    # -- persistence (profile cache) ------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """JSON-ready columnar document (append order, exact floats)."""
        n = self.n
        return {
            "kind": self.kind[:n].tolist(),
            "name_code": self.name_code[:n].tolist(),
            "start": self.start[:n].tolist(),
            "end": self.end[:n].tolist(),
            "stream": self.stream[:n].tolist(),
            "nbytes": self.nbytes[:n].tolist(),
            "copy": self.copy[:n].tolist(),
            "corr": self.corr[:n].tolist(),
            "thread": self.thread[:n].tolist(),
            "names": list(self._names),
            "metas": [
                [i, meta] for i, meta in enumerate(self.metas) if meta
            ],
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ColumnStore":
        """Rebuild a store from :meth:`to_doc` output (bit-exact)."""
        n = len(doc["start"])
        store = cls(capacity=max(1, n))
        store.n = n
        store.start[:n] = np.asarray(doc["start"], dtype=np.float64)
        store.end[:n] = np.asarray(doc["end"], dtype=np.float64)
        store.stream[:n] = np.asarray(doc["stream"], dtype=np.int64)
        store.nbytes[:n] = np.asarray(doc["nbytes"], dtype=np.int64)
        store.corr[:n] = np.asarray(doc["corr"], dtype=np.int64)
        store.thread[:n] = np.asarray(doc["thread"], dtype=np.int64)
        store.kind[:n] = np.asarray(doc["kind"], dtype=np.int8)
        store.name_code[:n] = np.asarray(doc["name_code"], dtype=np.int32)
        store.copy[:n] = np.asarray(doc["copy"], dtype=np.int8)
        store._names = [str(s) for s in doc["names"]]
        store._name_codes = {s: i for i, s in enumerate(store._names)}
        store.metas = [None] * n
        for row, meta in doc.get("metas", []):
            store.metas[int(row)] = dict(meta)
        return store


class ColumnarTrace(Trace):
    """A :class:`Trace` whose ground truth is a :class:`ColumnStore`.

    The root trace of a :class:`~repro.trace.tracer.Tracer` owns the
    whole store; filtered views (``kernels()``, ``memcpys()``,
    ``by_name()`` groups) share the parent's columns through a fixed
    row-selection array, so no event data is ever copied. Analysis
    methods are vectorized; iteration, indexing and generic ``filter``
    lazily materialize the sorted :class:`TraceEvent` sequence (cached
    until more rows are appended).
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        name: str = "",
        *,
        store: Optional[ColumnStore] = None,
        selection: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(None, name=name)
        self._store = store if store is not None else ColumnStore()
        #: Fixed row selection for views; None = all (live) store rows.
        self._selection = selection
        self._perm: Optional[np.ndarray] = None
        self._perm_rows = -1
        self._events_rows = -1
        if events:
            for e in events:
                self.append(e)

    # -- recording ----------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The backing column store (shared across views)."""
        return self._store

    def record_fast(
        self,
        kind: EventKind,
        name: str,
        start: float,
        end: float,
        stream: Optional[int] = None,
        nbytes: int = 0,
        copy_kind: Optional[CopyKind] = None,
        correlation_id: int = 0,
        thread: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a row without constructing a :class:`TraceEvent`."""
        if self._selection is not None:
            raise TypeError("cannot record into a filtered trace view")
        self._store.append_row(
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

    def record_batch(
        self,
        kind: EventKind,
        names: Union[str, Sequence[str]],
        start: np.ndarray,
        end: np.ndarray,
        stream: Optional[np.ndarray] = None,
        nbytes: Optional[np.ndarray] = None,
        copy_kind: Optional[CopyKind] = None,
        correlation_id: Optional[np.ndarray] = None,
        thread: Optional[np.ndarray] = None,
    ) -> None:
        """Vectorized :meth:`record_fast`: one call, many rows.

        ``names`` is a single shared name or a per-row sequence;
        everything else broadcasts like numpy. This is the fleet
        engine's recording path — a million job events land as slice
        assignments instead of a million Python-level appends.
        """
        if self._selection is not None:
            raise TypeError("cannot record into a filtered trace view")
        if isinstance(names, str):
            codes: Any = self._store.intern_name(names)
        else:
            codes = np.fromiter(
                (self._store.intern_name(s) for s in names),
                dtype=np.int32,
                count=len(names),
            )
        self._store.extend_rows(
            _KIND_CODE[kind],
            codes,
            start,
            end,
            stream=stream,
            nbytes=nbytes,
            copy_code=_NONE if copy_kind is None else _COPY_CODE[copy_kind],
            correlation_id=correlation_id,
            thread=thread,
        )

    def append(self, event: TraceEvent) -> None:
        """Add an event (encoded into columns)."""
        self.record_fast(
            event.kind,
            event.name,
            event.start,
            event.end,
            stream=event.stream,
            nbytes=event.nbytes,
            copy_kind=event.copy_kind,
            correlation_id=event.correlation_id,
            thread=event.thread,
            meta=event.meta,
        )

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for e in events:
            self.append(e)

    # -- row plumbing -------------------------------------------------------------
    def _rows(self) -> np.ndarray:
        """Selected row indices in append order."""
        if self._selection is not None:
            return self._selection
        return np.arange(self._store.n)

    def _row_count(self) -> int:
        if self._selection is not None:
            return int(self._selection.size)
        return self._store.n

    def _sorted_rows(self) -> np.ndarray:
        """Row indices in (start, end)-sorted order (stable).

        ``np.lexsort`` is stable, so equal-key rows keep append order —
        exactly the permutation Python's stable ``list.sort`` with key
        ``(start, end)`` produces on the materialized events.
        """
        count = self._row_count()
        if self._perm is not None and self._perm_rows == count:
            return self._perm
        rows = self._rows()
        store = self._store
        order = np.lexsort((store.end[rows], store.start[rows]))
        self._perm = rows[order]
        self._perm_rows = count
        return self._perm

    def _view(self, selection: np.ndarray, name: Optional[str] = None) -> "ColumnarTrace":
        return ColumnarTrace(
            name=self.name if name is None else name,
            store=self._store,
            selection=selection,
        )

    # -- compatibility materialization ---------------------------------------------
    def _ensure_sorted(self) -> None:
        count = self._row_count()
        if self._events_rows == count:
            return
        store = self._store
        self._events = [store.event_at(i) for i in self._sorted_rows()]
        self._sorted = True
        self._events_rows = count

    def events_in_record_order(self) -> List[TraceEvent]:
        """Materialize the events in append order (not time-sorted).

        This is the order the scalar path's ``_events`` list holds
        before any analysis sorts it — what the fast-forward engine
        hands to :class:`~repro.trace.epochs.RepeatedEpochTrace`.
        """
        store = self._store
        return [store.event_at(int(i)) for i in self._rows()]

    def __len__(self) -> int:
        return self._row_count()

    def __iter__(self) -> Iterator[TraceEvent]:
        self._ensure_sorted()
        return iter(self._events)

    def __getitem__(self, idx: int) -> TraceEvent:
        self._ensure_sorted()
        return self._events[idx]

    # -- vectorized views ----------------------------------------------------------
    def starts(self) -> np.ndarray:
        """Event start times in sorted order (vectorized)."""
        return self._store.start[self._sorted_rows()]

    def ends(self) -> np.ndarray:
        """Event end times in sorted order (vectorized)."""
        return self._store.end[self._sorted_rows()]

    def of_kinds(self, *kinds: EventKind) -> "ColumnarTrace":
        """Masked view of the events whose kind is in ``kinds``."""
        rows = self._rows()
        codes = self._store.kind[rows]
        mask = np.zeros(len(_KINDS), dtype=bool)
        for k in kinds:
            mask[_KIND_CODE[k]] = True
        return self._view(rows[mask[codes]])

    def count_kind(self, kind: EventKind) -> int:
        """Number of events of ``kind`` (no materialization)."""
        rows = self._rows()
        return int((self._store.kind[rows] == _KIND_CODE[kind]).sum())

    def kernels(self) -> "ColumnarTrace":
        return self.of_kinds(EventKind.KERNEL)

    def memcpys(self, direction: Optional[CopyKind] = None) -> "ColumnarTrace":
        copies = self.of_kinds(EventKind.MEMCPY)
        if direction is None:
            return copies
        rows = copies._rows()
        sel = rows[self._store.copy[rows] == _COPY_CODE[direction]]
        return self._view(sel)

    def by_name(self) -> Dict[str, "ColumnarTrace"]:
        """Per-name views, keyed in first-occurrence (sorted) order."""
        perm = self._sorted_rows()
        codes = self._store.name_code[perm]
        groups: Dict[str, ColumnarTrace] = {}
        if codes.size == 0:
            return groups
        # First occurrence order over the sorted sequence = the order
        # the scalar grouping loop discovers names.
        uniq, first = np.unique(codes, return_index=True)
        for code in uniq[np.argsort(first, kind="stable")]:
            name = self._store.name_at(int(code))
            groups[name] = self._view(perm[codes == code], name=name)
        return groups

    def threads(self) -> List[int]:
        rows = self._rows()
        return [int(t) for t in np.unique(self._store.thread[rows])]

    # -- vectorized summaries --------------------------------------------------------
    @property
    def start(self) -> float:
        rows = self._rows()
        if rows.size == 0:
            return 0.0
        return float(self._store.start[rows].min())

    @property
    def end(self) -> float:
        rows = self._rows()
        if rows.size == 0:
            return 0.0
        return float(self._store.end[rows].max())

    def durations(self) -> np.ndarray:
        perm = self._sorted_rows()
        return self._store.end[perm] - self._store.start[perm]

    def sizes(self) -> np.ndarray:
        return self._store.nbytes[self._sorted_rows()].astype(float)

    def total_time(self) -> float:
        if self._row_count() == 0:
            return 0.0
        return float(self.durations().sum())

    def busy_time(self) -> float:
        """Union length of the event intervals, exactly as the scalar.

        The scalar merge's running ``cur_end`` equals the running
        maximum of the sorted end times (a merged run only breaks when
        a start exceeds *every* previous end), so run boundaries fall
        where ``start[i] > runmax[i-1]``. Per-run parts are accumulated
        in run order with scalar adds, reproducing the reference
        left-to-right float sum bit for bit.
        """
        if self._row_count() == 0:
            return 0.0
        starts, runmax, breaks = self._merged_runs()
        firsts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
        lasts = np.concatenate((firsts[1:] - 1, [starts.size - 1]))
        parts = runmax[lasts] - starts[firsts]
        busy = 0.0
        for p in parts.tolist():
            busy += p
        return busy

    def _merged_runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted starts, running-max ends, and run-break mask."""
        starts = self.starts()
        runmax = np.maximum.accumulate(self.ends())
        breaks = starts[1:] > runmax[:-1]
        return starts, runmax, breaks

    def max_concurrency(self) -> int:
        count = self._row_count()
        if count == 0:
            return 0
        rows = self._rows()
        store = self._store
        times = np.concatenate((store.start[rows], store.end[rows]))
        deltas = np.concatenate(
            (np.ones(count, dtype=np.int64), np.full(count, -1, dtype=np.int64))
        )
        order = np.lexsort((deltas, times))
        return int(np.cumsum(deltas[order]).max())

    def top_names_by_total_time(self, n: int = 5) -> List[str]:
        totals = {
            name: tr.total_time() for name, tr in self.by_name().items()
        }
        return [
            name
            for name, _ in sorted(totals.items(), key=lambda kv: -kv[1])[:n]
        ]

    def __repr__(self) -> str:
        return (
            f"<ColumnarTrace {self.name!r}: {len(self)} events, "
            f"span={self.span:.6g}s>"
        )

    # -- persistence -----------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """Columnar JSON document (root traces only)."""
        if self._selection is not None:
            raise TypeError("only a root trace can be serialized")
        doc = self._store.to_doc()
        doc["name"] = self.name
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ColumnarTrace":
        """Rebuild a trace from :meth:`to_doc` output."""
        return cls(
            name=str(doc.get("name", "")), store=ColumnStore.from_doc(doc)
        )
