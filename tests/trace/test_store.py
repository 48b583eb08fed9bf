"""Columnar/scalar parity: the store must be invisible to analysis.

Hypothesis-style seeded property tests: random event streams (ties,
zero-duration events, mixed kinds, shared names, metas) are recorded
into both a legacy scalar :class:`Trace` and a :class:`ColumnarTrace`,
and every public behavior — materialized event sequences, filtered
views, vectorized summaries, timeline analysis, JSON round-trips —
must match **bit for bit**.
"""

import json

import numpy as np
import pytest

from repro.trace import (
    ColumnarTrace,
    CopyKind,
    EventKind,
    Trace,
    TraceEvent,
    device_gaps,
    device_gaps_reference,
    utilization_series,
    utilization_series_reference,
)
from repro.trace import store as store_module
from repro.trace.store import ColumnStore

SEEDS = [0, 1, 7, 42, 1234, 987654]

NAMES = ["matmul", "memcpyH2D", "memcpyD2H", "sync", "fft", "reduce"]


def random_events(seed, n=None):
    """A reproducible stream of messy-but-valid trace events."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 400)) if n is None else n
    events = []
    for _ in range(n):
        kind = EventKind(
            rng.choice([k.value for k in EventKind], p=[0.4, 0.2, 0.2, 0.1, 0.1])
        )
        # Coarse grid of starts => plenty of exact ties for the
        # stable-sort parity; occasional zero-duration events.
        start = float(rng.randint(0, 50)) * 1e-4
        duration = float(rng.choice([0.0, 1e-5, 3e-4, 2e-3]))
        copy_kind = None
        nbytes = 0
        name = str(rng.choice(NAMES))
        meta = {}
        if kind is EventKind.MEMCPY:
            copy_kind = list(CopyKind)[int(rng.randint(0, 3))]
            nbytes = int(rng.randint(1, 1 << 20))
        elif kind is EventKind.KERNEL:
            meta = {"starvation_cost": float(rng.rand()), "n": int(rng.randint(1, 9))}
        events.append(
            TraceEvent(
                kind=kind,
                name=name,
                start=start,
                end=start + duration,
                stream=None if rng.rand() < 0.3 else int(rng.randint(0, 4)),
                nbytes=nbytes,
                copy_kind=copy_kind,
                correlation_id=int(rng.randint(0, 1000)),
                thread=int(rng.randint(0, 8)),
                meta=meta,
            )
        )
    return events


def build_both(events):
    scalar = Trace(name="t")
    columnar = ColumnarTrace(name="t")
    for e in events:
        scalar.append(e)
        columnar.append(e)
    return scalar, columnar


class TestMaterializationParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sorted_sequence_bit_identical(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert list(columnar) == list(scalar)
        assert len(columnar) == len(scalar)
        assert columnar[0] == scalar[0]
        assert columnar[len(events) - 1] == scalar[len(events) - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_record_order_preserved(self, seed):
        events = random_events(seed)
        _, columnar = build_both(events)
        assert columnar.events_in_record_order() == events

    def test_iteration_is_cached_until_append(self):
        events = random_events(3, n=20)
        _, columnar = build_both(events)
        first = list(columnar)
        assert list(columnar) == first
        columnar.append(events[0])
        assert len(list(columnar)) == 21


class TestSummaryParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_summaries_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert columnar.start == scalar.start
        assert columnar.end == scalar.end
        assert columnar.span == scalar.span
        assert columnar.total_time() == scalar.total_time()
        assert columnar.busy_time() == scalar.busy_time()
        assert columnar.max_concurrency() == scalar.max_concurrency()
        assert columnar.threads() == scalar.threads()
        assert columnar.runtime_fraction() == scalar.runtime_fraction()
        assert (columnar.durations() == scalar.durations()).all()
        assert (columnar.sizes() == scalar.sizes()).all()
        assert (columnar.starts() == scalar.starts()).all()
        assert (columnar.ends() == scalar.ends()).all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_view_parity(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert list(columnar.kernels()) == list(scalar.kernels())
        assert list(columnar.memcpys()) == list(scalar.memcpys())
        for d in CopyKind:
            assert list(columnar.memcpys(d)) == list(scalar.memcpys(d))
        assert columnar.count_kind(EventKind.API) == scalar.count_kind(
            EventKind.API
        )
        assert list(
            columnar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)
        ) == list(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY))
        cg, sg = columnar.by_name(), scalar.by_name()
        assert list(cg) == list(sg)  # same names, same first-seen order
        for name in sg:
            assert list(cg[name]) == list(sg[name])
            assert cg[name].busy_time() == sg[name].busy_time()
        assert columnar.top_names_by_total_time(
            3
        ) == scalar.top_names_by_total_time(3)
        # Generic filter falls back to materialization, same result.
        pred = lambda e: e.thread % 2 == 0
        assert list(columnar.filter(pred)) == list(scalar.filter(pred))

    def test_empty_trace(self):
        columnar = ColumnarTrace(name="empty")
        assert len(columnar) == 0
        assert columnar.start == 0.0 and columnar.end == 0.0
        assert columnar.total_time() == 0.0
        assert columnar.busy_time() == 0.0
        assert columnar.max_concurrency() == 0
        assert columnar.threads() == []
        assert list(columnar) == []
        assert columnar.by_name() == {}


class TestTimelineParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_device_gaps_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        if len(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)) == 0:
            pytest.skip("no device activity in this stream")
        for min_gap in (0.0, 1e-5):
            ref = device_gaps_reference(scalar, min_gap)
            for trace in (columnar, scalar):
                got = device_gaps(trace, min_gap)
                assert got.gaps == ref.gaps
                assert got.busy_time == ref.busy_time
                assert got.span == ref.span

    @pytest.mark.parametrize("seed", SEEDS)
    def test_utilization_series_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        if len(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)) == 0:
            pytest.skip("no device activity in this stream")
        for window in (1e-4, 7e-4):
            rc, rb = utilization_series_reference(scalar, window)
            for trace in (columnar, scalar):
                c, b = utilization_series(trace, window)
                assert (c == rc).all()
                assert (b == rb).all()


class TestValidationAndStore:
    def test_record_fast_validates_like_traceevent(self):
        columnar = ColumnarTrace()
        with pytest.raises(ValueError, match="before it starts"):
            columnar.record_fast(EventKind.KERNEL, "k", 1.0, 0.5)
        with pytest.raises(ValueError, match="nbytes"):
            columnar.record_fast(EventKind.KERNEL, "k", 0.0, 1.0, nbytes=-1)
        with pytest.raises(ValueError, match="copy_kind"):
            columnar.record_fast(EventKind.MEMCPY, "m", 0.0, 1.0, nbytes=4)
        assert len(columnar) == 0

    def test_views_are_read_only(self):
        events = random_events(5, n=10)
        _, columnar = build_both(events)
        view = columnar.kernels()
        with pytest.raises(TypeError, match="filtered trace view"):
            view.record_fast(EventKind.KERNEL, "k", 0.0, 1.0)
        with pytest.raises(TypeError, match="root trace"):
            view.to_doc()

    def test_geometric_growth_accounting(self):
        store = ColumnStore(capacity=4)
        trace = ColumnarTrace(store=store)
        for i in range(33):
            trace.record_fast(EventKind.API, "call", float(i), float(i))
        stats = store.stats()
        assert stats["events"] == 33
        assert stats["growths"] == 4  # 4 -> 8 -> 16 -> 32 -> 64
        assert store.capacity == 64
        assert stats["interned_names"] == 1
        assert stats["bytes"] == store.nbytes_allocated > 0

    def test_store_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ColumnStore(capacity=0)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_json_doc_round_trip_bit_exact(self, seed):
        events = random_events(seed)
        _, columnar = build_both(events)
        doc = json.loads(json.dumps(columnar.to_doc()))
        again = ColumnarTrace.from_doc(doc)
        assert again.name == columnar.name
        assert list(again) == list(columnar)
        assert again.events_in_record_order() == (
            columnar.events_in_record_order()
        )
        assert again.busy_time() == columnar.busy_time()


class TestBulkAppend:
    """record_batch must be indistinguishable from a record_fast loop."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_batch_equals_scalar_loop(self, seed):
        rng = np.random.RandomState(seed)
        n = 200
        names = [str(rng.choice(NAMES)) for _ in range(n)]
        start = rng.randint(0, 50, size=n).astype(np.float64) * 1e-4
        end = start + rng.choice([0.0, 1e-5, 3e-4], size=n)
        stream = rng.randint(0, 4, size=n)
        nbytes = rng.randint(0, 1 << 20, size=n)
        thread = rng.randint(0, 8, size=n)

        looped = ColumnarTrace(name="t")
        for i in range(n):
            looped.record_fast(
                EventKind.KERNEL, names[i], float(start[i]), float(end[i]),
                stream=int(stream[i]), nbytes=int(nbytes[i]),
                thread=int(thread[i]),
            )
        batched = ColumnarTrace(name="t")
        batched.record_batch(
            EventKind.KERNEL, names, start, end,
            stream=stream, nbytes=nbytes, thread=thread,
        )
        assert list(batched) == list(looped)
        assert batched.events_in_record_order() == (
            looped.events_in_record_order()
        )
        assert batched.store.stats()["interned_names"] == (
            looped.store.stats()["interned_names"]
        )

    def test_shared_name_and_defaults(self):
        trace = ColumnarTrace(name="t")
        trace.record_batch(
            EventKind.API, "call", np.array([0.0, 1.0]), np.array([0.5, 2.0])
        )
        events = trace.events_in_record_order()
        assert [e.name for e in events] == ["call", "call"]
        assert all(e.stream is None for e in events)
        assert all(e.nbytes == 0 and e.thread == 0 for e in events)
        assert trace.store.stats()["interned_names"] == 1

    def test_batch_memcpy_needs_copy_kind(self):
        trace = ColumnarTrace(name="t")
        with pytest.raises(ValueError, match="copy_kind"):
            trace.record_batch(
                EventKind.MEMCPY, "cp", np.array([0.0]), np.array([1.0])
            )
        trace.record_batch(
            EventKind.MEMCPY, "cp", np.array([0.0]), np.array([1.0]),
            nbytes=np.array([64]), copy_kind=CopyKind.H2D,
        )
        assert trace.events_in_record_order()[0].copy_kind is CopyKind.H2D

    def test_batch_validation_reports_first_offender(self):
        trace = ColumnarTrace(name="t")
        with pytest.raises(ValueError, match="'b' ends"):
            trace.record_batch(
                EventKind.KERNEL, ["a", "b", "c"],
                np.array([0.0, 5.0, 1.0]), np.array([1.0, 4.0, 0.5]),
            )
        with pytest.raises(ValueError, match="align"):
            trace.record_batch(
                EventKind.KERNEL, ["a", "b"],
                np.array([0.0]), np.array([1.0, 2.0]),
            )
        with pytest.raises(ValueError, match="nbytes"):
            trace.record_batch(
                EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0]),
                nbytes=np.array([-1]),
            )

    def test_views_reject_bulk_recording(self):
        trace = ColumnarTrace(name="t")
        trace.record_batch(
            EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0])
        )
        with pytest.raises(TypeError):
            trace.kernels().record_batch(
                EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0])
            )

    def test_single_grow_for_large_batch(self):
        store = ColumnStore(capacity=4)
        trace = ColumnarTrace(store=store)
        trace.record_batch(
            EventKind.KERNEL, "k",
            np.arange(1000, dtype=np.float64),
            np.arange(1000, dtype=np.float64) + 0.5,
        )
        assert store.stats()["events"] == 1000
        assert store.stats()["growths"] == 1  # one doubling sweep
        assert store.capacity == 1024


def _pending_rows(store):
    """Rows buffered in ``store`` and not yet in its columns."""
    return len(store._pending) // len(store_module._COLUMNS)


class TestBufferedAppends:
    """Row appends are buffered; every reader sees eager columns."""

    #: Doubling policy of the columns, replayed independently: a row
    #: append doubles once when full, a batch doubles until it fits
    #: and counts one growth.
    @staticmethod
    def _eager_capacity(cap, growths, n, m, batch):
        if batch:
            if n + m > cap:
                while cap < n + m:
                    cap *= 2
                growths += 1
        elif n == cap:
            cap, growths = 2 * cap, growths + 1
        return cap, growths

    def _check(self, store, trace, rows, cap, growths):
        n = len(rows)
        assert len(trace) == store.n == n
        assert (store.capacity, store.growths) == (cap, growths)
        # 6 eight-byte columns, 2 one-byte columns, 1 four-byte column.
        assert store.nbytes_allocated == cap * (6 * 8 + 2 + 4)
        assert _pending_rows(store) == 0
        cols = list(zip(*rows)) if rows else [()] * 6
        assert store.start[:n].tolist() == list(cols[0])
        assert store.end[:n].tolist() == list(cols[1])
        assert store.stream[:n].tolist() == list(cols[2])
        assert store.corr[:n].tolist() == list(cols[3])
        assert store.thread[:n].tolist() == list(cols[4])
        assert store.nbytes[:n].tolist() == list(cols[5])

    def test_interleaved_writers_and_readers_match_eager(self):
        chunk = store_module.CHUNK_ROWS
        rng = np.random.RandomState(3)
        store = ColumnStore(capacity=256)
        trace = ColumnarTrace(store=store, name="mixed")
        rows = []  # (start, end, stream, corr, thread, nbytes)
        cap, growths = 256, 0
        max_pending = 0
        plan = (
            ["fast"] * (chunk - 10) + ["read"] + ["batch"] + ["fast"] * 30
            + ["append"] * 5 + ["doc"] + ["fast"] * (2 * chunk + 7)
            + ["event_at"] + ["batch"] + ["fast"] * 3 + ["len"]
        )
        for step, op in enumerate(plan):
            if op in ("fast", "append"):
                start = float(rng.randint(0, 1000)) * 1e-6
                row = (start, start + 1e-6, step % 3, step, step % 4, 0)
                cap, growths = self._eager_capacity(cap, growths, len(rows), 1, False)
                if op == "fast":
                    trace.record_fast(
                        EventKind.KERNEL, "k", row[0], row[1], stream=row[2],
                        correlation_id=row[3], thread=row[4],
                    )
                else:
                    trace.append(TraceEvent(
                        kind=EventKind.MEMCPY, name="m", start=row[0], end=row[1],
                        stream=row[2], nbytes=64, copy_kind=CopyKind.H2D,
                        correlation_id=row[3], thread=row[4],
                    ))
                    row = row[:5] + (64,)
                rows.append(row)
                max_pending = max(max_pending, _pending_rows(store))
            elif op == "batch":
                m = 1500
                starts = np.arange(m, dtype=np.float64) * 1e-6
                cap, growths = self._eager_capacity(cap, growths, len(rows), m, True)
                trace.record_batch(EventKind.API, "b", starts, starts + 2e-6)
                rows.extend((float(s), float(s) + 2e-6, -1, 0, 0, 0) for s in starts)
                self._check(store, trace, rows, cap, growths)
            elif op == "read":
                assert len(trace.kernels()) == sum(1 for r in rows if r[5] == 0)
                self._check(store, trace, rows, cap, growths)
            elif op == "doc":
                doc = trace.to_doc()
                assert doc["start"] == [r[0] for r in rows]
                self._check(store, trace, rows, cap, growths)
            elif op == "event_at":
                ev = store.event_at(len(rows) - 1)
                assert (ev.start, ev.end) == rows[-1][:2]
                self._check(store, trace, rows, cap, growths)
            else:
                assert len(trace) == len(rows)
        self._check(store, trace, rows, cap, growths)
        assert max_pending == chunk - 1
        assert store.stats()["events"] == len(rows)
        # And the whole document round-trips bit-exactly.
        again = ColumnarTrace.from_doc(json.loads(json.dumps(trace.to_doc())))
        assert list(again) == list(trace)

    def test_buffer_never_exceeds_the_chunk(self):
        chunk = store_module.CHUNK_ROWS
        store = ColumnStore(capacity=8)
        high = 0
        for i in range(3 * chunk + 5):
            store.append_row(0, "k", float(i), float(i), None, 0, -1, i, 0, None)
            high = max(high, _pending_rows(store))
        assert high == chunk - 1  # a full chunk is filled in at once
        assert _pending_rows(store) == 5
        assert store.n == 3 * chunk + 5
        assert store.end[store.n - 6] == float(3 * chunk - 1)

    def test_validation_is_immediate(self):
        store = ColumnStore()
        trace = ColumnarTrace(store=store)
        with pytest.raises(ValueError, match="ends"):
            trace.record_fast(EventKind.KERNEL, "k", 2.0, 1.0)
        with pytest.raises(ValueError, match="copy_kind"):
            trace.record_fast(EventKind.MEMCPY, "m", 0.0, 1.0, nbytes=4)
        assert store.n == 0 and not store._pending

    def test_view_still_rejects_recording(self):
        trace = ColumnarTrace()
        trace.record_fast(EventKind.KERNEL, "k", 0.0, 1.0)
        view = trace.kernels()
        with pytest.raises(TypeError, match="filtered trace view"):
            view.record_fast(EventKind.KERNEL, "k", 1.0, 2.0)
        assert len(trace) == 1
