"""Span tree unit tests: nesting, propagation, gating, the collector."""

import threading

import pytest

from repro.observability import (
    EventLog,
    MetricsRegistry,
    TraceCollector,
    activate,
    current_context,
    maybe_span,
    new_context,
    record_span,
    set_event_log,
    set_registry,
    snapshot_value,
    span,
)


@pytest.fixture()
def collector():
    return TraceCollector()


class TestSpanNesting:
    def test_child_parents_to_enclosing_span(self, collector):
        with span("root", layer="workflow", collector=collector) as root:
            with span("child", layer="compss", collector=collector):
                pass
        child, root_span = collector.spans()
        assert child.name == "child"
        assert child.trace_id == root_span.trace_id
        assert child.parent_id == root_span.span_id
        assert root_span.parent_id is None
        assert root.context.trace_id == root_span.trace_id

    def test_new_trace_forces_fresh_trace_id(self, collector):
        with span("a", collector=collector):
            with span("b", new_trace=True, collector=collector):
                pass
        b, a = collector.spans()
        assert a.trace_id != b.trace_id

    def test_exception_marks_error_and_propagates(self, collector):
        with pytest.raises(RuntimeError):
            with span("boom", collector=collector):
                raise RuntimeError("x")
        (s,) = collector.spans()
        assert s.status == "ERROR"

    def test_context_restored_after_span(self, collector):
        assert current_context() is None
        with span("a", collector=collector):
            assert current_context() is not None
        assert current_context() is None

    def test_attrs_and_status_via_handle(self, collector):
        with span("a", collector=collector) as handle:
            handle.set_attr("k", 1)
            handle.set_status("ERROR")
        (s,) = collector.spans()
        assert s.attrs["k"] == 1
        assert s.status == "ERROR"


class TestMaybeSpan:
    def test_noop_without_active_context(self, collector):
        with maybe_span("quiet") as handle:
            assert not handle.recording
        assert len(collector.spans()) == 0

    def test_records_inside_active_trace(self, collector):
        with span("root", collector=collector):
            with maybe_span("hot") as handle:
                assert handle.recording
        # maybe_span routes through the global collector only when no
        # explicit one is active; assert via the parent relationship.
        names = {s.name for s in collector.spans()}
        assert "root" in names


class TestRecordSpan:
    def test_retroactive_span_joins_parent(self, collector):
        parent = new_context()
        s = record_span("queue", layer="scheduler", start=1.0, end=2.5,
                        parent=parent, collector=collector)
        assert s is not None
        assert s.trace_id == parent.trace_id
        assert s.parent_id == parent.span_id
        assert s.duration == pytest.approx(1.5)
        assert collector.spans() == [s]

    def test_no_parent_records_nothing(self, collector):
        assert record_span("orphan", layer="x", start=0, end=1,
                           collector=collector) is None
        assert len(collector.spans()) == 0


class TestCrossThreadPropagation:
    def test_activate_joins_trace_on_worker_thread(self, collector):
        recorded = []

        def worker(ctx):
            with activate(ctx):
                with span("work", collector=collector):
                    pass
            recorded.append(True)

        with span("root", collector=collector) as root:
            t = threading.Thread(target=worker, args=(current_context(),))
            t.start()
            t.join()
        assert recorded
        work, root_span = collector.spans()
        assert work.trace_id == root_span.trace_id
        assert work.parent_id == root_span.span_id
        assert work.thread_id != root_span.thread_id

    def test_activate_none_detaches(self, collector):
        with span("root", collector=collector):
            with activate(None):
                assert current_context() is None
            assert current_context() is not None


class TestCollector:
    def test_bounded_with_drop_count(self):
        c = TraceCollector(max_spans=2)
        for _ in range(4):
            record_span("s", layer="x", start=0, end=1,
                        parent=new_context(), collector=c)
        assert len(c) == 2
        assert c.dropped == 2

    def test_for_trace_filters(self, collector):
        a, b = new_context(), new_context()
        record_span("s1", layer="x", start=0, end=1, parent=a,
                    collector=collector)
        record_span("s2", layer="x", start=0, end=1, parent=b,
                    collector=collector)
        assert [s.name for s in collector.for_trace(a.trace_id)] == ["s1"]

    def test_empty_collector_still_receives_spans(self):
        # Regression: an empty collector is falsy (len == 0) and must
        # not be silently swapped for the process-global one.
        c = TraceCollector()
        with span("s", collector=c):
            pass
        assert len(c) == 1

    def test_clear(self, collector):
        record_span("s", layer="x", start=0, end=1, parent=new_context(),
                    collector=collector)
        collector.clear()
        assert len(collector) == 0


@pytest.fixture
def fresh_registry_and_log():
    """Isolate the process-wide registry and event log."""
    registry = set_registry(MetricsRegistry())
    log = set_event_log(EventLog())
    yield registry, log
    set_registry(MetricsRegistry())
    set_event_log(EventLog())


class TestDropAccounting:
    def test_overflow_increments_counter_and_warns_once(
        self, fresh_registry_and_log
    ):
        registry, log = fresh_registry_and_log
        collector = TraceCollector(max_spans=1)
        for _ in range(4):
            record_span("s", layer="x", start=0, end=1,
                        parent=new_context(), collector=collector)
        assert collector.dropped == 3
        snap = registry.snapshot().to_json()
        assert snapshot_value(snap, "trace_spans_dropped_total") == 3
        warnings = [e for e in log.events(min_severity="WARNING")
                    if e.name == "trace_spans_dropped"]
        assert len(warnings) == 1  # first drop only
