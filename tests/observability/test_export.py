"""Exporter tests: Perfetto merge, snapshot rebuild, run report."""

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    TraceCollector,
    build_perfetto_trace,
    new_context,
    record_span,
    render_run_report,
    snapshot_from_json,
    span,
)


@pytest.fixture()
def spans():
    c = TraceCollector()
    with span("root", layer="workflow", collector=c):
        with span("child", layer="compss", collector=c):
            pass
    return c.spans()


class TestPerfettoTrace:
    def test_spans_become_complete_events(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in events} == {"root", "child"}
        for e in events:
            assert e["pid"] == 1
            assert e["ts"] >= 0
            assert e["dur"] >= 0
            assert e["args"]["trace_id"]

    def test_clock_alignment_shifts_to_zero(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        ts = [e["ts"] for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert min(ts) == 0.0

    def test_thread_metadata_present(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        meta = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

    def test_empty_inputs(self):
        trace = json.loads(build_perfetto_trace([]))
        assert all(e.get("ph") == "M" for e in trace["traceEvents"])


class TestSnapshotFromJson:
    def test_bare_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        snap = snapshot_from_json(registry.snapshot().to_json())
        assert snap.value("n_total") == 1

    def test_run_summary_wrapper(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        summary = {"years": {}, "metrics": registry.snapshot().to_json()}
        assert snapshot_from_json(summary).value("n_total") == 1

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            snapshot_from_json({"foo": "bar"})


class TestRunReport:
    def test_report_lists_metrics_and_layers(self, spans):
        registry = MetricsRegistry()
        registry.counter("ops_total", labels=("op",)).inc(op="read")
        registry.histogram("lat_seconds").observe(0.1)
        report = render_run_report(registry.snapshot(), spans, title="T")
        assert report.startswith("T\n=\n")
        assert "ops_total{op=read}  1" in report
        assert "count=1" in report
        assert "workflow" in report and "compss" in report
        assert "traces: 1  spans: 2" in report

    def test_error_spans_counted(self):
        c = TraceCollector()
        record_span("bad", layer="x", start=0, end=1, parent=new_context(),
                    status="ERROR", collector=c)
        report = render_run_report(MetricsRegistry().snapshot(), c.spans())
        assert "1 errors" in report
