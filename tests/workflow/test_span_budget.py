"""A run whose spans were dropped reports no schedule it cannot know.

Spans are the only per-task timing record, so a collector that fills
up mid-run leaves the schedule unknowable.  The run must still finish
with the same science; it omits the schedule timing fields and the
gauges derived from them instead of reporting a truncated (made-up)
makespan.
"""

import pytest

from repro.cluster import laptop_like
from repro.observability import (
    MetricsRegistry,
    TraceCollector,
    get_collector,
    get_registry,
    set_collector,
    set_registry,
)
from repro.workflow import WorkflowParams, run_extreme_events_workflow
from repro.workflow.provenance import science_digests

TIMING = ("makespan_s", "esm_analytics_overlap_s", "worker_utilisation")
GAUGES = ("workflow_makespan_seconds", "workflow_esm_analytics_overlap_seconds",
          "workflow_worker_utilisation")


@pytest.fixture
def telemetry():
    """Swap in a fresh registry; restore both sinks afterwards."""
    collector, registry = get_collector(), get_registry()
    set_registry(MetricsRegistry())
    yield
    set_collector(collector)
    set_registry(registry)


def _run(scratch):
    with laptop_like(scratch_root=str(scratch)) as cluster:
        summary = run_extreme_events_workflow(cluster, WorkflowParams(
            years=[2030], n_days=6, n_lat=16, n_lon=24,
            min_length_days=4, with_ml=False, seed=5,
        ))
        return summary, science_digests(cluster.filesystem)


def test_full_collector_omits_schedule_timing(tmp_path, telemetry):
    set_collector(TraceCollector())
    full, full_science = _run(tmp_path / "full")
    assert all(key in full["schedule"] for key in TIMING)
    assert full["schedule"]["makespan_s"] > 0
    assert "spans_dropped" not in full

    set_collector(TraceCollector(max_spans=20))
    set_registry(MetricsRegistry())
    truncated, truncated_science = _run(tmp_path / "truncated")
    assert truncated_science == full_science
    assert truncated["spans_dropped"] > 0
    assert not any(key in truncated["schedule"] for key in TIMING)
    assert "transfers" in truncated["schedule"]
    for gauge in GAUGES:
        assert gauge not in truncated["metrics"]


def test_dropped_spans_clear_an_earlier_runs_gauges(tmp_path, telemetry):
    """One registry for both runs: the gauges of a normal run must not
    carry over into a later run whose schedule is unknown."""
    set_collector(TraceCollector())
    full, _ = _run(tmp_path / "full")
    for gauge in GAUGES:
        assert gauge in full["metrics"]

    set_collector(TraceCollector(max_spans=20))
    truncated, _ = _run(tmp_path / "truncated")
    assert truncated["spans_dropped"] > 0
    for gauge in GAUGES:
        assert gauge not in truncated["metrics"]
