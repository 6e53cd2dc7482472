"""Profiler unit tests: synthetic DAGs with known answers.

The span trees here are built by hand so every quantity the profiler
reports — critical path, category split, utilization, blocked time,
overlap fraction, what-ifs — has a value computable on paper.
"""

import json
import math

import pytest

from repro.observability import (
    Span,
    build_perfetto_trace,
    profile_from_perfetto,
    profile_spans,
    render_profile,
)
from repro.observability.profile import (
    ProfileError,
    categorize_span,
    task_attempts,
)


def mk_span(name, span_id, parent_id, start, end, layer="compss",
            status="OK", **attrs):
    return Span(name=name, trace_id="t1", span_id=span_id,
                parent_id=parent_id, layer=layer, start=start, end=end,
                status=status, attrs=attrs)


def mk_attempt(task_id, func, worker, start, end, status="OK"):
    """A COMPSs task-attempt span, as the runtime records one."""
    return mk_span(f"{func}#{task_id}", f"task{task_id}", "r", start, end,
                   status=status, task_id=task_id, worker_id=worker,
                   function=func, category="compute", attempt=1)


@pytest.fixture()
def diamond():
    """Root [0,10]; A [1,4] and B [2,7] in parallel; C [7,9] after B.

    Walking backwards from 10: root self [9,10], C [7,9], B [2,7]
    (it ends later than A, so A is entirely off the critical path),
    A [1,2] only up to B's start, root self [0,1].
    """
    return [
        mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow"),
        mk_span("a#1", "a", "r", 1.0, 4.0),
        mk_span("b#2", "b", "r", 2.0, 7.0),
        mk_span("c#3", "c", "r", 7.0, 9.0),
    ]


class TestCriticalPath:
    def test_segments_partition_the_root_window(self, diamond):
        prof = profile_spans(diamond)
        assert prof.makespan_s == pytest.approx(10.0)
        assert prof.critical_path_s == pytest.approx(10.0)
        starts = [s["start_s"] for s in prof.critical_path]
        assert starts == sorted(starts)
        # chronological cover with no holes
        cursor = 0.0
        for seg in prof.critical_path:
            assert seg["start_s"] == pytest.approx(cursor)
            cursor += seg["duration_s"]
        assert cursor == pytest.approx(10.0)

    def test_known_hops(self, diamond):
        prof = profile_spans(diamond)
        hops = [(s["name"], round(s["start_s"], 6), round(s["duration_s"], 6))
                for s in prof.critical_path]
        assert hops == [
            ("workflow.run", 0.0, 1.0),
            ("a#1", 1.0, 1.0),       # only until b starts
            ("b#2", 2.0, 5.0),
            ("c#3", 7.0, 2.0),
            ("workflow.run", 9.0, 1.0),
        ]

    def test_nested_children_attribute_io_within_tasks(self):
        spans = [
            mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow"),
            mk_span("task#1", "t", "r", 1.0, 9.0),
            mk_span("fs.read:x", "f", "t", 2.0, 5.0, layer="filesystem"),
        ]
        prof = profile_spans(spans)
        by_cat = prof.categories
        assert by_cat["io"] == pytest.approx(3.0)
        # task self-time: 8 - 3 = 5; root self: 2
        assert by_cat["compute"] == pytest.approx(5.0)
        assert by_cat["orchestration"] == pytest.approx(2.0)
        assert sum(by_cat.values()) == pytest.approx(prof.makespan_s)

    def test_children_clipped_to_parent_window(self):
        # Child overhangs its parent on both sides; the walk must not
        # attribute time outside the root window.
        spans = [
            mk_span("workflow.run", "r", None, 2.0, 8.0, layer="workflow"),
            mk_span("task#1", "t", "r", 1.0, 9.0),
        ]
        prof = profile_spans(spans)
        assert prof.critical_path_s == pytest.approx(6.0)

    def test_by_name_pools_task_ids_and_what_if_predicts(self, diamond):
        prof = profile_spans(diamond, what_if_top_k=2)
        pooled = {e["name"]: e["seconds"] for e in prof.by_name}
        assert pooled["b"] == pytest.approx(5.0)
        top = prof.what_if[0]
        assert top["name"] == "b"
        assert top["predicted_makespan_s"] == pytest.approx(5.0)
        assert top["predicted_speedup"] == pytest.approx(2.0)

    def test_empty_and_rootless_traces_raise(self):
        with pytest.raises(ProfileError):
            profile_spans([])

    def test_root_is_largest_orphan(self):
        spans = [
            mk_span("small", "s", "gone", 0.0, 1.0),
            mk_span("big", "b", None, 0.0, 5.0),
        ]
        prof = profile_spans(spans)
        assert prof.root_name == "big"


class TestCategorize:
    def test_explicit_attr_wins(self):
        s = mk_span("anything#1", "x", None, 0, 1, category="transfer")
        assert categorize_span(s) == "transfer"

    def test_name_and_layer_fallbacks(self):
        cases = [
            (mk_span("queue:f#1", "a", None, 0, 1, layer="app"), "queue"),
            (mk_span("retry:f#1", "b", None, 0, 1), "queue"),
            (mk_span("transfer:f#1", "c", None, 0, 1), "transfer"),
            (mk_span("fs.read:x", "d", None, 0, 1, layer="filesystem"), "io"),
            (mk_span("f#1", "e", None, 0, 1, layer="compss"), "compute"),
            (mk_span("workflow.run", "f", None, 0, 1, layer="workflow"),
             "orchestration"),
        ]
        for span_, want in cases:
            assert categorize_span(span_) == want, span_.name


class TestTimelines:
    def make(self):
        root = mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow")
        attempts = [
            # worker 0 busy [0,4] and [6,10]; worker 1 busy [0,2]
            mk_attempt(1, "esm_simulation", 0, 0.0, 4.0),
            mk_attempt(2, "analyze", 0, 6.0, 10.0),
            mk_attempt(3, "analyze", 1, 0.0, 2.0),
        ]
        return [root, *attempts]

    def test_busy_idle_utilisation(self):
        prof = profile_spans(self.make())
        w0 = prof.workers["worker-0"]
        w1 = prof.workers["worker-1"]
        assert prof.task_window_s == pytest.approx(10.0)
        assert w0["busy_s"] == pytest.approx(8.0)
        assert w0["idle_s"] == pytest.approx(2.0)
        assert w0["utilisation"] == pytest.approx(0.8)
        assert w1["busy_s"] == pytest.approx(2.0)
        assert w1["idle_s"] == pytest.approx(8.0)

    def test_blocked_is_idle_while_work_waited(self):
        # ready work waited in the scheduler during [3, 7]
        queue = mk_span("queue:analyze#2", "q", "r", 3.0, 7.0,
                        layer="scheduler")
        prof = profile_spans([*self.make(), queue])
        # worker 0 idle [4,6] ∩ waiting [3,7] = 2s blocked
        assert prof.workers["worker-0"]["blocked_s"] == pytest.approx(2.0)
        # worker 1 idle [2,10] ∩ [3,7] = 4s
        assert prof.workers["worker-1"]["blocked_s"] == pytest.approx(4.0)

    def test_overlap_fraction(self):
        prof = profile_spans(self.make(), esm_functions=("esm_simulation",))
        # esm busy [0,4]; analytics busy [0,2] u [6,10] -> overlap [0,2]
        assert prof.overlap["esm_busy_s"] == pytest.approx(4.0)
        assert prof.overlap["analytics_busy_s"] == pytest.approx(6.0)
        assert prof.overlap["overlap_s"] == pytest.approx(2.0)
        assert prof.overlap["fraction"] == pytest.approx(0.5)

    def test_straggler_detection(self):
        root = mk_span("workflow.run", "r", None, 0.0, 100.0,
                       layer="workflow")
        attempts = [mk_attempt(i, "f", 0, i * 1.0, i * 1.0 + 0.1)
                    for i in range(9)]
        attempts.append(mk_attempt(9, "f", 1, 50.0, 60.0))  # 100x the median
        prof = profile_spans([root, *attempts])
        assert len(prof.stragglers) == 1
        assert prof.stragglers[0]["task"] == "f#9"
        assert prof.stragglers[0]["worker"] == 1


class TestTaskAttempts:
    def test_only_compss_compute_spans_with_a_task_id(self):
        spans = [
            mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow"),
            mk_attempt(1, "esm_simulation", 0, 1.0, 4.0),
            # a batch job is "compute" too, but not a task attempt
            mk_span("lsf:job#7", "j", "r", 0.0, 9.0, layer="cluster",
                    category="compute", attempt=1),
            mk_span("transfer:f#2", "x", "r", 4.0, 5.0, category="transfer",
                    task_id=2, worker_id=0),
            mk_span("selftest.child", "c", "r", 5.0, 6.0, category="compute"),
        ]
        attempts = task_attempts(spans)
        assert [(a.task_id, a.func_name, a.worker_id, a.start, a.end)
                for a in attempts] == [(1, "esm_simulation", 0, 1.0, 4.0)]

    def test_status_maps_to_state(self):
        attempts = task_attempts([
            mk_attempt(1, "f", 0, 0.0, 1.0, status="OK"),
            mk_attempt(2, "f", 1, 0.0, 1.0, status="ERROR"),
        ])
        assert [a.state for a in attempts] == ["COMPLETED", "FAILED"]


class TestSerialisation:
    def test_to_json_round_trips_through_json(self, diamond):
        prof = profile_spans(diamond)
        payload = json.loads(json.dumps(prof.to_json()))
        assert payload["makespan_s"] == pytest.approx(10.0)
        assert payload["n_critical_segments"] == 5

    def test_segment_cap_keeps_aggregates_exact(self, diamond):
        prof = profile_spans(diamond)
        capped = prof.to_json(max_segments=2)
        assert capped["critical_path_truncated"] is True
        assert len(capped["critical_path"]) == 2
        assert capped["critical_path_s"] == pytest.approx(10.0)
        assert capped["n_critical_segments"] == 5

    def test_render_profile_accepts_both_forms(self, diamond):
        prof = profile_spans(diamond)
        for form in (prof, prof.to_json()):
            text = render_profile(form, top=3)
            assert "critical path" in text
            assert "what-if" in text


class TestPerfettoRoundTrip:
    def test_profile_agrees_after_export_import(self, diamond):
        spans = diamond + [mk_attempt(1, "esm_simulation", 0, 1.0, 4.0),
                           mk_attempt(2, "analyze", 1, 2.0, 7.0)]
        direct = profile_spans(spans)
        payload = json.loads(build_perfetto_trace(spans))
        rt = profile_from_perfetto(payload)
        # export rounds to microseconds and shifts t0; derived
        # quantities agree to that precision
        assert rt.makespan_s == pytest.approx(direct.makespan_s, abs=1e-5)
        assert rt.critical_path_s == pytest.approx(
            direct.critical_path_s, abs=1e-4)
        assert rt.overlap["overlap_s"] == pytest.approx(
            direct.overlap["overlap_s"], abs=1e-5)
        assert direct.overlap["overlap_s"] == pytest.approx(2.0)
        assert rt.workers.keys() == direct.workers.keys() == {
            "worker-0", "worker-1"}
        for name, worker in direct.workers.items():
            assert rt.workers[name]["busy_s"] == pytest.approx(
                worker["busy_s"], abs=1e-5)
        assert {s["name"] for s in rt.critical_path} == {
            s["name"] for s in direct.critical_path}

    def test_legacy_schedule_lane_is_ignored(self, diamond):
        """Traces written before spans were the only task record carry a
        pid-2 "compss schedule" lane; they profile as their spans alone."""
        spans = diamond + [mk_attempt(1, "esm_simulation", 0, 1.0, 4.0),
                           mk_attempt(2, "analyze", 1, 2.0, 7.0)]
        payload = json.loads(build_perfetto_trace(spans))
        legacy = json.loads(json.dumps(payload))
        legacy["traceEvents"] += [
            {"ph": "M", "pid": 2, "name": "process_name",
             "args": {"name": "compss schedule"}},
            {"ph": "M", "pid": 2, "tid": 0, "name": "thread_name",
             "args": {"name": "worker-0"}},
            {"ph": "M", "pid": 2, "tid": 1, "name": "thread_name",
             "args": {"name": "worker-1"}},
            {"name": "esm_simulation#1", "cat": "COMPLETED", "ph": "X",
             "ts": 1.001e6, "dur": 2.998e6, "pid": 2, "tid": 0,
             "args": {"task_id": 1, "state": "COMPLETED"}},
            {"name": "analyze#2", "cat": "COMPLETED", "ph": "X",
             "ts": 2.001e6, "dur": 4.998e6, "pid": 2, "tid": 1,
             "args": {"task_id": 2, "state": "COMPLETED"}},
        ]
        old, new = profile_from_perfetto(legacy), profile_from_perfetto(payload)
        assert old.workers == new.workers
        assert old.overlap == new.overlap
        assert old.n_task_events == new.n_task_events == 2

    def test_span_attrs_survive_export(self, diamond):
        diamond[1].attrs["category"] = "transfer"
        payload = json.loads(build_perfetto_trace(diamond))
        rt = profile_from_perfetto(payload)
        by_cat = rt.categories
        assert by_cat.get("transfer", 0.0) == pytest.approx(1.0)

    def test_trace_without_spans_raises(self):
        with pytest.raises(ProfileError):
            profile_from_perfetto({"traceEvents": []})

    def test_status_and_nan_free(self, diamond):
        diamond[3].status = "ERROR"
        payload = json.loads(build_perfetto_trace(diamond))
        rt = profile_from_perfetto(payload)
        err = [s for s in rt.critical_path if s["name"] == "c#3"]
        assert err and err[0]["status"] == "ERROR"
        dumped = json.dumps(rt.to_json())
        assert not any(math.isnan(v) for v in rt.categories.values())
        assert "NaN" not in dumped
