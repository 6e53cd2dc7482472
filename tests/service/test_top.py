"""`repro top`: the fleet view assembled from runs.db + events.jsonl."""

import json

import pytest

from repro.cli import main
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry
from repro.service import JobState, ServiceDB, gather_top_state, render_top
from repro.service.top import _fmt_bytes


def _run_metrics(driver_cpu=2.5, driver_rss=64 * 2**20):
    registry = MetricsRegistry()
    cpu = registry.counter("process_cpu_seconds_total", "cpu", ("role", "pid"))
    cpu.inc(driver_cpu, role="driver", pid="100")
    rss = registry.gauge("process_rss_bytes", "rss", ("role", "pid"))
    rss.set(driver_rss, role="driver", pid="100")
    return registry.snapshot().to_json()


@pytest.fixture
def populated(tmp_path):
    db = ServiceDB(str(tmp_path / "runs.db"))
    db.add_tenant("alice", share=1.0)
    db.add_tenant("bob", share=2.0)
    db.register_site("laptop", cluster="laptop-sim", total_cores=8)
    running = db.submit_job("alice", "esm-ensemble-member", cores=4)
    db.update_job(running.job_id, state=JobState.RUNNING, started_at=1.0)
    db.submit_job("bob", "heatwave-analytics", cores=1)  # stays queued
    done = db.submit_job("bob", "heatwave-analytics", cores=1)
    db.record_run(
        kind="service:heatwave-analytics", status="completed",
        wall_clock_s=0.4, metrics=_run_metrics(), trace_id="t" * 16,
        run_id="run000000001",
    )
    db.update_job(done.job_id, state=JobState.COMPLETED, started_at=1.0,
                  finished_at=2.0, run_id="run000000001")

    events = tmp_path / "events.jsonl"
    log = EventLog()
    log.attach_file(str(events))
    log.emit("WARNING", "observability", "trace_spans_dropped",
             "collector full")
    log.detach_file()
    return db, str(events)


class TestGatherTopState:
    def test_tenant_occupancy_and_queue(self, populated):
        db, events = populated
        state = gather_top_state(db, events_path=events)
        assert state["total_cores"] == 8
        assert state["queue_depth"] == 1
        assert state["running_jobs"] == 1
        by_name = {t["name"]: t for t in state["tenants"]}
        assert by_name["alice"]["cores"] == 4
        assert by_name["alice"]["utilisation"] == pytest.approx(0.5)
        assert by_name["alice"]["running"] == 1
        assert by_name["bob"]["cores"] == 0
        assert by_name["bob"]["queued"] == 1
        assert by_name["bob"]["completed"] == 1

    def test_runs_expose_shipped_resource_samples(self, populated):
        db, _ = populated
        state = gather_top_state(db)
        run = state["runs"][0]
        assert run["run_id"] == "run000000001"
        assert run["driver_cpu_s"] == pytest.approx(2.5)
        assert run["driver_rss_bytes"] == pytest.approx(64 * 2**20)
        assert "worker_cpu_s" not in run

    def test_jobs_link_to_runs_and_events_tail_in(self, populated):
        db, events = populated
        state = gather_top_state(db, events_path=events)
        linked = [j for j in state["jobs"] if j["run_id"]]
        assert linked and linked[0]["run_id"] == "run000000001"
        assert any("trace_spans_dropped" in line for line in state["events"])

    def test_missing_event_log_tolerated(self, populated, tmp_path):
        db, _ = populated
        state = gather_top_state(db, events_path=str(tmp_path / "nope.jsonl"))
        assert state["events"] == []

    def test_empty_database(self, tmp_path):
        db = ServiceDB(str(tmp_path / "empty.db"))
        state = gather_top_state(db)
        assert state["tenants"] == []
        assert state["queue_depth"] == 0
        text = render_top(state)
        assert "(no tenants)" in text
        assert "(no recorded runs)" in text


class TestRenderTop:
    def test_renders_all_sections(self, populated):
        db, events = populated
        text = render_top(gather_top_state(db, events_path=events))
        assert "ready queue: 1" in text
        assert "alice" in text and "bob" in text
        assert "RUNNING" in text and "COMPLETED" in text
        assert "run000000001" in text
        run_line = next(
            line for line in text.splitlines() if line.startswith("run000000001")
        )
        assert "2.5s" in run_line
        assert "64.0MiB" in run_line
        assert "recent events" in text

    def test_fmt_bytes(self):
        assert _fmt_bytes(0) == "0B"
        assert _fmt_bytes(2048) == "2.0KiB"
        assert _fmt_bytes(3 * 2**30) == "3.0GiB"


class TestTopCLI:
    def test_once_text(self, populated, capsys):
        db, events = populated
        assert main(["top", "--db", db.path, "--events", events,
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "alice" in out

    def test_once_json(self, populated, capsys):
        db, _ = populated
        assert main(["top", "--db", db.path, "--once",
                     "--format", "json"]) == 0
        state = json.loads(capsys.readouterr().out)
        assert state["total_cores"] == 8
        assert {t["name"] for t in state["tenants"]} == {"alice", "bob"}

    def test_no_database_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DB", raising=False)
        assert main(["top", "--once"]) == 2
