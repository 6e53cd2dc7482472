"""The ``repro top`` data model: a live view of the control plane.

The service writes everything it knows into durable stores — job rows
and tenant quotas into the control-plane database, finished-run metric
deltas into the run history it shares a file with, and lifecycle
events into the JSONL event log.  ``repro top`` therefore needs no
connection to a running service: :func:`gather_top_state` reassembles
the fleet picture purely from those files, and :func:`render_top`
draws it as a plain-text dashboard, so the same view works against a
live service, after a crash, or from a copied-off database.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.observability.events import read_events, render_event
from repro.observability.metrics import snapshot_value
from repro.service.db import JobState, ServiceDB

__all__ = ["gather_top_state", "render_top"]

#: States that hold cluster resources right now.
_ACTIVE = (JobState.LAUNCHED, JobState.RUNNING)


def gather_top_state(
    db: ServiceDB,
    events_path: Optional[str] = None,
    limit: int = 10,
) -> Dict[str, Any]:
    """Assemble the dashboard state from the database + event log.

    Returns a JSON-able dict: cluster capacity, per-tenant occupancy,
    the ready queue, recent jobs, recent recorded runs (with the
    driver CPU and RSS recovered from each run's stored metrics delta)
    and the tail of the event log.
    """
    now = time.time()
    sites = db.list_sites()
    total_cores = sum(site.total_cores for site in sites)
    jobs = db.jobs()
    active = [j for j in jobs if j.state in _ACTIVE]
    queued = [j for j in jobs if j.state is JobState.SUBMITTED]

    held: Dict[str, int] = {}
    for job in active:
        held[job.tenant] = held.get(job.tenant, 0) + job.cores

    tenants: List[Dict[str, Any]] = []
    for tenant in db.list_tenants():
        counts = db.job_counts(tenant.name)
        cores = held.get(tenant.name, 0)
        tenants.append({
            "name": tenant.name,
            "share": tenant.share,
            "running": sum(
                counts.get(state.value, 0) for state in _ACTIVE
            ),
            "queued": counts.get(JobState.SUBMITTED.value, 0),
            "completed": counts.get(JobState.COMPLETED.value, 0),
            "failed": counts.get(JobState.FAILED.value, 0),
            "cores": cores,
            "utilisation": cores / total_cores if total_cores else 0.0,
        })

    recent_jobs = sorted(jobs, key=lambda j: j.submitted_at, reverse=True)
    job_rows: List[Dict[str, Any]] = []
    for job in recent_jobs[:limit]:
        finished = job.finished_at if job.finished_at is not None else now
        job_rows.append({
            "job_id": job.job_id,
            "tenant": job.tenant,
            "workflow": job.workflow,
            "state": job.state.value,
            "cores": job.cores,
            "age_s": max(0.0, now - job.submitted_at),
            "busy_s": (
                max(0.0, finished - job.started_at)
                if job.started_at is not None else 0.0
            ),
            "run_id": job.run_id,
            "backfilled": job.backfilled,
        })

    run_rows: List[Dict[str, Any]] = []
    for record in db.list_runs(limit=limit):
        metrics = record.metrics or {}
        run_rows.append({
            "run_id": record.run_id,
            "kind": record.kind,
            "status": record.status,
            "wall_clock_s": record.wall_clock_s,
            "trace_id": record.trace_id,
            "driver_cpu_s": snapshot_value(
                metrics, "process_cpu_seconds_total", role="driver"
            ),
            "driver_rss_bytes": snapshot_value(
                metrics, "process_rss_bytes", role="driver"
            ),
        })

    event_lines: List[str] = []
    if events_path:
        try:
            event_lines = [
                render_event(e) for e in read_events(events_path)[-limit:]
            ]
        except OSError:
            event_lines = []

    return {
        "generated_at": now,
        "db_path": db.path,
        "sites": [
            {"name": s.name, "total_cores": s.total_cores} for s in sites
        ],
        "total_cores": total_cores,
        "queue_depth": len(queued),
        "running_jobs": len(active),
        "tenants": tenants,
        "jobs": job_rows,
        "runs": run_rows,
        "events": event_lines,
    }


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n:.0f}B"
        n /= 1024.0
    return f"{n:.1f}GiB"


def render_top(state: Dict[str, Any]) -> str:
    """The plain-text dashboard for one :func:`gather_top_state` state."""
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(state.get("generated_at", time.time()))
    )
    lines = [
        f"repro top  {stamp}  db={state.get('db_path', '')}",
        f"cluster: {state['total_cores']} cores / "
        f"{len(state['sites'])} site(s)   "
        f"running: {state['running_jobs']}   "
        f"ready queue: {state['queue_depth']}",
        "",
    ]

    lines.append(
        f"{'TENANT':<12} {'SHARE':>5} {'RUN':>4} {'QUEUE':>5} "
        f"{'DONE':>5} {'FAIL':>5} {'CORES':>6} {'UTIL':>6}"
    )
    if state["tenants"]:
        for t in state["tenants"]:
            lines.append(
                f"{t['name']:<12.12} {t['share']:>5.1f} {t['running']:>4} "
                f"{t['queued']:>5} {t['completed']:>5} {t['failed']:>5} "
                f"{t['cores']:>6} {t['utilisation'] * 100:>5.1f}%"
            )
    else:
        lines.append("  (no tenants)")
    lines.append("")

    lines.append(
        f"{'JOB':<13} {'TENANT':<10} {'WORKFLOW':<22} {'STATE':<9} "
        f"{'CORES':>5} {'AGE':>8} {'RUN':<12}"
    )
    if state["jobs"]:
        for j in state["jobs"]:
            flags = "*" if j.get("backfilled") else ""
            lines.append(
                f"{j['job_id']:<13.13} {j['tenant']:<10.10} "
                f"{j['workflow']:<22.22} {j['state']:<9.9} "
                f"{j['cores']:>5} {j['age_s']:>7.1f}s "
                f"{(j['run_id'] or '-'):<12.12}{flags}"
            )
    else:
        lines.append("  (no jobs)")
    lines.append("")

    lines.append(
        f"{'RUN':<13} {'KIND':<26} {'STATUS':<10} {'WALL':>8} "
        f"{'CPU':>8} {'RSS':>9}"
    )
    if state["runs"]:
        for r in state["runs"]:
            wall = r["wall_clock_s"]
            lines.append(
                f"{r['run_id']:<13.13} {r['kind']:<26.26} "
                f"{r['status']:<10.10} "
                f"{(f'{wall:.1f}s' if wall is not None else '-'):>8} "
                f"{r['driver_cpu_s']:>7.1f}s "
                f"{_fmt_bytes(r['driver_rss_bytes']):>9}"
            )
    else:
        lines.append("  (no recorded runs)")

    if state["events"]:
        lines.append("")
        lines.append("recent events")
        for line in state["events"]:
            lines.append(f"  {line}")
    return "\n".join(lines) + "\n"
