"""Exporters: Chrome/Perfetto traces and plain-text run reports.

:func:`build_perfetto_trace` writes the span tree recorded by the
:class:`~repro.observability.spans.TraceCollector` as trace-event JSON
that loads in ``chrome://tracing`` or https://ui.perfetto.dev: pid 1
("spans") holds one lane per executing thread, nested spans render as
call stacks, and the layer is the event category.  Each COMPSs worker
thread's lane is the classic Extrae/Paraver-style task gantt: one
``compss`` span per task attempt.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.observability.metrics import (
    MetricsSnapshot,
    snapshot_histogram_quantile,
)
from repro.observability.spans import Span

__all__ = [
    "build_perfetto_trace",
    "render_run_report",
    "snapshot_from_json",
]

_SPAN_PID = 1


def build_perfetto_trace(spans: Sequence[Span], *, dropped: int = 0) -> str:
    """Spans as trace-event JSON.

    Timestamps are shifted so the trace starts at 0.  *dropped* (the
    collector's drop count) is stamped into the trace as metadata so a
    truncated trace says so.
    """
    t0 = min((s.start for s in spans), default=0.0)

    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _SPAN_PID, "name": "process_name",
         "args": {"name": "spans"}},
    ]
    if dropped:
        events.append({
            "ph": "M", "pid": _SPAN_PID, "name": "spans_dropped",
            "args": {"dropped": int(dropped)},
        })

    seen_threads: Dict[int, str] = {}
    for s in spans:
        if s.thread_id not in seen_threads:
            seen_threads[s.thread_id] = s.thread_name or f"thread-{s.thread_id}"
        events.append({
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(max(s.duration, 0.0) * 1e6, 3),
            "pid": _SPAN_PID,
            "tid": s.thread_id,
            "args": {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "layer": s.layer,
                "status": s.status,
                **s.attrs,
            },
        })
    for tid, name in seen_threads.items():
        events.append({"ph": "M", "pid": _SPAN_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": name}})

    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def snapshot_from_json(payload: Dict[str, Any]) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from its JSON form.

    Accepts either a bare metrics snapshot or a workflow
    ``run_summary.json`` (whose ``"metrics"`` key holds one).
    """
    if "metrics" in payload and not _looks_like_snapshot(payload):
        payload = payload["metrics"]
    if not _looks_like_snapshot(payload):
        raise ValueError("not a metrics snapshot (no kind/series families)")
    return MetricsSnapshot(payload)


def _looks_like_snapshot(payload: Dict[str, Any]) -> bool:
    return bool(payload) and all(
        isinstance(v, dict) and "kind" in v and "series" in v
        for v in payload.values()
    )


def render_run_report(
    snapshot: MetricsSnapshot,
    spans: Sequence[Span] = (),
    title: str = "Run report",
    dropped: int = 0,
) -> str:
    """Plain-text run summary: headline metrics plus per-layer span time."""
    lines = [title, "=" * len(title), ""]

    data = snapshot.to_json()
    if data:
        lines.append("metrics")
        lines.append("-------")
        for name in sorted(data):
            family = data[name]
            for entry in family["series"]:
                labels = entry["labels"]
                label_txt = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels else ""
                )
                if family["kind"] == "histogram":
                    count = entry["count"]
                    mean = entry["sum"] / count if count else 0.0
                    quantiles = ""
                    if count:
                        p50, p95, p99 = (
                            snapshot_histogram_quantile(data, name, q, **labels)
                            for q in (0.50, 0.95, 0.99)
                        )
                        quantiles = (
                            f" p50={p50:.4f}s p95={p95:.4f}s p99={p99:.4f}s"
                        )
                    lines.append(
                        f"  {name}{label_txt}  count={count} "
                        f"sum={entry['sum']:.4f}s mean={mean:.4f}s{quantiles}"
                    )
                else:
                    lines.append(f"  {name}{label_txt}  {entry['value']}")
        lines.append("")

    if spans:
        by_layer: Dict[str, List[Span]] = {}
        for s in spans:
            by_layer.setdefault(s.layer, []).append(s)
        lines.append("spans by layer")
        lines.append("--------------")
        for layer in sorted(by_layer):
            group = by_layer[layer]
            total = sum(s.duration for s in group)
            errors = sum(1 for s in group if s.status != "OK")
            lines.append(
                f"  {layer:<12} {len(group):>5} spans  "
                f"{total:>9.3f}s total" + (f"  {errors} errors" if errors else "")
            )
        trace_ids = {s.trace_id for s in spans}
        lines.append("")
        lines.append(f"traces: {len(trace_ids)}  spans: {len(spans)}")
    if dropped:
        lines.append(f"WARNING: {dropped} spans dropped (collector full)")
    return "\n".join(lines) + "\n"
