"""C9 — the event-driven scheduler core vs the legacy polling baseline.

A synthetic fan-out/fan-in DAG of ~10k tiny tasks (2000 supersteps,
each one WIDTH parallel branches joined by a single task; each branch
is 1 ms of work) makes task bodies nearly free, so the makespan is
dominated by how fast the runtime *starts* work.  Two runs of the same
shape:

* **event** — ``poll_interval_s=0`` (the default): completions,
  submissions and timer-wheel deadlines notify the ready-queue
  condition directly;
* **poll** — ``poll_interval_s=0.05``: idle workers observe readiness
  only at tick boundaries (a faithful emulation of the pre-event-driven
  core; a smaller DAG keeps its wall clock sane).

Headline metrics, both strictly better event-driven:

* ``orchestration_share`` — the fraction of the critical path *not*
  spent executing task bodies (queue waits + runtime self-time), from
  :func:`profile_spans`;
* ``ready_latency_p95_s`` — p95 of
  ``compss_ready_queue_latency_seconds`` (task became-ready →
  scheduler-selected).
"""

import time

from benchmarks.conftest import print_table
from repro.compss import COMPSs, compss_wait_on, task
from repro.observability import get_collector, profile_spans, span
from repro.observability.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
)

WIDTH = 4                 # fan-out width == worker count
EVENT_SUPERSTEPS = 2000   # 1 + 2000 * (WIDTH + 1) = 10001 tasks
POLL_SUPERSTEPS = 40      # the tick tax per superstep makes 10k absurd
POLL_INTERVAL_S = 0.05


@task(returns=1)
def seed(x):
    return x


@task(returns=1)
def branch(x, j):
    # 1 ms of "work": long enough that a single worker cannot hoover up
    # the whole fan-out before its siblings would have started, so the
    # polling baseline's parallelism collapse is visible; short enough
    # that dispatch latency still dominates the makespan.
    time.sleep(0.001)
    return x + j


@task(returns=1)
def join4(a, b, c, d):
    return a + b + c + d


def run_mode(label: str, poll_interval_s: float, supersteps: int):
    """One full DAG under a fresh registry; returns the headline numbers."""
    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        with span(
            "bench.c9_orchestration", layer="benchmark",
            attrs={"mode": label, "supersteps": supersteps},
        ) as root, COMPSs(
            n_workers=WIDTH, poll_interval_s=poll_interval_s,
        ) as runtime:
            token = seed(0)
            for _ in range(supersteps):
                token = join4(*[branch(token, j) for j in range(WIDTH)])
            compss_wait_on(token)
            n_tasks = len(runtime.graph)
        hist = get_registry().get("compss_ready_queue_latency_seconds")
        p95 = hist.quantile(0.95)
        trace_id = root.context.trace_id
    finally:
        set_registry(previous)
    profile = profile_spans(get_collector().for_trace(trace_id)).to_json()
    makespan = profile["makespan_s"]
    compute = profile["categories"].get("compute", 0.0)
    return {
        "label": label,
        "n_tasks": n_tasks,
        "makespan_s": makespan,
        "orchestration_share": 1.0 - compute / makespan,
        "ready_latency_p95_s": p95,
        "tasks_per_s": n_tasks / makespan,
    }


def test_c9_orchestration_overhead(benchmark, record_bench):
    poll = run_mode("poll", POLL_INTERVAL_S, POLL_SUPERSTEPS)
    event = benchmark.pedantic(
        lambda: run_mode("event", 0.0, EVENT_SUPERSTEPS),
        rounds=1, iterations=1,
    )

    assert event["n_tasks"] >= 10_000
    # The acceptance shape: the event-driven core beats the polling
    # baseline on both headline numbers, strictly.
    assert event["orchestration_share"] < poll["orchestration_share"], (
        f"orchestration share {event['orchestration_share']:.3f} "
        f"not below polling baseline {poll['orchestration_share']:.3f}"
    )
    assert event["ready_latency_p95_s"] < poll["ready_latency_p95_s"], (
        f"p95 ready-queue latency {event['ready_latency_p95_s'] * 1e3:.2f}ms "
        f"not below polling baseline "
        f"{poll['ready_latency_p95_s'] * 1e3:.2f}ms"
    )
    # The polling baseline really polled: a branch not taken by the
    # join's own worker waits at least one sibling execution (sleeping
    # workers only re-check at tick boundaries), so its p95 sits well
    # above an event wake-up.
    assert poll["ready_latency_p95_s"] > 0.001

    record_bench(
        "c9_orchestration_overhead",
        n_tasks=event["n_tasks"],
        orchestration_share=event["orchestration_share"],
        ready_latency_p95_s=event["ready_latency_p95_s"],
        poll_orchestration_share=poll["orchestration_share"],
        poll_ready_latency_p95_s=poll["ready_latency_p95_s"],
    )

    rows = [
        [
            run["label"], run["n_tasks"], f"{run['makespan_s']:.2f}",
            f"{run['orchestration_share']:.3f}",
            f"{run['ready_latency_p95_s'] * 1e3:.2f}",
            f"{run['tasks_per_s']:.0f}",
        ]
        for run in (event, poll)
    ]
    print_table(
        "C9: orchestration overhead, event-driven vs polling",
        ["mode", "tasks", "makespan s", "orch share", "p95 ready ms",
         "tasks/s"],
        rows,
    )
    print(
        f"event-driven dispatch: p95 ready latency "
        f"{event['ready_latency_p95_s'] * 1e3:.2f}ms vs "
        f"{poll['ready_latency_p95_s'] * 1e3:.2f}ms polled "
        f"(tick {POLL_INTERVAL_S * 1e3:.0f}ms); orchestration share "
        f"{event['orchestration_share']:.3f} vs "
        f"{poll['orchestration_share']:.3f}"
    )
