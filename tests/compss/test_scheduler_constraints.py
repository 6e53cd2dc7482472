"""Scheduler policies, @constraint resource units, graph export, task spans."""

import threading
import time

import pytest

from repro.compss import (
    COMPSs,
    DataLocalityPolicy,
    FIFOPolicy,
    PriorityPolicy,
    compss_barrier,
    compss_wait_on,
    constraint,
    task,
)
from repro.compss.scheduler import policy_by_name
from repro.compss.task_graph import TaskGraph, TaskNode, TaskState
from repro.compss.failures import OnFailure


def _mk_node(task_id, name="f", priority=False, order=None):
    node = TaskNode(
        task_id, name, lambda: None, (), {}, 0, (), OnFailure.FAIL, 0,
        priority=priority,
    )
    node.submit_order = order if order is not None else task_id
    return node


class TestPolicies:
    def test_fifo_order(self):
        g = TaskGraph()
        ready = [_mk_node(3), _mk_node(1), _mk_node(2)]
        policy = FIFOPolicy()
        picked = [policy.select(ready, 0, g).task_id for _ in range(3)]
        assert picked == [1, 2, 3]

    def test_priority_first(self):
        g = TaskGraph()
        ready = [_mk_node(1), _mk_node(2, priority=True), _mk_node(3)]
        policy = PriorityPolicy()
        assert policy.select(ready, 0, g).task_id == 2
        assert policy.select(ready, 0, g).task_id == 1

    def test_locality_prefers_same_worker(self):
        g = TaskGraph()
        p1, p2 = _mk_node(1, "src"), _mk_node(2, "src")
        p1.worker_id, p2.worker_id = 0, 1
        g.add_task(p1, ())
        g.add_task(p2, ())
        c1, c2 = _mk_node(3, "use"), _mk_node(4, "use")
        g.add_task(c1, [1])
        g.add_task(c2, [2])
        policy = DataLocalityPolicy()
        ready = [c1, c2]
        assert policy.select(ready, 1, g).task_id == 4  # pred ran on worker 1

    def test_locality_respects_priority(self):
        """Regression: a ``priority=True`` task must beat a better-placed
        non-priority one — locality only breaks ties within a priority
        class."""
        g = TaskGraph()
        p1, p2 = _mk_node(1, "src"), _mk_node(2, "src")
        p1.worker_id, p2.worker_id = 0, 1
        g.add_task(p1, ())
        g.add_task(p2, ())
        local = _mk_node(3, "use")             # pred on worker 1: local
        urgent = _mk_node(4, "use", priority=True)  # pred on worker 0: remote
        g.add_task(local, [2])
        g.add_task(urgent, [1])
        policy = DataLocalityPolicy()
        ready = [local, urgent]
        assert policy.select(ready, 1, g).task_id == 4
        # Priority drained: now locality decides again.
        assert policy.select([local], 1, g).task_id == 3

    def test_locality_ties_break_by_submit_order(self):
        g = TaskGraph()
        a = _mk_node(1, "use", order=7)
        b = _mk_node(2, "use", order=3)
        g.add_task(a, ())
        g.add_task(b, ())
        policy = DataLocalityPolicy()
        assert policy.select([a, b], 0, g).task_id == 2

    def test_empty_ready_returns_none(self):
        g = TaskGraph()
        for policy in (FIFOPolicy(), PriorityPolicy(), DataLocalityPolicy()):
            assert policy.select([], 0, g) is None

    def test_policy_by_name(self):
        assert isinstance(policy_by_name("fifo"), FIFOPolicy)
        assert isinstance(policy_by_name("PRIORITY"), PriorityPolicy)
        assert isinstance(policy_by_name("locality"), DataLocalityPolicy)
        with pytest.raises(ValueError):
            policy_by_name("random")

    def test_priority_policy_end_to_end(self):
        ran = []
        gate = threading.Event()

        @task()
        def blocker():
            gate.wait(5)

        @task(priority=True)
        def urgent():
            ran.append("urgent")

        @task()
        def normal():
            ran.append("normal")

        with COMPSs(n_workers=1, scheduler=PriorityPolicy()):
            blocker()          # occupies the single worker
            time.sleep(0.05)   # let it start
            normal()
            normal()
            urgent()
            gate.set()
            compss_barrier()
        assert ran[0] == "urgent"


class TestConstraints:
    def test_computing_units_limit_concurrency(self):
        running = []
        peak = []
        lock = threading.Lock()

        @constraint(computing_units=2)
        @task()
        def heavy():
            with lock:
                running.append(1)
                peak.append(len(running))
            time.sleep(0.05)
            with lock:
                running.pop()

        with COMPSs(n_workers=4, computing_units=4):
            for _ in range(6):
                heavy()
            compss_barrier()
        assert max(peak) <= 2  # 4 units / 2 per task

    def test_oversized_constraint_rejected(self):
        @constraint(computing_units=8)
        @task()
        def huge():
            pass

        with COMPSs(n_workers=2, computing_units=2):
            with pytest.raises(ValueError):
                huge()

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            constraint(computing_units=0)

    def test_constraint_below_task_decorator_order(self):
        @task()
        @constraint(computing_units=2)
        def f():
            pass

        assert f._compss_computing_units == 2


class TestGraphArtifacts:
    def test_dot_export_contains_nodes_edges_and_legend(self):
        @task(returns=1)
        def alpha():
            return 1

        @task(returns=1)
        def beta(x):
            return x

        with COMPSs(n_workers=2) as rt:
            beta(alpha())
            compss_barrier()
            dot = rt.graph.to_dot()
        assert "digraph" in dot
        assert "t1 -> t2;" in dot
        assert 'label="alpha"' in dot
        assert 'label="beta"' in dot

    def test_counts_and_summary(self):
        @task(returns=1)
        def alpha():
            return 1

        with COMPSs(n_workers=2) as rt:
            for _ in range(3):
                alpha()
            compss_barrier()
            assert rt.graph.counts_by_function() == {"alpha": 3}
            assert "alpha" in rt.graph.summary()

    def test_critical_path_and_width(self):
        @task(returns=1)
        def step(x):
            return x

        with COMPSs(n_workers=2) as rt:
            chain = step(0)
            for _ in range(3):
                chain = step(chain)
            step(100)  # independent
            compss_barrier()
            assert rt.graph.critical_path_length() == 4
            assert rt.graph.max_width() == 2


class TestTracing:
    def test_tracer_records_events_and_makespan(self):
        from repro.observability import (
            get_collector, schedule_stats, span, task_attempts,
        )

        @task(returns=1)
        def work():
            time.sleep(0.02)
            return 1

        with span("test.root", layer="workflow") as root:
            with COMPSs(n_workers=2):
                compss_wait_on([work() for _ in range(4)])
        attempts = task_attempts(get_collector().for_trace(root.context.trace_id))
        assert len(attempts) == 4
        assert all(a.state == "COMPLETED" for a in attempts)
        assert sum(a.duration for a in attempts) >= 0.08 * 0.5
        stats = schedule_stats(attempts, 2, {"work"})
        assert stats["makespan_s"] >= 0.02
        assert 0 < stats["worker_utilisation"] <= 1.0

    def test_overlap_metric(self):
        from repro.observability import TaskAttempt, schedule_stats

        attempts = [
            TaskAttempt(1, "sim", 0, 0.0, 10.0, "COMPLETED"),
            TaskAttempt(2, "ana", 1, 4.0, 6.0, "COMPLETED"),
            TaskAttempt(3, "ana", 1, 9.0, 12.0, "COMPLETED"),
        ]
        stats = schedule_stats(attempts, 2, {"ana"}, esm_functions=("sim",))
        assert stats["esm_analytics_overlap_s"] == pytest.approx(3.0)
        assert stats["makespan_s"] == pytest.approx(12.0)
