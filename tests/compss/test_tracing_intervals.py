"""Interval arithmetic behind the task-attempt schedule.

``profile._merge``/``profile._overlap`` compute worker busy time and the
ESM/analytics overlap; :func:`schedule_stats` uses them for the run
summary's ``schedule`` section.
"""

import pytest

from repro.observability.profile import (
    TaskAttempt,
    _merge,
    _overlap,
    schedule_stats,
)


def _attempt(func, start, end, task_id=1, worker=0):
    return TaskAttempt(task_id, func, worker, start, end, "COMPLETED")


class TestMergeIntervals:
    def test_empty(self):
        assert _merge([]) == []

    def test_disjoint_sorted(self):
        assert _merge([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]

    def test_overlapping_merge(self):
        assert _merge([(0, 2), (1, 5), (4, 6)]) == [(0, 6)]

    def test_touching_intervals_merge(self):
        # start == previous end counts as contiguous, not a gap.
        assert _merge([(0, 1), (1, 2)]) == [(0, 2)]

    def test_contained_interval_absorbed(self):
        assert _merge([(0, 10), (2, 3)]) == [(0, 10)]

    def test_single_point_intervals(self):
        # Zero-length intervals cover no time and are dropped, alone or
        # next to a real interval.
        assert _merge([(1, 1), (1, 1), (2, 2)]) == []
        assert _merge([(1, 1), (0, 3), (5, 5)]) == [(0, 3)]


class TestIntervalOverlap:
    def test_no_overlap(self):
        assert _overlap([(0, 1)], [(2, 3)]) == 0.0

    def test_touching_is_zero(self):
        assert _overlap([(0, 1)], [(1, 2)]) == 0.0

    def test_partial_and_multiple(self):
        a = [(0, 5), (10, 15)]
        b = [(3, 12)]
        assert _overlap(a, b) == pytest.approx(2 + 2)

    def test_either_side_empty(self):
        assert _overlap([], [(0, 1)]) == 0.0
        assert _overlap([(0, 1)], []) == 0.0


class TestOverlapGroupSeconds:
    def _overlap_s(self, attempts, group):
        stats = schedule_stats(attempts, 3, group, esm_functions=("esm",))
        return stats["esm_analytics_overlap_s"]

    def test_group_union_counts_each_second_once(self):
        # Two analytics tasks cover the same wall-clock window: the
        # overlap with the producer must not double-count it.
        attempts = [
            _attempt("esm", 0.0, 10.0, task_id=1),
            _attempt("ana", 2.0, 6.0, task_id=2, worker=1),
            _attempt("ana", 3.0, 7.0, task_id=3, worker=2),
        ]
        assert self._overlap_s(attempts, {"ana"}) == pytest.approx(5.0)

    def test_empty_group_is_zero(self):
        assert self._overlap_s([_attempt("esm", 0.0, 10.0)], set()) == 0.0

    def test_missing_producer_is_zero(self):
        assert self._overlap_s([_attempt("ana", 0.0, 1.0)], {"ana"}) == 0.0

    def test_group_accepts_list(self):
        attempts = [
            _attempt("esm", 0.0, 4.0, task_id=1),
            _attempt("a", 1.0, 2.0, task_id=2, worker=1),
            _attempt("b", 3.0, 5.0, task_id=3, worker=2),
        ]
        assert self._overlap_s(attempts, ["a", "b"]) == pytest.approx(2.0)


class TestScheduleStats:
    def test_makespan_and_utilisation(self):
        attempts = [
            _attempt("esm", 1.0, 5.0, task_id=1),
            _attempt("ana", 2.0, 3.0, task_id=2, worker=1),
            _attempt("ana", 4.0, 9.0, task_id=3, worker=1),
        ]
        stats = schedule_stats(attempts, 2, {"ana"}, esm_functions=("esm",))
        assert stats["makespan_s"] == pytest.approx(8.0)
        # busy 4 + 1 + 5 over 2 workers x 8 s
        assert stats["worker_utilisation"] == pytest.approx(10 / 16)
        assert stats["esm_analytics_overlap_s"] == pytest.approx(2.0)

    def test_no_attempts(self):
        assert schedule_stats([], 4, {"ana"}) == {
            "makespan_s": 0.0, "esm_analytics_overlap_s": 0.0,
            "worker_utilisation": 0.0,
        }
