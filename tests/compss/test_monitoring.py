"""Runtime monitoring snapshot tests."""

import threading
import time

import pytest

from repro.compss import COMPSs, compss_barrier, task


class TestRuntimeStatus:
    def test_status_during_execution(self):
        gate = threading.Event()

        @task()
        def blocked():
            gate.wait(5)

        @task(returns=1)
        def quick():
            return 1

        with COMPSs(n_workers=1) as rt:
            blocked()
            time.sleep(0.1)
            quick()
            status = rt.status()
            assert status["submitted"] == 2
            assert status["active"] == 2
            assert status["running"] == ["blocked#1"]
            assert status["ready"] == 1
            assert status["failed"] is False
            gate.set()
            compss_barrier()
            final = rt.status()
            assert final["active"] == 0
            assert final["by_state"]["COMPLETED"] == 2
            assert final["running"] == []

    def test_status_reflects_failure(self):
        @task(returns=1)
        def boom():
            raise RuntimeError("x")

        from repro.compss import TaskFailedError

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=1) as rt:
                boom()
                rt.barrier(raise_on_error=False)
                assert rt.status()["failed"] is True
                assert rt.status()["by_state"]["FAILED"] == 1

    def test_free_units_accounting(self):
        with COMPSs(n_workers=3) as rt:
            assert rt.status()["free_computing_units"] == 3
