"""Tests for ensembles, online diagnostics, cube concat and trace export."""

import json

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.esm import (
    CMCCCM3,
    DiagnosticsError,
    DiagnosticsRecorder,
    EnsembleConfig,
    ModelConfig,
    build_member,
    ensemble_statistics,
    member_name,
    run_ensemble,
)


def base_config(**kw):
    defaults = dict(n_lat=16, n_lon=24, seed=7)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestEnsemble:
    def test_member_names(self):
        assert member_name(0) == "r1i1p1f1"
        assert member_name(2) == "r3i1p1f1"

    def test_member_configs_differ_only_in_seed(self):
        cfg = EnsembleConfig(base_config(), n_members=3)
        c0, c1 = cfg.member_config(0), cfg.member_config(1)
        assert c0.seed != c1.seed
        assert (c0.n_lat, c0.n_lon, c0.scenario) == (c1.n_lat, c1.n_lon, c1.scenario)
        with pytest.raises(ValueError):
            cfg.member_config(5)
        with pytest.raises(ValueError):
            EnsembleConfig(base_config(), n_members=0)

    def test_members_share_forced_events(self):
        cfg = EnsembleConfig(base_config(), n_members=2)
        m0, m1 = build_member(cfg, 0), build_member(cfg, 1)
        assert m0.events.events_for_year(2030) == m1.events.events_for_year(2030)

    def test_members_have_different_weather(self):
        cfg = EnsembleConfig(base_config(), n_members=2)
        m0, m1 = build_member(cfg, 0), build_member(cfg, 1)
        _, d0 = next(m0.iter_year(2030, n_days=1))
        _, d1 = next(m1.iter_year(2030, n_days=1))
        assert not np.array_equal(d0["TREFHT"].data, d1["TREFHT"].data)

    def test_run_ensemble_layout_and_truth(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        cfg = EnsembleConfig(base_config(), n_members=2)
        truth = run_ensemble(cfg, [2030], fs, n_days=2)
        assert set(truth) == {"r1i1p1f1", "r2i1p1f1"}
        for member in truth:
            files = fs.glob(f"ensemble/{member}", "cmcc_cm3_*.rnc")
            assert len(files) == 2
        # Forced events identical across members.
        assert truth["r1i1p1f1"][2030] == truth["r2i1p1f1"][2030]

    def test_ensemble_statistics(self):
        fields = [np.full((2, 2), v) for v in (1.0, 2.0, 3.0)]
        stats = ensemble_statistics(fields)
        np.testing.assert_allclose(stats["mean"], 2.0)
        np.testing.assert_allclose(stats["spread"], np.std([1, 2, 3]))
        np.testing.assert_allclose(stats["agreement"], 1.0)
        assert stats["n_members"] == 3

    def test_ensemble_statistics_disagreement(self):
        stats = ensemble_statistics([np.array([[1.0]]), np.array([[-0.5]])])
        assert stats["agreement"][0, 0] == 0.5

    def test_ensemble_statistics_empty(self):
        with pytest.raises(ValueError):
            ensemble_statistics([])


class TestDiagnostics:
    def _run(self, n_days=3, validate=True):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid, validate=validate)
        for doy, ds in model.iter_year(2030, n_days=n_days):
            rec.record_day(doy, ds)
        return rec

    def test_records_per_day(self):
        rec = self._run(n_days=4)
        assert rec.days == [1, 2, 3, 4]
        assert len(rec.global_mean_t) == 4
        assert all(250 < t < 310 for t in rec.global_mean_t)
        assert all(900 < p < 1050 for p in rec.min_psl)

    def test_summary(self):
        rec = self._run(n_days=3)
        s = rec.summary()
        assert s["n_days"] == 3
        assert 250 < s["mean_global_t_k"] < 310
        assert s["deepest_low_hpa"] < 1050

    def test_summary_empty_raises(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        with pytest.raises(DiagnosticsError):
            rec.summary()

    def test_json_roundtrip(self):
        rec = self._run(n_days=2)
        payload = json.loads(rec.to_json())
        assert payload["days"] == [1, 2]
        assert "summary" in payload

    def test_validation_catches_nan(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        _, ds = next(model.iter_year(2030, n_days=1))
        ds["TREFHT"].data[0, 0, 0] = np.nan
        with pytest.raises(DiagnosticsError):
            rec.record_day(1, ds)

    def test_validation_catches_tmax_below_tmin(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        _, ds = next(model.iter_year(2030, n_days=1))
        ds["TREFHTMX"].data[...] = ds["TREFHTMN"].data - 1.0
        with pytest.raises(DiagnosticsError):
            rec.record_day(1, ds)

    def test_run_year_persists_diagnostics(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        model.run_year(2030, fs, n_days=2, diagnostics=rec)
        payload = json.loads(fs.read_bytes("esm_output/diagnostics_2030.json"))
        assert payload["summary"]["n_days"] == 2


class TestCubeConcat:
    def test_concat_two_years(self):
        from repro.ophidia import Client, Cube, OphidiaServer

        a = np.random.default_rng(0).normal(size=(5, 4, 6))
        b = np.random.default_rng(1).normal(size=(3, 4, 6))
        with OphidiaServer(2, 2) as server:
            client = Client(server)
            ca = Cube.from_array(a, ["time", "lat", "lon"], client=client,
                                 fragment_dim="lat", nfrag=2)
            cb = Cube.from_array(b, ["time", "lat", "lon"], client=client,
                                 fragment_dim="lat", nfrag=2)
            cc = ca.concat(cb, dim="time")
            assert cc.shape == (8, 4, 6)
            np.testing.assert_array_equal(cc.to_array(),
                                          np.concatenate([a, b], axis=0))

    def test_concat_misaligned_fragments(self):
        from repro.ophidia import Client, Cube, OphidiaServer

        a = np.zeros((2, 4))
        b = np.ones((3, 4))
        with OphidiaServer(2, 2) as server:
            client = Client(server)
            ca = Cube.from_array(a, ["time", "y"], client=client,
                                 fragment_dim="y", nfrag=2)
            cb = Cube.from_array(b, ["time", "y"], client=client,
                                 fragment_dim="y", nfrag=4)
            cc = ca.concat(cb, dim="time")
            np.testing.assert_array_equal(
                cc.to_array(), np.concatenate([a, b], axis=0)
            )

    def test_concat_validation(self):
        from repro.ophidia import Client, Cube, OphidiaServer

        with OphidiaServer(1, 1) as server:
            client = Client(server)
            a = Cube.from_array(np.zeros((2, 4)), ["time", "y"], client=client,
                                fragment_dim="y")
            bad_dims = Cube.from_array(np.zeros((2, 4)), ["time", "x"],
                                       client=client, fragment_dim="x")
            bad_size = Cube.from_array(np.zeros((2, 5)), ["time", "y"],
                                       client=client, fragment_dim="y")
            with pytest.raises(ValueError):
                a.concat(bad_dims, dim="time")
            with pytest.raises(ValueError):
                a.concat(bad_size, dim="time")
            with pytest.raises(ValueError):
                a.concat(a, dim="y")  # fragment dim


class TestChromeTrace:
    def test_export_structure(self):
        from repro.observability import Span, build_perfetto_trace

        def attempt(task_id, func, worker, start, end, status):
            return Span(
                name=f"{func}#{task_id}", trace_id="t", span_id=f"s{task_id}",
                parent_id=None, layer="compss", start=start, end=end,
                status=status, thread_id=worker,
                attrs={"task_id": task_id, "worker_id": worker,
                       "function": func, "category": "compute"},
            )

        doc = json.loads(build_perfetto_trace([
            attempt(1, "sim", 0, 0.0, 1.5, "OK"),
            attempt(2, "ana", 1, 1.0, 2.0, "ERROR"),
        ]))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        assert events[0]["name"] == "sim#1"
        assert events[0]["dur"] == pytest.approx(1.5e6)
        assert events[1]["tid"] == 1
        assert events[1]["args"]["status"] == "ERROR"
        assert events[1]["args"]["task_id"] == 2

    def test_export_from_real_run(self):
        from repro.compss import COMPSs, compss_wait_on, task
        from repro.observability import (
            build_perfetto_trace, get_collector, span,
        )

        @task(returns=1)
        def f(x):
            return x

        with span("test.root", layer="workflow") as root:
            with COMPSs(n_workers=2):
                compss_wait_on([f(i) for i in range(3)])
        spans = get_collector().for_trace(root.context.trace_id)
        doc = json.loads(build_perfetto_trace(spans))
        attempts = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["args"].get("category") == "compute"]
        assert sorted(e["args"]["function"] for e in attempts) == ["f"] * 3
