"""End-to-end integration tests: the full case study on a tiny grid."""

import json

import pytest

from repro.cluster import laptop_like
from repro.workflow import (
    CASE_STUDY_TOSCA,
    WorkflowParams,
    build_case_study_services,
    run_extreme_events_workflow,
)


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path)) as c:
        yield c


def small_params(tc_model_path, **overrides):
    defaults = dict(
        years=[2030],
        n_days=12,
        n_lat=16,
        n_lon=24,
        n_workers=4,
        min_length_days=4,
        tc_model_path=tc_model_path,
        tc_target_grid=(16, 32),
        seed=5,
    )
    defaults.update(overrides)
    return WorkflowParams(**defaults)


class TestEndToEnd:
    def test_full_run_produces_all_artifacts(self, cluster, tc_model_path):
        params = small_params(tc_model_path)
        summary = run_extreme_events_workflow(cluster, params)
        fs = cluster.filesystem

        year = summary["years"][2030]
        assert "heat_waves" in year and "cold_waves" in year
        assert year["tc_deterministic"]["n_tracks"] >= 0
        assert year["tc_ml"]["n_detections"] >= 0

        # Index exports, maps, summaries, graph, run summary.
        for prefix in ("hw", "cw"):
            for suffix in ("duration_max", "number", "frequency"):
                assert fs.exists(f"results/{prefix}_{suffix}_2030.rnc"), suffix
            assert fs.exists(f"results/{prefix}_number_map_2030.pgm")
        assert fs.exists("results/task_graph.dot")
        assert fs.exists("results/run_summary.json")
        stored = json.loads(fs.read_bytes("results/run_summary.json"))
        assert stored["task_graph"]["n_tasks"] == summary["task_graph"]["n_tasks"]

    def test_task_graph_census_matches_fig3_structure(self, cluster, tc_model_path):
        """Per-year task multiset implied by Figure 3 / §5.1."""
        params = small_params(tc_model_path)
        summary = run_extreme_events_workflow(cluster, params)
        by_fn = summary["task_graph"]["by_function"]
        assert by_fn["esm_simulation"] == 1
        assert by_fn["write_baseline"] == 1
        assert by_fn["load_baseline_cubes"] == 1
        # Pipelined dispatch: the driver waits on the file stream, so
        # no monitor task occupies a worker slot.
        assert "monitor_year" not in by_fn
        assert by_fn["load_year_cubes"] == 1
        assert by_fn["compute_qualifying_durations"] == 2   # HW + CW
        assert by_fn["index_duration_max"] == 2
        assert by_fn["index_duration_number"] == 2
        assert by_fn["index_frequency"] == 2
        assert by_fn["validate_and_store"] == 2
        assert by_fn["make_map"] == 2
        assert by_fn["tc_preprocess"] == 1
        assert by_fn["tc_inference"] == 1
        assert by_fn["tc_georeference"] == 1
        assert by_fn["tc_deterministic_tracking"] == 1
        assert summary["task_graph"]["n_edges"] > 0

    def test_multi_year_scales_task_counts(self, cluster, tc_model_path):
        params = small_params(tc_model_path, years=[2030, 2031], with_ml=False)
        summary = run_extreme_events_workflow(cluster, params)
        by_fn = summary["task_graph"]["by_function"]
        # Per-year tasks double; global tasks don't (paper: "the number of
        # tasks would be repeated with the exception of the first four").
        assert by_fn["esm_simulation"] == 1
        assert by_fn["load_baseline_cubes"] == 1
        assert "monitor_year" not in by_fn
        assert by_fn["compute_qualifying_durations"] == 4
        assert set(summary["years"]) == {2030, 2031}
        assert summary["schedule"]["pipelined_years"] >= 0

    def test_without_ml(self, cluster, tc_model_path):
        params = small_params(tc_model_path, with_ml=False)
        summary = run_extreme_events_workflow(cluster, params)
        assert "tc_ml" not in summary["years"][2030]
        assert "tc_inference" not in summary["task_graph"]["by_function"]

    def test_no_baseline_reuse_loads_per_year(self, cluster, tc_model_path):
        params = small_params(
            tc_model_path, years=[2030, 2031], with_ml=False, reuse_baseline=False
        )
        summary = run_extreme_events_workflow(cluster, params)
        assert summary["task_graph"]["by_function"]["load_baseline_cubes"] == 2

    def test_dict_params_entrypoint_shape(self, cluster, tc_model_path):
        """The HPCWaaS entrypoint signature: (cluster, dict)."""
        summary = run_extreme_events_workflow(cluster, {
            "years": [2030], "n_days": 8, "n_lat": 16, "n_lon": 24,
            "min_length_days": 4, "with_ml": False, "seed": 5,
        })
        assert 2030 in summary["years"]

    def test_detects_injected_heat_waves_over_full_year(self, tmp_path, tc_model_path):
        """With a full year, the injected heat waves must surface in the
        indices (the scientific shape of Figure 4)."""
        with laptop_like(scratch_root=str(tmp_path / "c")) as cluster:
            params = small_params(
                tc_model_path, n_days=250, with_ml=False, min_length_days=6,
                n_lat=24, n_lon=36,
            )
            summary = run_extreme_events_workflow(cluster, params)
            hw = summary["years"][2030]["heat_waves"]
            assert hw["cells_with_waves"] > 0.0
            assert hw["max_duration_days"] >= 6


class TestResilience:
    def test_second_run_recovers_checkpointable_tasks(self, tmp_path, tc_model_path):
        """Re-running with the same checkpoint store recovers the tasks
        with picklable outputs (simulation truth, stats); cube-producing
        tasks re-execute by design.  Science identical."""
        ckpt = str(tmp_path / "ckpt")

        def run():
            from repro.cluster import laptop_like
            from repro.workflow import run_extreme_events_workflow

            # A restart reuses the same scratch: recovered task outputs
            # reference files that must still exist.
            with laptop_like(scratch_root=str(tmp_path / "scratch")) as cluster:
                params = small_params(
                    tc_model_path, n_days=8, with_ml=False,
                    checkpoint_dir=ckpt,
                )
                return run_extreme_events_workflow(cluster, params)

        first = run()
        second = run()
        assert second["years"][2030]["heat_waves"] == first["years"][2030]["heat_waves"]
        # The heavy producer (ESM) recovered.
        assert second["task_graph"]["n_tasks"] == first["task_graph"]["n_tasks"]

    def test_esm_restart_files_written_by_workflow(self, cluster, tc_model_path):
        from repro.workflow import run_extreme_events_workflow

        params = small_params(tc_model_path, n_days=9, with_ml=False,
                              esm_restart_every=4)
        run_extreme_events_workflow(cluster, params)
        restarts = cluster.filesystem.glob("restarts", "restart_2030_*.rnc")
        assert len(restarts) == 2


class TestHPCWaaSLifecycle:
    def test_fig2_deploy_invoke_undeploy(self, cluster, tc_model_path):
        """The Figure-2 path: A4C upload → Yorc deploy → publish →
        Execution API invoke → undeploy."""
        a4c, api = build_case_study_services()
        deployment = a4c.deploy("climate-extreme-events", cluster)

        def entrypoint(cl, params):
            wf = {k: v for k, v in params.items() if k in (
                "years", "n_days", "n_lat", "n_lon", "min_length_days",
                "with_ml", "seed", "tc_model_path", "tc_target_grid",
            )}
            return run_extreme_events_workflow(cl, wf)

        a4c.set_parameters(
            "climate-extreme-events",
            n_lat=16, n_lon=24, min_length_days=4, with_ml=False, seed=5,
        )
        record = a4c.publish_workflow(
            "extreme-events", deployment, entrypoint,
            description="climate extremes case study",
        )
        assert api.list_workflows() == ["extreme-events"]
        execution = api.invoke("extreme-events", years=[2030], n_days=8)
        summary = execution.wait(timeout=300)
        assert 2030 in summary["years"]
        # Deployment staged the TC model placeholder via the DLS.
        assert cluster.filesystem.exists("models/tc_localizer_staged.pkl")
        a4c.undeploy(record.deployment)
        with pytest.raises(RuntimeError):
            api.invoke("extreme-events")

    def test_case_study_tosca_parses(self):
        from repro.hpcwaas import topology_from_yaml

        topo = topology_from_yaml(CASE_STUDY_TOSCA)
        assert topo.name == "climate-extreme-events"
        order = [t.name for t in topo.deployment_order()]
        assert order.index("zeus") < order.index("extremes_app")
