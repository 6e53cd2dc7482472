"""C1 — streaming overlap: concurrent ESM + analytics beats sequential.

The paper's central scheduling claim (§5.1/§6): "tasks related to
climate indices computation and TC localization can start as soon as
enough data are available from the model and run concurrently with the
ESM simulation", reducing end-to-end time.

Both modes run the identical workload (4 years, paced simulation); the
sequential mode submits analytics only after the full simulation
finishes.  Shape: overlapped makespan < sequential makespan, and the
task spans show nonzero ESM/analytics co-execution only in overlapped mode.
"""

from benchmarks.conftest import print_table
from repro.cluster import laptop_like
from repro.observability import snapshot_value
from repro.workflow import WorkflowParams, run_extreme_events_workflow


def run_mode(tmp_path, tc_model_path, sequential: bool):
    with laptop_like(scratch_root=str(tmp_path / f"seq{sequential}")) as cluster:
        params = WorkflowParams(
            years=[2030, 2031, 2032, 2033], n_days=15, n_lat=32, n_lon=48,
            n_workers=4, min_length_days=4, with_ml=True,
            tc_model_path=tc_model_path, tc_target_grid=(32, 48), seed=5,
            sequential=sequential,
            pace_seconds=0.03,     # ≈0.45 s of simulated production per year
        )
        return run_extreme_events_workflow(cluster, params)


def test_c1_overlap_beats_sequential(benchmark, tmp_path, tc_model_path,
                                     record_bench):
    sequential = run_mode(tmp_path, tc_model_path, sequential=True)
    overlapped = benchmark.pedantic(
        lambda: run_mode(tmp_path, tc_model_path, sequential=False),
        rounds=1, iterations=1,
    )

    # Headline numbers come from each run's exported metrics snapshot
    # (the telemetry registry delta), not ad-hoc summary fields.
    seq_span = snapshot_value(sequential["metrics"], "workflow_makespan_seconds")
    ovl_span = snapshot_value(overlapped["metrics"], "workflow_makespan_seconds")
    seq_overlap = snapshot_value(
        sequential["metrics"], "workflow_esm_analytics_overlap_seconds")
    ovl_overlap = snapshot_value(
        overlapped["metrics"], "workflow_esm_analytics_overlap_seconds")

    # The registry view must agree with the span-derived schedule.
    assert seq_span == sequential["schedule"]["makespan_s"]
    assert ovl_overlap == overlapped["schedule"]["esm_analytics_overlap_s"]

    # Shape: who wins — overlapped; by what mechanism — co-execution.
    assert ovl_span < seq_span
    assert ovl_overlap > 0.2
    assert seq_overlap < 0.05
    # Identical science either way.
    assert overlapped["years"][2030]["heat_waves"] == sequential["years"][2030]["heat_waves"]

    record_bench(
        "c1_overlap_makespan",
        makespan_s=ovl_span,
        overlap_s=ovl_overlap,
        speedup=seq_span / ovl_span,
        critical_path_s=overlapped.get("profile", {}).get(
            "critical_path_s", 0.0),
    )

    print_table(
        "C1: concurrent vs sequential execution (4 years, paced ESM)",
        ["mode", "makespan (s)", "ESM/analytics overlap (s)", "utilisation"],
        [
            ["sequential", f"{seq_span:.2f}", f"{seq_overlap:.2f}",
             f"{snapshot_value(sequential['metrics'], 'workflow_worker_utilisation'):.2f}"],
            ["overlapped", f"{ovl_span:.2f}", f"{ovl_overlap:.2f}",
             f"{snapshot_value(overlapped['metrics'], 'workflow_worker_utilisation'):.2f}"],
            ["speedup", f"{seq_span / ovl_span:.2f}x", "", ""],
        ],
    )
