"""The distributed (multi-site) case study — the paper's §7 extension.

Runs the same science as
:func:`~repro.workflow.extreme_events.run_extreme_events_workflow`, but
splits the workflow across a :class:`~repro.hpcwaas.federation.Federation`:

* the ESM simulation executes on the ``simulation`` site (the large HPC
  system),
* each completed year is shipped to the ``analytics`` site (the
  data-oriented/Cloud system) by the federated Data Logistics Service,
* Ophidia analytics, ML inference and result storage run on the
  analytics site.

The per-year transfer is itself a workflow task, so data movement
overlaps the still-running simulation exactly like the analytics does.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.compss import COMPSs, compss_wait_on, task
from repro.compss.scheduler import policy_by_name
from repro.hpcwaas.federation import Federation
from repro.observability import (
    MetricsSnapshot,
    build_perfetto_trace,
    get_collector,
    get_registry,
    profile_spans,
    schedule_stats,
    span,
)
from repro.ophidia import Client, OphidiaServer
from repro.workflow import tasks
from repro.workflow.config import WorkflowParams
from repro.workflow.extreme_events import (
    ANALYTICS_TASKS,
    RunControlPlane,
    YearCollector,
    traced_attempts,
)


@task(returns=1, label="dls_transfer")
def transfer_year(
    federation: Federation,
    day_paths,
    year: int,
    staging_dir: str,
):
    """Ship one year of daily files simulation-site → analytics-site.

    *day_paths* are host paths on the simulation site's filesystem (as
    produced by the streaming monitor); returns analytics-site relative
    paths.
    """
    sim = federation.for_role("simulation")
    ana = federation.for_role("analytics")
    rel_paths = [os.path.relpath(p, sim.filesystem.root) for p in day_paths]
    return federation.dls.transfer_files(
        sim, ana, rel_paths, dest_dir=f"{staging_dir}/year_{year:04d}"
    )


def run_distributed_extreme_events(
    federation: Federation,
    params: "WorkflowParams | Dict[str, Any]",
) -> Dict[str, Any]:
    """Execute the case study across the federation; returns the summary.

    Requires ``simulation`` and ``analytics`` roles to be assigned.  The
    summary mirrors the single-site one, plus a ``federation`` section
    with per-transfer accounting.
    """
    p = params if isinstance(params, WorkflowParams) else WorkflowParams.from_dict(params)
    sim = federation.for_role("simulation")
    ana = federation.for_role("analytics")
    ana.filesystem.makedirs(p.results_dir)

    tc_model_path = None
    if p.with_ml:
        tc_model_path = tasks.ensure_tc_model(
            p.tc_model_path, p.tc_patch, ana.filesystem.path("models")
        )

    # The analytics site serves the repeated daily-file reads, so that
    # is where the block cache pays off (the WAN staging already
    # deduplicates transfers between the sites).
    ana.filesystem.configure_cache(p.fs_cache_bytes)
    spill_dir = p.ophidia_spill_dir
    if spill_dir is None and p.ophidia_memory_budget_bytes > 0:
        spill_dir = ana.filesystem.path("ophidia_spill")
    server = OphidiaServer(
        n_io_servers=p.ophidia_io_servers, n_cores=p.ophidia_cores,
        filesystem=ana.filesystem, lazy=p.ophidia_lazy,
        memory_budget_bytes=p.ophidia_memory_budget_bytes, spill_dir=spill_dir,
    )
    # Everything below the server construction runs inside its
    # try/finally: a failure anywhere on the setup path must still
    # drain the server's thread pool.
    collector = None
    control = None
    try:
        client = Client(server)
        # Attaching the simulation site's filesystem makes the year
        # monitor event-driven: each daily write wakes it directly.
        collector = YearCollector(
            sim.filesystem.path(p.output_dir), filesystem=sim.filesystem
        )
        summary: Dict[str, Any] = {
            "years": {},
            "params": {"years": p.years, "n_days": p.n_days},
        }
        cube_futures = []

        registry = get_registry()
        snap_before = registry.snapshot()
        control = RunControlPlane(
            "run-distributed", p,
            p.events_path or ana.filesystem.path(f"{p.results_dir}/events.jsonl"),
        )
        control.begin()
        dropped_before = get_collector().dropped
        with span(
            "workflow.run-distributed", layer="workflow",
            attrs={"years": len(p.years), "n_days": p.n_days,
                   "sites": len(federation.sites)},
        ) as root, COMPSs(
            n_workers=p.n_workers, scheduler=policy_by_name(p.scheduler),
            worker_cache_bytes=p.worker_cache_bytes,
        ) as runtime:
            # A workflow failure closes the collector, waking a blocked
            # monitor task immediately (no timed abort polls).
            runtime.add_failure_listener(collector.close)
            summary["trace_id"] = root.context.trace_id
            truth_f = tasks.esm_simulation(
                sim.filesystem, list(p.years), p.n_days, p.n_lat, p.n_lon,
                p.scenario, p.seed, p.output_dir, p.pace_seconds,
            )
            # The baseline climatology is computed where it is consumed.
            baseline_path_f = tasks.write_baseline(
                ana.filesystem, p.n_lat, p.n_lon, p.scenario, p.seed, p.n_days,
            )
            shared_baseline = tasks.load_baseline_cubes(
                client, baseline_path_f, p.nfrag, p.n_days
            )
            base_tmax_f, base_tmin_f = shared_baseline

            per_year: Dict[int, Dict[str, Any]] = {}
            for year in p.years:
                days_f = tasks.monitor_year(collector, year, p.n_days)
                staged_f = transfer_year(federation, days_f, year, "staged")
                tmax_f, tmin_f = tasks.load_year_cubes(client, staged_f, p.nfrag)
                futures: Dict[str, Any] = {}
                for kind, data_f, base_f in (
                    ("heat", tmax_f, base_tmax_f),
                    ("cold", tmin_f, base_tmin_f),
                ):
                    prefix = "hw" if kind == "heat" else "cw"
                    dur_f = tasks.compute_qualifying_durations(
                        client, data_f, base_f, kind,
                        p.threshold_k, p.min_length_days,
                    )
                    dmax_f = tasks.index_duration_max(
                        client, dur_f, f"{prefix}_duration_max_{year:04d}",
                        p.results_dir,
                    )
                    num_f = tasks.index_duration_number(
                        client, dur_f, f"{prefix}_number_{year:04d}", p.results_dir
                    )
                    freq_f = tasks.index_frequency(
                        client, dur_f, p.n_days,
                        f"{prefix}_frequency_{year:04d}", p.results_dir,
                    )
                    futures[f"{prefix}_stats"] = tasks.validate_and_store(
                        ana.filesystem, dmax_f, num_f, freq_f, kind, year,
                        p.n_days, p.min_length_days, p.results_dir,
                    )
                    cube_futures.extend([dur_f, dmax_f, num_f, freq_f])
                if p.with_ml:
                    prep_f = tasks.tc_preprocess(
                        ana.filesystem, staged_f, p.tc_target_grid
                    )
                    det_f = tasks.tc_inference(tc_model_path, prep_f)
                    futures["tc_ml"] = det_f
                    tasks.tc_georeference(ana.filesystem, det_f, year, p.results_dir)
                futures["tc_tracks"] = tasks.tc_deterministic_tracking(
                    ana.filesystem, staged_f, year, p.results_dir
                )
                cube_futures.extend([tmax_f, tmin_f])
                per_year[year] = futures

            truth = compss_wait_on(truth_f)
            for year, futures in per_year.items():
                year_summary: Dict[str, Any] = {
                    "heat_waves": compss_wait_on(futures["hw_stats"]),
                    "cold_waves": compss_wait_on(futures["cw_stats"]),
                }
                tracking = compss_wait_on(futures["tc_tracks"])
                year_summary["tc_deterministic"] = {
                    "n_tracks": len(tracking["tracks"]),
                    "skill": tasks.score_against_truth(
                        tracking["tracks"],
                        truth[year]["tropical_cyclones"], p.n_days,
                    ),
                }
                if p.with_ml:
                    year_summary["tc_ml"] = {
                        "n_detections": len(compss_wait_on(futures["tc_ml"])),
                    }
                summary["years"][year] = year_summary

            for cube in compss_wait_on(cube_futures):
                cube.delete()
            for cube in compss_wait_on(list(shared_baseline)):
                cube.delete()

            summary["task_graph"] = {
                "n_tasks": len(runtime.graph),
                "n_edges": len(runtime.graph.edges()),
                "by_function": dict(runtime.graph.counts_by_function()),
            }
            attempts = traced_attempts(dropped_before)
            summary["schedule"] = {} if attempts is None else schedule_stats(
                attempts, p.n_workers, set(ANALYTICS_TASKS) | {"transfer_year"}
            )
            summary["federation"] = {
                "sites": federation.sites,
                "roles": federation.roles,
                "transfers": federation.dls.total_transfers,
                "bytes_moved": federation.dls.total_bytes,
                "transfer_seconds": federation.dls.total_seconds,
                "sim_site_writes": sim.filesystem.stats.writes,
                "ana_site_reads": ana.filesystem.stats.reads,
            }
    except BaseException as exc:
        if control is not None:
            control.fail(exc)
        raise
    finally:
        if collector is not None:
            collector.close()
        server.shutdown()

    # Root span closed with the ``with`` block above: export the run's
    # telemetry to the analytics site, next to the science results.
    summary["run_id"] = control.run_id
    trace_spans = get_collector().for_trace(summary["trace_id"])
    try:
        profile = profile_spans(
            trace_spans,
            esm_functions=("esm_simulation",),
            analytics_functions=set(ANALYTICS_TASKS) | {"transfer_year"},
        ).to_json()
    except Exception:  # noqa: BLE001 - profiling must never fail the run
        profile = None
    if profile is not None:
        summary["profile"] = profile
        registry.gauge(
            "workflow_critical_path_seconds",
            "Summed critical-path duration of the last run",
        ).set(profile["critical_path_s"])
    control.stop_monitor()
    slo_section = control.slo_section()
    if slo_section is not None:
        summary["slo"] = slo_section
    # Final driver resource sample before the delta, mirroring the
    # single-site driver.
    try:
        from repro.observability.resources import sample_process_resources

        sample_process_resources()
    except Exception:  # noqa: BLE001
        pass
    summary["metrics"] = registry.snapshot().delta(snap_before).to_json()
    dropped_spans = get_collector().dropped
    if dropped_spans:
        summary["spans_dropped"] = dropped_spans
    ana.filesystem.write_bytes(
        f"{p.results_dir}/trace.json",
        build_perfetto_trace(trace_spans, dropped=dropped_spans).encode(),
    )
    if profile is not None:
        ana.filesystem.write_bytes(
            f"{p.results_dir}/profile.json",
            json.dumps(profile, indent=1).encode(),
        )
    ana.filesystem.write_bytes(
        f"{p.results_dir}/metrics.json",
        json.dumps(summary["metrics"], indent=1).encode(),
    )
    ana.filesystem.write_bytes(
        f"{p.results_dir}/metrics.prom",
        MetricsSnapshot(summary["metrics"]).to_prometheus().encode(),
    )
    ana.filesystem.write_bytes(
        f"{p.results_dir}/run_summary.json",
        json.dumps(summary, indent=1, default=str).encode(),
    )
    control.finish(summary["trace_id"], summary["metrics"], profile)
    return summary
