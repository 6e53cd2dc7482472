"""One workload process: set up, run the timed body once, report.

Usage (started by ``run.py``, one fresh interpreter per sample)::

    python3 perfbench/workload.py --workload NAME --seed N --dir CHILD_DIR \
        --assets ASSET_DIR --mode plain|traced|asset

The process talks to its parent on stdout, one line per event, all times
on the system-wide monotonic clock the parent also reads:

    MARK imported <t>    the workload's imports are done
    MARK cluster <t>     the simulated cluster is up
    MARK ready <t>       the workload is ready (end of set-up)
    MARK start <t>       the timed body starts
    MARK end <t>         the timed body (including pool teardown) ends
    RESULT <json>        outputs for the parent's checks, op counts, CPU time...

``--mode asset`` instead builds the per-invocation asset (trained CNN or
archived year) into ASSET_DIR.  ``--mode traced`` installs the
benchmark's layer wrappers around the body and adds per-layer figures
and the floors to RESULT.  Output checks run in the parent, after this
process has exited, so they are outside every clock.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import sizes  # noqa: E402  (benchmark-local module)


def mark(event: str) -> None:
    print(f"MARK {event} {time.monotonic():.9f}", flush=True)


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark.

    ``VmHWM`` belongs to the process image, so unlike ``ru_maxrss`` it
    does not carry over the parent's peak across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# The program's own telemetry, read from its public surfaces
# ---------------------------------------------------------------------------

def counter_values(delta_json: dict) -> dict:
    """Flatten the counter families of a registry delta to name{labels}."""
    out = {}
    for name, family in delta_json.items():
        if family.get("kind") != "counter":
            continue
        for entry in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            out[f"{name}{{{labels}}}"] = entry.get("value", 0)
    return out


def task_turnarounds(spans) -> list:
    """Ready-to-done time of each COMPSs task, from the program's spans.

    The runtime records a ``queue`` span (ready → dispatch) and a
    ``compute`` span (dispatch → done) per task attempt.
    """
    ready, done = {}, {}
    for s in spans:
        category = s.attrs.get("category")
        task_id = s.attrs.get("task_id")
        if task_id is None:
            continue
        if category == "queue":
            ready[task_id] = min(s.start, ready.get(task_id, s.start))
        elif category == "compute" and s.layer == "compss":
            done[task_id] = max(s.end, done.get(task_id, s.end))
    return [done[t] - ready[t] for t in ready if t in done]


def compss_ops(delta) -> tuple:
    """(attempted, failed) COMPSs tasks in a registry delta."""
    attempted = int(delta.value("compss_tasks_submitted_total"))
    completed = int(delta.value("compss_tasks_total", state="COMPLETED"))
    return attempted, max(0, attempted - completed)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Listing1:
    """The paper's Listing-1 pipeline through ``run_extreme_events_workflow``."""

    size = sizes.LISTING1

    @staticmethod
    def build_asset(seed: int, asset_dir: str) -> dict:
        from repro.ml.tc_localizer import TCLocalizer, make_patch_dataset

        t0 = time.perf_counter()
        model = TCLocalizer(patch=16, seed=seed)
        data = make_patch_dataset(n_samples=sizes.CNN["samples"], patch=16,
                                  seed=seed + 1)
        # The recipe of tasks.ensure_tc_model, seeded from the workload.
        for epochs, lr, shift in ((sizes.CNN["epochs"][0], 2e-3, 2),
                                  (sizes.CNN["epochs"][1], 1e-3, 3)):
            model.fit(data, epochs=epochs, batch_size=64, lr=lr, seed=seed + shift)
        model.save(os.path.join(asset_dir, "tc_localizer.pkl"))
        return {"asset.cnn_train_s": time.perf_counter() - t0}

    def setup(self, seed, child_dir, asset_dir):
        from repro.cluster import laptop_like
        from repro.ml.tc_localizer import TCLocalizer
        from repro.workflow.config import WorkflowParams
        from repro.workflow.extreme_events import run_extreme_events_workflow

        self.run = run_extreme_events_workflow
        mark("imported")
        self.cluster = laptop_like(scratch_root=os.path.join(child_dir, "scratch"))
        mark("cluster")
        model_path = os.path.join(asset_dir, "tc_localizer.pkl")
        TCLocalizer.load(model_path)
        s = self.size
        self.params = WorkflowParams(
            years=list(range(2030, 2030 + s["years"])), n_days=s["n_days"],
            n_lat=s["n_lat"], n_lon=s["n_lon"], seed=seed, n_workers=2,
            with_ml=True, tc_model_path=model_path,
        )
        self.fs = self.cluster.filesystem

    def body(self):
        self.run(self.cluster, self.params)

    def teardown(self):
        self.cluster.shutdown()

    def report(self):
        p = self.params
        return {
            "scratch": self.fs.root, "n_days": p.n_days,
            "outputs": [
                {"kind": kind, "threshold_k": p.threshold_k,
                 "min_length_days": p.min_length_days, "year": year, "files": {
                     index: self.fs.path(
                         f"{p.results_dir}/{prefix}_{index}_{year:04d}.rnc")
                     for index in ("duration_max", "number", "frequency")}}
                for year in p.years
                for kind, prefix in (("heat", "hw"), ("cold", "cw"))
            ],
        }


class Reanalysis:
    """Heat/cold indices at eight thresholds over one archived year."""

    size = sizes.REANALYSIS

    @staticmethod
    def build_asset(seed: int, asset_dir: str) -> dict:
        from repro.cluster.filesystem import SharedFilesystem
        from repro.esm import CMCCCM3, ModelConfig

        s = sizes.REANALYSIS
        t0 = time.perf_counter()
        fs = SharedFilesystem(os.path.join(asset_dir, "archive"))
        model = CMCCCM3(ModelConfig(n_lat=s["n_lat"], n_lon=s["n_lon"], seed=seed))
        model.run_year(2030, fs, output_dir="esm_output", n_days=s["n_days"])
        model.write_baseline(fs, n_days=s["n_days"])
        return {"asset.archive_build_s": time.perf_counter() - t0}

    def setup(self, seed, child_dir, asset_dir):
        from repro.cluster import laptop_like
        from repro.compss import COMPSs, compss_wait_on
        from repro.observability import span
        from repro.ophidia import Client, OphidiaServer
        from repro.workflow import tasks

        self.mods = (COMPSs, compss_wait_on, span, Client, OphidiaServer, tasks)
        mark("imported")
        self.cluster = laptop_like(scratch_root=os.path.join(asset_dir, "archive"))
        mark("cluster")
        fs = self.fs = self.cluster.filesystem
        self.days = sorted(fs.glob("esm_output", "cmcc_cm3_2030_*.rnc"))
        self.baseline = "baselines/climatology.rnc"
        fs.read_header(self.baseline)
        if len(self.days) != self.size["n_days"]:
            raise RuntimeError(f"archive holds {len(self.days)} days")
        self.results = f"results/{os.path.basename(child_dir)}"

    def body(self):
        COMPSs, compss_wait_on, span, Client, OphidiaServer, tasks = self.mods
        s, fs = self.size, self.fs
        fs.configure_cache(64 * 1024 * 1024)
        server = self.server = OphidiaServer(n_io_servers=2, n_cores=2, filesystem=fs)
        client = Client(server)
        try:
            with span("perfbench.reanalysis", layer="workflow"):
                with COMPSs(n_workers=2, worker_cache_bytes=256 * 1024 * 1024):
                    tmax, tmin = tasks.load_year_cubes(client, self.days, s["nfrag"])
                    btmax, btmin = tasks.load_baseline_cubes(
                        client, self.baseline, s["nfrag"], s["n_days"])
                    cubes = [tmax, tmin, btmax, btmin]
                    for threshold in s["thresholds"]:
                        for kind, data, base in (("heat", tmax, btmax),
                                                 ("cold", tmin, btmin)):
                            name = f"{'hw' if kind == 'heat' else 'cw'}_%s_t{threshold}"
                            dur = tasks.compute_qualifying_durations(
                                client, data, base, kind, float(threshold),
                                s["min_length_days"])
                            cubes += [
                                dur,
                                tasks.index_duration_max(
                                    client, dur, name % "duration_max", self.results),
                                tasks.index_duration_number(
                                    client, dur, name % "number", self.results),
                                tasks.index_frequency(
                                    client, dur, s["n_days"], name % "frequency",
                                    self.results),
                            ]
                    for cube in compss_wait_on(cubes):
                        cube.delete()
        finally:
            server.shutdown()

    def teardown(self):
        self.cluster.shutdown()

    def report(self):
        s = self.size
        return {
            "scratch": self.fs.root, "n_days": s["n_days"],
            "results": self.fs.path(self.results),
            "storage": vars(self.server.storage_stats()),
            "outputs": [
                {"kind": kind, "threshold_k": float(t),
                 "min_length_days": s["min_length_days"], "year": 2030, "files": {
                    index: self.fs.path(f"{self.results}/{prefix}_{index}_t{t}.rnc")
                    for index in ("duration_max", "number", "frequency")}}
                for t in s["thresholds"]
                for kind, prefix in (("heat", "hw"), ("cold", "cw"))
            ],
        }


MOD = 2 ** 31 - 1


def storm_closed_form(x0: int, supersteps: int, width: int) -> int:
    """x_{k+1} = (width * x_k + sum(range(width)) + 1) mod MOD, solved."""
    a, c = width, width * (width - 1) // 2 + 1
    # x_n = a^n x0 + c (a^n - 1) / (a - 1), division done exactly mod (a-1)·MOD.
    an = pow(a, supersteps, MOD)
    geometric = (pow(a, supersteps, (a - 1) * MOD) - 1) // (a - 1)
    return (an * x0 + c * geometric) % MOD


def storm_start(seed):
    return seed % MOD


def storm_leaf(x, j):
    return x + j


def storm_join(a, b, c, d, e, f, g, h):
    return (a + b + c + d + e + f + g + h + 1) % MOD


class TaskStorm:
    """Trivial ``@task``s: supersteps of an 8-wide fan-out and join."""

    size = sizes.TASK_STORM

    def setup(self, seed, child_dir, asset_dir):
        from repro.cluster import laptop_like
        from repro.compss import COMPSs, compss_wait_on, task
        from repro.observability import span

        self.COMPSs, self.wait_on, self.span = COMPSs, compss_wait_on, span
        self.start = task(returns=1)(storm_start)
        self.leaf = task(returns=1)(storm_leaf)
        self.join = task(returns=1)(storm_join)
        mark("imported")
        self.cluster = laptop_like(scratch_root=os.path.join(child_dir, "scratch"))
        mark("cluster")
        self.seed = seed

    def body(self):
        width, steps = self.size["width"], self.size["supersteps"]
        with self.span("perfbench.task-storm", layer="workflow"):
            with self.COMPSs(n_workers=2):
                x = self.start(self.seed)
                for _ in range(steps):
                    x = self.join(*[self.leaf(x, j) for j in range(width)])
                self.value = self.wait_on(x)

    def teardown(self):
        self.cluster.shutdown()

    def report(self):
        return {"value": self.value, "x0": self.seed % MOD, **self.size}

    def call_floor(self) -> float:
        """Seconds per plain Python call of the same task bodies."""
        width, steps = self.size["width"], self.size["supersteps"]
        t0 = time.perf_counter()
        x = storm_start(self.seed)
        for _ in range(steps):
            x = storm_join(*[storm_leaf(x, j) for j in range(width)])
        return (time.perf_counter() - t0) / (1 + steps * (width + 1))


class ServiceOpenLoop:
    """Independent tenants submitting to the workflow service at a fixed rate."""

    size = sizes.SERVICE
    TENANTS = ("atmos", "ocean", "land", "ice")

    def setup(self, seed, child_dir, asset_dir):
        from repro.cluster import laptop_like
        from repro.service import (
            ANALYTICS_WORKFLOW, ESM_WORKFLOW, ServiceDB, WorkflowService,
            build_demo_services,
        )

        self.ANALYTICS, self.ESM = ANALYTICS_WORKFLOW, ESM_WORKFLOW
        mark("imported")
        self.cluster = laptop_like(scratch_root=os.path.join(child_dir, "scratch"))
        mark("cluster")
        self.db = ServiceDB(os.path.join(child_dir, "runs.db"))
        for tenant in self.TENANTS:
            self.db.add_tenant(tenant)
        _a4c, api = build_demo_services(self.cluster)
        self.service = WorkflowService(self.db, api, self.cluster, site="bench").start()
        self.seed = seed

    def job(self, i: int) -> tuple:
        tenant = self.TENANTS[i % len(self.TENANTS)]
        if i % self.size["esm_every"] == 0:
            return tenant, self.ESM, 2, dict(self.size["esm"], seed=self.seed + i)
        return tenant, self.ANALYTICS, 1, dict(
            self.size["analytics"], seed=self.seed * 1000 + i)

    def warm_up(self):
        for i in range(self.size["warmup"]):
            tenant, workflow, cores, params = self.job(i + 1)
            self.service.submit(tenant, workflow, cores=cores, **params)
        self.service.drain(timeout=120)

    def body(self):
        n, rate = self.size["jobs"], self.size["rate"]
        self.submitted, lags = [], []
        t0, t0_wall = time.monotonic(), time.time()
        for i in range(n):
            due = t0 + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.monotonic() - due)
            tenant, workflow, cores, params = self.job(i)
            job = self.service.submit(tenant, workflow, cores=cores, **params)
            self.submitted.append((job.job_id, tenant, workflow, params,
                                   t0_wall + i / rate))
        self.service.drain(timeout=120)
        self.lag_max = max(lags)

    def teardown(self):
        self.service.stop()
        self.cluster.shutdown()

    def report(self):
        jobs, turnarounds, launch_waits = [], [], []
        for job_id, tenant, workflow, params, due_wall in self.submitted:
            row = self.db.get_job(job_id)
            result = None
            if row.state.value == "COMPLETED":
                result = self.service.result(tenant, job_id)
                result = {k: v for k, v in result.items() if k != "run_id"}
                turnarounds.append(row.finished_at - due_wall)
                launch_waits.append(row.started_at - row.submitted_at)
            jobs.append({"workflow": workflow, "params": params,
                         "state": row.state.value, "result": result})
        return {"jobs": jobs, "turnarounds": turnarounds,
                "launch_waits": launch_waits, "lag_max": self.lag_max}


WORKLOADS = {
    "listing1": Listing1,
    "reanalysis": Reanalysis,
    "task-storm": TaskStorm,
    "service-openloop": ServiceOpenLoop,
}


# ---------------------------------------------------------------------------
# Floors measured in the workload's own process (traced mode)
# ---------------------------------------------------------------------------

def memcpy_floor(llc_bytes: int) -> dict:
    """``np.copyto`` bandwidth over a working set of 4x the last-level cache.

    One buffer, copied from its first half into its second.  The working
    set shrinks (and the record says so) when the host lacks the memory.
    """
    import numpy as np

    want = max(4 * llc_bytes, 64 * 1024 * 1024)
    available = want
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    nbytes = min(want, available // 4) // 16 * 16
    buf = np.ones(nbytes // 8)
    half = buf.size // 2
    src, dst = buf[:half], buf[half:]
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {"memcpy_mb_per_s": src.nbytes / 1e6 / best,
            "memcpy_working_set_bytes": nbytes, "llc_bytes": llc_bytes}


def numpy_reference_floor(outputs, daily) -> float:
    """Wall time of the NumPy reference for the same index chains."""
    from repro.analytics import compute_coldwave_indices, compute_heatwave_indices

    t0 = time.perf_counter()
    for out in outputs:
        data, base = daily(out)
        fn = compute_heatwave_indices if out["kind"] == "heat" else compute_coldwave_indices
        fn(data, base, threshold_k=out["threshold_k"], min_length_days=out["min_length_days"])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--assets", required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "asset"), default="plain")
    parser.add_argument("--llc-bytes", type=int, default=0)
    args = parser.parse_args()
    cls = WORKLOADS[args.workload]

    if args.mode == "asset":
        timings = cls.build_asset(args.seed, args.assets) if hasattr(cls, "build_asset") else {}
        print("RESULT " + json.dumps(timings), flush=True)
        return 0

    os.makedirs(args.dir, exist_ok=True)
    wl = cls()
    wl.setup(args.seed, args.dir, args.assets)
    mark("ready")

    from repro.observability import get_collector, get_registry

    if hasattr(wl, "warm_up"):
        wl.warm_up()
    tracer = None
    if args.mode == "traced":
        from layertrace import LayerTracer

        tracer = LayerTracer().install()
    registry, collector = get_registry(), get_collector()
    before = registry.snapshot()
    fs_before = wl.cluster.filesystem.stats.snapshot()
    spans_before = len(collector)
    cpu_before = cpu_seconds()
    mark("start")
    try:
        wl.body()
    finally:
        mark("end")
        cpu_after = cpu_seconds()
        if tracer is not None:
            tracer.remove()
    delta = registry.snapshot().delta(before)
    fs_delta = wl.cluster.filesystem.stats.delta(fs_before)
    spans = collector.spans()[spans_before:]
    wl.teardown()

    result = wl.report()
    if args.workload == "service-openloop":
        attempted = len(result["jobs"])
        failed = sum(job["state"] != "COMPLETED" for job in result["jobs"])
    else:
        attempted, failed = compss_ops(delta)
        result["turnarounds"] = task_turnarounds(spans)
    counts = counter_values(delta.to_json())
    counts.update({f"fs.{k}": v for k, v in vars(fs_delta).items()})
    counts.update({f"ophidia.storage.{k}": v
                   for k, v in result.pop("storage", {}).items()})
    counts["collector.spans"] = len(spans)
    result.update({
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted, "failed": failed, "counts": counts,
        "program_spans": len(spans),
        "fs": {"cache_hits": fs_delta.cache_hits, "cache_misses": fs_delta.cache_misses},
        "ophidia": {
            "bytes_read": delta.value("ophidia_fragment_bytes_read_total"),
            "bytes_written": delta.value("ophidia_fragment_bytes_written_total"),
            "chunks_read": delta.value("ophidia_chunks_read_total"),
            "chunks_pruned": delta.value("ophidia_chunks_pruned_total"),
        },
    })

    if tracer is not None:
        result["layers"] = tracer.summary()
        lsf_jobs = tracer.objects.get("lsf_jobs", [])
        result["lsf_pend"] = [j.start_time - j.submit_time for j in lsf_jobs
                              if j.start_time is not None]
        tracer.dump(os.path.join(args.dir, "layer_trace.json"))
        floors = memcpy_floor(args.llc_bytes)
        if isinstance(wl, TaskStorm):
            floors["call_s"] = wl.call_floor()
        if "outputs" in result:
            import checks

            floors["numpy_ref_s"] = numpy_reference_floor(
                result["outputs"], checks.DailyArrays(result).for_output)
        result["floors"] = floors

    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
