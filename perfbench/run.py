"""Whole-wall workflow benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload listing1 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 1

For one workload the command

1. records the environment and a fixed NumPy calibration loop;
2. builds the workload's per-invocation asset from the seed (the
   pre-trained CNN for ``listing1``, the archived year for
   ``reanalysis``) in a process of its own;
3. for ``--seconds``, starts one fresh workload process after another
   (``workload.py``); each sets up, runs the timed body once and exits.
   End-to-end metrics are medians over these untraced processes;
4. checks every process's outputs after it has exited;
5. with ``--trace 1``, runs one more process with the layer wrappers of
   ``layertrace.py`` installed and derives the per-layer metrics.

It prints a table of every metric with its unit and sample count, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  It exits 1 when an output check
fails and 2 when run outside a repository checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import LAYERS  # noqa: E402  (benchmark-local modules)
from workload import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402

WORKLOADS = tuple(WORKLOAD_CLASSES)
#: Untraced workload processes per run, whatever --seconds says.
MIN_SAMPLES = 3
MAX_SAMPLES = 40
#: A workload process that runs longer than this is killed (the longest
#: ones, the CNN training and the traced service, take about 15 s).
CHILD_TIMEOUT_S = 60
#: BLAS pools pinned to one thread, so that they do not oversubscribe the
#: two COMPSs workers on a small host (cut the spread of listing1's run_s
#: between processes from about 10% to 3% on a 2-core host).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "run_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Figures of the untraced processes that are too noisy on a small shared
#: host to carry a bound (see README.md); reported with the per-layer set.
UNBOUNDED = {
    "turnaround_p50_s": "s", "turnaround_p95_s": "s", "cpu_s": "s",
    "setup.import_s": "s", "setup.cluster_s": "s", "setup.assets_load_s": "s",
}
PER_LAYER = {
    **UNBOUNDED,
    "asset.archive_build_s": "s", "asset.cnn_train_s": "s",
    "esm.days": "count", "esm.busy_s": "s", "esm.ms_per_day": "ms",
    "netcdf.write_mb": "MB", "netcdf.write_mb_per_s": "MB/s",
    "netcdf.read_mb": "MB", "netcdf.read_mb_per_s": "MB/s",
    "netcdf.read_vs_memcpy": "ratio",
    "fs.ops": "count", "fs.busy_s": "s", "fs.cache_hit_ratio": "ratio",
    "compss.tasks": "count", "compss.submit_us": "us", "compss.us_per_task": "us",
    "compss.wait_s": "s", "compss.vs_call": "ratio",
    "ophidia.ops": "count", "ophidia.import_s": "s", "ophidia.compute_s": "s",
    "ophidia.export_s": "s", "ophidia.bytes_read": "bytes",
    "ophidia.bytes_written": "bytes", "ophidia.chunks_pruned_ratio": "ratio",
    "ophidia.vs_numpy": "ratio",
    "ml.snapshots": "count", "ml.busy_s": "s", "ml.snapshots_per_s": "1/s",
    "analytics.track_busy_s": "s",
    "service.submit_ms": "ms", "service.launch_wait_p50_s": "s",
    "service.launch_wait_p95_s": "s", "service.db_busy_s": "s",
    "hpcwaas.invoke_ms": "ms", "lsf.pend_s": "s",
    "obs.spans": "count", "obs.spans_per_task": "ratio",
    "loadgen.lag_max_s": "s", "trace.overhead_ratio": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "host.calib_s": "s", "counts.unstable": "count",
}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def llc_bytes() -> int:
    """Size of the highest-level CPU cache (sysfs, else /proc/cpuinfo; 0 when unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("cache size"):
                    kb = int(line.split(":")[1].split()[0])
                    best = (0, kb * 1024)
                    break
    except (OSError, ValueError, IndexError):
        pass
    try:
        for index in os.listdir(base):
            path = os.path.join(base, index)
            with open(os.path.join(path, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(path, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
            size = int(text.rstrip("KM")) * scale
            best = max(best, (level, size))
    except (OSError, ValueError):
        pass
    return best[1]


def storage_kind(path: str) -> str:
    """``memory`` when *path* sits on tmpfs/ramfs, else ``disk``."""
    path = os.path.realpath(path)
    best, kind = "", "disk"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best = mount
                    kind = "memory" if fstype in ("tmpfs", "ramfs") else "disk"
    except OSError:
        pass
    return kind


def commit_of(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def calibrate() -> float:
    """Best of three runs of a fixed NumPy loop (reported, never used to rescale)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 1 << 20)
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            np.sqrt(a, out=b)
            np.multiply(b, 1.0001, out=b)
            np.copyto(a, b)
        best = min(best, time.perf_counter() - t0)
    return best


def environment(root: str, work: str) -> Dict:
    from importlib.metadata import PackageNotFoundError, version

    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = "absent"
    return {
        "nproc": os.cpu_count(), "llc_bytes": llc_bytes(), "versions": versions,
        "commit": commit_of(root),
        # Scratch, archive and runs.db all live under the work directory.
        "work_storage": storage_kind(work),
        "host.calib_s": calibrate(),
    }


# ---------------------------------------------------------------------------
# Workload processes
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, mode: str, child_dir: str, assets: str,
          env: Dict, root: str, llc: int) -> Dict:
    """Run one workload process; returns its marks, result and wall time."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--dir", child_dir, "--assets", assets,
           "--mode", mode, "--llc-bytes", str(llc)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    marks, result = {}, None
    try:
        for line in proc.stdout:
            if line.startswith("MARK "):
                _, event, stamp = line.split()
                marks[event] = float(stamp)
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_exit = time.monotonic()
    if code != 0 or result is None:
        raise RuntimeError(f"{workload} {mode} process exited with {code}")
    return {"t_spawn": t_spawn, "t_exit": t_exit, "marks": marks, "result": result}


def sample_times(sample: Dict) -> Dict[str, float]:
    m, t0 = sample["marks"], sample["t_spawn"]
    return {
        "setup_s": m["ready"] - t0,
        "setup.import_s": m["imported"] - t0,
        "setup.cluster_s": m["cluster"] - m["imported"],
        "setup.assets_load_s": m["ready"] - m["cluster"],
        "run_s": m["end"] - m["start"],
        "wall_s": sample["t_exit"] - t0,
        "cpu_s": sample["result"]["cpu_s"],
        "peak_rss_mb": sample["result"]["peak_rss_mb"],
    }


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unstable_counts(samples: List[Dict]) -> List[str]:
    """Counts that differ between identical untraced processes.

    Time totals (``*seconds*``) and per-process series (``pid=``) are
    not counts and are left out.
    """
    if len(samples) < 2:
        return []
    keys = set()
    for s in samples:
        keys.update(k for k in s["result"]["counts"]
                    if "seconds" not in k and "pid=" not in k)
    return sorted(k for k in keys
                  if len({s["result"]["counts"].get(k, 0) for s in samples}) > 1)


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced process
# ---------------------------------------------------------------------------

def layer_metrics(workload: str, traced: Dict, untraced: Dict[str, float],
                  samples: List[Dict], assets_info: Dict, env: Dict) -> Dict[str, float]:
    r = traced["result"]
    summary = r["layers"]
    layers = {k: v["self_s"] for k, v in summary["layers"].items()}
    walls = {k: v["wall_s"] for k, v in summary["layers"].items()}
    names = summary["names"]
    floors = r["floors"]
    run_traced = traced["marks"]["end"] - traced["marks"]["start"]

    def named(prefix: str, field: str) -> float:
        return sum(v[field] for k, v in names.items() if k.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {key: untraced[key] for key in UNBOUNDED}
    m["asset.archive_build_s"] = assets_info.get("asset.archive_build_s", 0.0)
    m["asset.cnn_train_s"] = assets_info.get("asset.cnn_train_s", 0.0)

    m["esm.days"] = named("CMCCCM3.run_year", "value")
    m["esm.busy_s"] = layers["esm"]
    m["esm.ms_per_day"] = ratio(1000 * layers["esm"], m["esm.days"])

    write_b = named("write_dataset", "value")
    read_b = named("read_dataset", "value") + named("read_variable", "value")
    m["netcdf.write_mb"] = write_b / 1e6
    m["netcdf.write_mb_per_s"] = ratio(write_b / 1e6, named("write_dataset", "self_s"))
    m["netcdf.read_mb"] = read_b / 1e6
    m["netcdf.read_mb_per_s"] = ratio(
        read_b / 1e6, named("read_dataset", "self_s") + named("read_variable", "self_s"))
    m["netcdf.read_vs_memcpy"] = ratio(m["netcdf.read_mb_per_s"], floors["memcpy_mb_per_s"])

    m["fs.ops"] = named("SharedFilesystem.", "calls")
    m["fs.busy_s"] = layers["fs"]
    hits, misses = r["fs"]["cache_hits"], r["fs"]["cache_misses"]
    m["fs.cache_hit_ratio"] = ratio(hits, hits + misses)

    tasks = named("COMPSsRuntime.submit", "calls")
    attempted = statistics.median(s["result"]["attempted"] for s in samples)
    m["compss.tasks"] = tasks
    m["compss.submit_us"] = ratio(1e6 * named("COMPSsRuntime.submit", "self_s"), tasks)
    m["compss.us_per_task"] = ratio(1e6 * untraced["run_s"], attempted) if tasks else 0.0
    m["compss.wait_s"] = layers["compss.wait"]
    m["compss.vs_call"] = ratio(m["compss.us_per_task"], 1e6 * floors.get("call_s", 0.0))

    imp, exp = named("Cube.importnc2", "self_s"), named("Cube.exportnc2", "self_s")
    oph = r["ophidia"]
    m["ophidia.ops"] = named("Cube.", "calls")
    m["ophidia.import_s"] = imp
    m["ophidia.compute_s"] = max(0.0, layers["ophidia"] - imp - exp)
    m["ophidia.export_s"] = exp
    m["ophidia.bytes_read"] = oph["bytes_read"]
    m["ophidia.bytes_written"] = oph["bytes_written"]
    m["ophidia.chunks_pruned_ratio"] = ratio(
        oph["chunks_pruned"], oph["chunks_pruned"] + oph["chunks_read"])
    m["ophidia.vs_numpy"] = ratio(summary["ophidia_compute_wall_s"],
                                  floors.get("numpy_ref_s", 0.0))

    m["ml.snapshots"] = named("localize_in_snapshot", "calls")
    m["ml.busy_s"] = layers["ml"]
    m["ml.snapshots_per_s"] = ratio(m["ml.snapshots"], layers["ml"])
    m["analytics.track_busy_s"] = layers["analytics"]

    submits = named("WorkflowService.submit", "calls")
    m["service.submit_ms"] = ratio(1000 * named("WorkflowService.submit", "total_s"), submits)
    waits = r.get("launch_waits", [])
    m["service.launch_wait_p50_s"] = percentile(waits, 0.5)
    m["service.launch_wait_p95_s"] = percentile(waits, 0.95)
    m["service.db_busy_s"] = named("ServiceDB.", "self_s") + named("RunHistory.", "self_s")
    m["hpcwaas.invoke_ms"] = ratio(1000 * named("HPCWaaSAPI.invoke", "total_s"),
                                   named("HPCWaaSAPI.invoke", "calls"))
    m["lsf.pend_s"] = percentile(r.get("lsf_pend", []), 0.5)

    m["obs.spans"] = r["program_spans"]
    m["obs.spans_per_task"] = ratio(r["program_spans"], r["attempted"])
    m["loadgen.lag_max_s"] = r.get("lag_max", 0.0)
    m["trace.overhead_ratio"] = ratio(run_traced, untraced["run_s"]) - 1.0
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layers[layer]
        m[f"share.{layer}"] = ratio(walls[layer], run_traced)
    m["host.calib_s"] = env["host.calib_s"]
    m["counts.unstable"] = len(unstable_counts(samples))
    return m


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str, out_dir: str) -> Dict:
    import checks

    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    assets = os.path.join(work, "assets")
    os.makedirs(assets, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_RUNS_DB", None)
    env.update(BLAS_THREADS)
    try:
        record = environment(root, work)
        llc = record["llc_bytes"]
        asset = spawn(workload, seed, "asset", work, assets, env, root, llc)
        assets_info = asset["result"]
        # Write the asset back now, so that its writeback does not run
        # under the first measured processes.
        os.sync()

        daily = None
        samples: List[Dict] = []
        errors: List[str] = []
        attempted = failed = 0
        deadline = time.monotonic() + seconds
        while len(samples) < MIN_SAMPLES or (
                time.monotonic() < deadline and len(samples) < MAX_SAMPLES):
            child_dir = os.path.join(work, f"p{len(samples)}")
            sample = spawn(workload, seed, "plain", child_dir, assets, env, root, llc)
            r = sample["result"]
            if workload == "reanalysis" and daily is None:
                daily = checks.DailyArrays(r)
            problems = checks.check(workload, r, daily)
            attempted += r["attempted"]
            failed += r["attempted"] if problems else r["failed"]
            errors += problems
            samples.append(sample)
            shutil.rmtree(child_dir, ignore_errors=True)
            if r.get("results"):
                shutil.rmtree(r["results"], ignore_errors=True)
            r.pop("outputs", None)
            r.pop("jobs", None)

        times = [sample_times(s) for s in samples]
        untraced = {k: statistics.median(t[k] for t in times) for k in times[0]}
        turnarounds = [t for s in samples for t in s["result"].pop("turnarounds")]
        untraced["turnaround_p50_s"] = percentile(turnarounds, 0.5)
        untraced["turnaround_p95_s"] = percentile(turnarounds, 0.95)

        layer = floors = traced_counts = None
        if trace:
            child_dir = os.path.join(work, "traced")
            traced = spawn(workload, seed, "traced", child_dir, assets, env, root, llc)
            r = traced["result"]
            problems = checks.check(workload, r, daily)
            attempted += r["attempted"]
            failed += r["attempted"] if problems else r["failed"]
            errors += problems
            layer = layer_metrics(workload, traced, untraced, samples, assets_info, record)
            floors, traced_counts = r["floors"], r["counts"]
            shutil.copy(os.path.join(child_dir, "layer_trace.json"),
                        os.path.join(out_dir, f"{workload}-layer_trace.json"))
            if r.get("results"):
                shutil.rmtree(r["results"], ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["blas_threads"] = BLAS_THREADS
    return {
        "workload": workload, "seed": seed, "samples": len(samples),
        "per_process": times, "turnaround_samples": len(turnarounds),
        "environment": record, "assets": assets_info,
        "untraced": untraced, "per_layer": layer, "floors": floors,
        "traced_counts": traced_counts,
        "end_to_end": {k: untraced[k] for k in END_TO_END},
        "ops_attempted": attempted, "ops_failed": failed,
        "ops_failed_ratio": failed / attempted if attempted else 1.0,
        "errors": errors, "unstable_counts": unstable_counts(samples),
    }


def print_report(rep: Dict) -> None:
    n = rep["samples"]
    env = rep["environment"]
    print(f"== {rep['workload']} (seed {rep['seed']}, {n} untraced processes)")
    print(f"   env: nproc={env['nproc']} llc={env['llc_bytes']}B "
          f"{' '.join(f'{k}={v}' for k, v in env['versions'].items())} "
          f"commit={env['commit']} scratch/archive/runs.db on {env['work_storage']}")
    for key, unit in {**END_TO_END, **UNBOUNDED}.items():
        how = (f"pooled over {rep['turnaround_samples']} ops"
               if key.startswith("turnaround") else f"median of {n}")
        print(f"   {key:<28} {rep['untraced'][key]:>14.6f} {unit:<6} {how}")
    print(f"   {'ops_failed_ratio':<28} {rep['ops_failed_ratio']:>14.6f} {'ratio':<6} "
          f"{rep['ops_failed']}/{rep['ops_attempted']} ops")
    if rep["per_layer"] is not None:
        for key, unit in PER_LAYER.items():
            if key not in UNBOUNDED:
                print(f"   {key:<28} {rep['per_layer'][key]:>14.6f} {unit:<6} traced")
    floors = rep["floors"]
    if floors is not None:
        print(f"   floors: np.copyto {floors['memcpy_mb_per_s']:.0f} MB/s over a "
              f"{floors['memcpy_working_set_bytes']} B working set "
              f"(last-level cache {floors['llc_bytes']} B)"
              + "".join(f", {k} {floors[k]:.6g} s" for k in ("numpy_ref_s", "call_s")
                        if k in floors))
    if rep["unstable_counts"]:
        print("   counts that did not repeat across identical processes "
              "(unusable for claims): " + ", ".join(rep["unstable_counts"]))
    for error in rep["errors"][:20]:
        print(f"   CHECK FAILED: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that kill the running
    # workload process and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under the current directory; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace), root, out_dir)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(rep, fh, indent=1)
        print_report(rep)
        reports.append(rep)

    key, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    prefix = len(names) > 1
    metrics = {
        (f"{rep['workload']}.{name}" if prefix else name): {"value": rep[key][name],
                                                            "unit": unit}
        for rep in reports for name, unit in units.items()
    }
    correct = all(not rep["errors"] for rep in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rep["ops_attempted"] for rep in reports),
        "failed": sum(rep["ops_failed"] for rep in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
