"""Output checks, run by the parent after a workload process has exited.

The checks read files with their own RNC decoder (the format is a
magic, a JSON header and raw little-endian payloads), so a fault in
``repro.netcdf`` cannot hide itself.  Index maps are compared against the
NumPy reference ``compute_heatwave_indices`` / ``compute_coldwave_indices``
on the same daily arrays: ``duration_max`` and ``number`` exactly,
``frequency`` within 1e-6.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

FREQUENCY_TOL = 1e-6


def read_rnc(path: str, names=None) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """(header, {name: array}) of an RNC file, without ``repro.netcdf``."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"RNC1":
            raise ValueError(f"{path}: not an RNC file")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len))
        start = 12 + header_len
        arrays = {}
        for name, meta in header["variables"].items():
            if names is not None and name not in names:
                continue
            fh.seek(start + meta["offset"])
            raw = fh.read(meta["nbytes"])
            arrays[name] = np.frombuffer(raw, dtype=np.dtype(meta["dtype"])).reshape(
                meta["shape"])
    return header, arrays


def read_measure(path: str) -> np.ndarray:
    header, arrays = read_rnc(path)
    return np.squeeze(arrays[header["attrs"]["measure"]])


class DailyArrays:
    """Daily TMAX/TMIN and baseline arrays a workload's indices derive from."""

    VARS = {"heat": ("TREFHTMX", "TMAX_BASELINE"), "cold": ("TREFHTMN", "TMIN_BASELINE")}

    def __init__(self, result: Dict) -> None:
        self.root = result["scratch"]
        self.n_days = result["n_days"]
        self._cache: Dict = {}

    def for_output(self, out: Dict) -> Tuple[np.ndarray, np.ndarray]:
        key = (out["year"], out["kind"])
        if key not in self._cache:
            var, base_var = self.VARS[out["kind"]]
            days = []
            for doy in range(1, self.n_days + 1):
                path = os.path.join(self.root, "esm_output",
                                    f"cmcc_cm3_{out['year']:04d}_{doy:03d}.rnc")
                day = read_rnc(path, {var})[1][var]
                days.append(day.max(axis=0) if out["kind"] == "heat" else day.min(axis=0))
            base = read_rnc(os.path.join(self.root, "baselines", "climatology.rnc"),
                            {base_var})[1][base_var][: self.n_days]
            self._cache[key] = (np.stack(days), base)
        return self._cache[key]


def check_indices(result: Dict, daily: DailyArrays = None) -> List[str]:
    """Every exported hw_*/cw_* map against the NumPy reference."""
    from repro.analytics import compute_coldwave_indices, compute_heatwave_indices

    daily = daily or DailyArrays(result)
    errors = []
    for out in result["outputs"]:
        data, base = daily.for_output(out)
        fn = compute_heatwave_indices if out["kind"] == "heat" else compute_coldwave_indices
        ref = fn(data, base, threshold_k=out["threshold_k"],
                 min_length_days=out["min_length_days"])
        for index, path in out["files"].items():
            label = os.path.basename(path)
            try:
                got = read_measure(path)
            except (OSError, KeyError, ValueError) as exc:
                errors.append(f"{label}: unreadable ({exc})")
                continue
            want = getattr(ref, index)
            if got.shape != want.shape:
                errors.append(f"{label}: shape {got.shape} != {want.shape}")
            elif index == "frequency":
                if not np.allclose(got, want, rtol=0, atol=FREQUENCY_TOL):
                    errors.append(f"{label}: max |diff| {np.abs(got - want).max():.3g}")
            elif not np.array_equal(got.astype(np.int64), want.astype(np.int64)):
                errors.append(f"{label}: {int((got != want).sum())} cells differ")
    return errors


def check_task_storm(result: Dict) -> List[str]:
    from workload import storm_closed_form

    want = storm_closed_form(result["x0"], result["supersteps"], result["width"])
    if result["value"] != want:
        return [f"final join {result['value']} != closed form {want}"]
    return []


def check_service(result: Dict) -> List[str]:
    """Every job COMPLETED; every analytics result equals the NumPy reference."""
    from repro.analytics import compute_heatwave_indices

    errors = []
    for job in result["jobs"]:
        params, got = job["params"], job["result"]
        if job["state"] != "COMPLETED":
            errors.append(f"{job['workflow']} seed {params['seed']}: {job['state']}")
            continue
        if job["workflow"] != "heatwave-analytics":
            if got.get("days_written") != params["n_days"]:
                errors.append(f"ESM member seed {params['seed']}: {got}")
            continue
        rng = np.random.default_rng(params["seed"])
        shape = (params["n_days"], params["n_lat"], params["n_lon"])
        baseline = 290.0 + 5.0 * rng.standard_normal(shape)
        tmax = baseline + rng.gamma(2.0, 2.0, size=shape)
        ref = compute_heatwave_indices(tmax, baseline,
                                       min_length_days=params["min_length_days"])
        want = {
            "max_wave_number": float(ref.number.max()),
            "max_wave_duration_days": float(ref.duration_max.max()),
            "mean_wave_frequency": float(ref.frequency.mean()),
        }
        for key, value in want.items():
            if not abs(got.get(key, float("nan")) - value) <= FREQUENCY_TOL:
                errors.append(f"analytics seed {params['seed']}: {key} "
                              f"{got.get(key)} != {value}")
    return errors


def check(workload: str, result: Dict, daily: DailyArrays = None) -> List[str]:
    """Problems found in one workload process's outputs (empty when correct)."""
    if workload in ("listing1", "reanalysis"):
        return check_indices(result, daily)
    if workload == "task-storm":
        return check_task_storm(result)
    return check_service(result)
