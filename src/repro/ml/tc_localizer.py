"""The TC localization model and its data pipeline.

Mirrors the paper's §5.4: "identifying the presence of TC given a set of
input climate variables ... and localizing its center (or 'eye') in
terms of its geographical coordinates".  A small CNN consumes
multichannel patches (temperature, sea-level pressure, wind speed,
vorticity) and outputs a presence logit plus a normalised in-patch
centre; :func:`localize_in_snapshot` runs the full tile → scale → infer
→ geo-reference chain over a global snapshot.

Training data is synthetic: idealised warm-core vortices composited on
correlated background noise, with randomised intensity, size and centre
position — the stand-in for the paper's "pre-trained on historical data".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.tiling import (
    patch_center_latlon,
    scale_features,
    scale_patches_individually,
    tile_patches,
)
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.losses import localization_loss
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.ml.training import TrainingHistory, train
from repro.ndfilter import gaussian_filter

#: The channel order the localizer is trained on.
CHANNELS = ("T850", "PSL", "WSPDSRFAV", "VORT850")


@dataclass
class TCPatchDataset:
    """Training patches with labels."""

    patches: np.ndarray        # (n, C, P, P) raw (unscaled)
    presence: np.ndarray       # (n,)
    centers: np.ndarray        # (n, 2) normalised [0,1] (row, col); 0 where absent
    stats: Optional[Dict[str, np.ndarray]] = None


#: Gaussian correlation scale per channel (T850, PSL, WSPD, VORT).
_BACKGROUND_SCALES = (2.0, 2.5, 2.0, 1.0)


def _background(rng: np.random.Generator, patch: int) -> np.ndarray:
    """Correlated background noise for the four channels."""
    fields = []
    for scale in _BACKGROUND_SCALES:
        white = rng.standard_normal((patch, patch))
        fields.append(gaussian_filter(white, scale, "wrap"))
    t850 = 270.0 + 6.0 * fields[0]
    psl = 1013.0 + 4.0 * fields[1]
    wspd = np.abs(6.0 + 3.0 * fields[2])
    vort = 1.2e-5 * fields[3]
    return np.stack([t850, psl, wspd, vort])


def _background_batch(whites: np.ndarray) -> np.ndarray:
    """Batched :func:`_background` from pre-drawn whites ``(n, C, P, P)``.

    ``sigma=(0, s, s)`` filters every sample in one separable pass
    without smoothing across the batch axis, which is bitwise identical
    to filtering each ``(P, P)`` field on its own.
    """
    fields = [
        gaussian_filter(whites[:, c], (0.0, s, s), "wrap")
        for c, s in enumerate(_BACKGROUND_SCALES)
    ]
    t850 = 270.0 + 6.0 * fields[0]
    psl = 1013.0 + 4.0 * fields[1]
    wspd = np.abs(6.0 + 3.0 * fields[2])
    vort = 1.2e-5 * fields[3]
    return np.stack([t850, psl, wspd, vort], axis=1)


def _vortex(
    rng: np.random.Generator, patch: int, center_rc: Tuple[float, float]
) -> np.ndarray:
    """Additive TC signature centred at *center_rc* (cell units)."""
    rows = np.arange(patch)[:, None]
    cols = np.arange(patch)[None, :]
    r = np.sqrt((rows - center_rc[0]) ** 2 + (cols - center_rc[1]) ** 2) + 1e-6
    radius = rng.uniform(1.5, 3.5)
    deficit = rng.uniform(25.0, 70.0)
    vmax = rng.uniform(18.0, 45.0)
    spin = 1.0 if rng.random() < 0.5 else -1.0

    shape = np.exp(-((r / radius) ** 2))
    dpsl = -deficit * shape
    dt = 4.0 * np.exp(-((r / (0.6 * radius)) ** 2))
    profile = np.where(r <= radius, r / radius, (radius / r) ** 0.7)
    dwspd = vmax * profile * np.exp(-((r / (3 * radius)) ** 2))
    dvort = spin * 3.0e-4 * shape
    return np.stack([dt, dpsl, dwspd, dvort])


def _vortex_batch(
    patch: int,
    centers_rc: np.ndarray,
    radius: np.ndarray,
    deficit: np.ndarray,
    vmax: np.ndarray,
    spin: np.ndarray,
) -> np.ndarray:
    """Batched :func:`_vortex`: ``(m, C, P, P)`` signatures from drawn params.

    *centers_rc* is ``(m, 2)``; the remaining parameters are ``(m,)``.
    """
    rows = np.arange(patch)[None, :, None]
    cols = np.arange(patch)[None, None, :]
    cr = centers_rc[:, 0][:, None, None]
    cc = centers_rc[:, 1][:, None, None]
    r = np.sqrt((rows - cr) ** 2 + (cols - cc) ** 2) + 1e-6
    radius = radius[:, None, None]
    deficit = deficit[:, None, None]
    vmax = vmax[:, None, None]
    spin = spin[:, None, None]

    shape = np.exp(-((r / radius) ** 2))
    dpsl = -deficit * shape
    dt = 4.0 * np.exp(-((r / (0.6 * radius)) ** 2))
    profile = np.where(r <= radius, r / radius, (radius / r) ** 0.7)
    dwspd = vmax * profile * np.exp(-((r / (3 * radius)) ** 2))
    dvort = spin * 3.0e-4 * shape
    return np.stack([dt, dpsl, dwspd, dvort], axis=1)


def make_patch_dataset(
    n_samples: int = 1200,
    patch: int = 16,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> TCPatchDataset:
    """Generate a synthetic labelled patch set (deterministic per seed).

    The per-sample loop only performs the RNG draws — in exactly the
    order of the original loop implementation, so datasets for a given
    seed are unchanged — while the heavy field math (Gaussian filtering,
    vortex composition) runs batched across the whole sample set.
    """
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    presence = np.zeros(n_samples)
    centers = np.zeros((n_samples, 2))
    margin = 2.0
    whites = np.empty((n_samples, len(CHANNELS), patch, patch))
    pos_idx: List[int] = []
    pos_centers: List[Tuple[float, float]] = []
    pos_params: List[Tuple[float, float, float, float]] = []
    for k in range(n_samples):
        for c in range(len(CHANNELS)):
            whites[k, c] = rng.standard_normal((patch, patch))
        if rng.random() < positive_fraction:
            center = (
                rng.uniform(margin, patch - 1 - margin),
                rng.uniform(margin, patch - 1 - margin),
            )
            pos_idx.append(k)
            pos_centers.append(center)
            pos_params.append((
                rng.uniform(1.5, 3.5),
                rng.uniform(25.0, 70.0),
                rng.uniform(18.0, 45.0),
                1.0 if rng.random() < 0.5 else -1.0,
            ))
            presence[k] = 1.0
            centers[k] = (center[0] / (patch - 1), center[1] / (patch - 1))
    patches = _background_batch(whites)
    if pos_idx:
        params = np.asarray(pos_params)
        patches[pos_idx] = patches[pos_idx] + _vortex_batch(
            patch, np.asarray(pos_centers),
            params[:, 0], params[:, 1], params[:, 2], params[:, 3],
        )
    return TCPatchDataset(patches, presence, centers)


def _make_patch_dataset_reference(
    n_samples: int = 1200,
    patch: int = 16,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> TCPatchDataset:
    """Original per-sample loop implementation, kept as the regression
    oracle for the vectorised :func:`make_patch_dataset`."""
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    patches = np.empty((n_samples, len(CHANNELS), patch, patch))
    presence = np.zeros(n_samples)
    centers = np.zeros((n_samples, 2))
    margin = 2.0
    for k in range(n_samples):
        sample = _background(rng, patch)
        if rng.random() < positive_fraction:
            center = (
                rng.uniform(margin, patch - 1 - margin),
                rng.uniform(margin, patch - 1 - margin),
            )
            sample = sample + _vortex(rng, patch, center)
            presence[k] = 1.0
            centers[k] = (center[0] / (patch - 1), center[1] / (patch - 1))
        patches[k] = sample
    return TCPatchDataset(patches, presence, centers)


def make_patch_dataset_from_esm(
    n_samples: int = 800,
    patch: int = 16,
    model_grid: Tuple[int, int] = (48, 96),
    target_grid: Tuple[int, int] = (96, 192),
    seed: int = 0,
    start_year: int = 2030,
    positive_fraction: float = 0.5,
) -> TCPatchDataset:
    """Harvest labelled patches from the simulated ESM itself.

    The stand-in for the paper's "pre-trained on historical data": run
    TC seasons of the coupled model, regrid each 6-hourly snapshot to
    *target_grid* (the CNN's input resolution), and cut aligned patches —
    positives contain an active injected-TC centre (with its exact
    in-patch offset as the regression label), negatives are storm-free.
    Training on simulator output guarantees the inference-time feature
    distribution matches by construction.
    """
    from repro.analytics.regrid import regrid_bilinear
    from repro.esm import CMCCCM3, ModelConfig

    if target_grid[0] % patch or target_grid[1] % patch:
        raise ValueError("target_grid must be divisible by the patch size")
    rng = np.random.default_rng(seed)
    model = CMCCCM3(ModelConfig(
        n_lat=model_grid[0], n_lon=model_grid[1], seed=seed,
    ))
    # A denser storm season gives more positive samples per simulated day.
    model.events.tcs_per_year = (10, 14)

    n_pos = int(round(n_samples * positive_fraction))
    n_neg = n_samples - n_pos
    dlat = 180.0 / target_grid[0]
    dlon = 360.0 / target_grid[1]
    dst_lat = np.linspace(-90 + dlat / 2, 90 - dlat / 2, target_grid[0])
    dst_lon = np.arange(target_grid[1]) * dlon

    positives: List[Tuple[np.ndarray, Tuple[float, float]]] = []
    negatives: List[np.ndarray] = []
    year = start_year
    while len(positives) < n_pos or len(negatives) < n_neg:
        tcs = model.events.tropical_cyclones(year)
        noise = model.atmosphere.initial_noise(rng)
        sst = model.ocean.initialise(year)
        days = sorted({d for tc in tcs for d in range(tc.start_doy, tc.end_doy + 1)})
        for doy in days:
            if len(positives) >= n_pos and len(negatives) >= n_neg:
                break
            fields = model.atmosphere.daily_fields(
                year, doy, noise, sst, tropical_cyclones=tcs, rng=rng
            )
            noise = model.atmosphere.step_noise(noise, rng)
            for step in range(model.config.steps_per_day):
                stack = np.stack([fields[c][step] for c in CHANNELS])
                regridded = regrid_bilinear(
                    stack, model.grid.lat, model.grid.lon, dst_lat, dst_lon
                )
                centers = []
                for tc in tcs:
                    idx = tc.step_index(doy, step)
                    if idx is None:
                        continue
                    lat, lon = tc.position(idx)
                    row = (lat - dst_lat[0]) / dlat
                    col = (lon % 360.0) / dlon
                    centers.append((row, col, tc.intensity(idx)))
                for row, col, intensity in centers:
                    if len(positives) >= n_pos or intensity < 0.35:
                        continue
                    pi = int(row) // patch * patch
                    pj = int(col) // patch * patch
                    if not (0 <= pi <= target_grid[0] - patch):
                        continue
                    block = regridded[:, pi:pi + patch, pj:pj + patch]
                    offset = ((row - pi) / (patch - 1), (col - pj) / (patch - 1))
                    if not (0 <= offset[0] <= 1 and 0 <= offset[1] <= 1):
                        continue
                    positives.append((block.copy(), offset))
                if len(negatives) < n_neg:
                    # One storm-free aligned patch per snapshot.
                    for _ in range(8):
                        pi = int(rng.integers(target_grid[0] // patch)) * patch
                        pj = int(rng.integers(target_grid[1] // patch)) * patch
                        clear = all(
                            not (pi - patch <= r < pi + 2 * patch
                                 and pj - patch <= c < pj + 2 * patch)
                            for r, c, _ in centers
                        )
                        if clear:
                            negatives.append(
                                regridded[:, pi:pi + patch, pj:pj + patch].copy()
                            )
                            break
        year += 1
        if year - start_year > 30:  # safety: never loop forever
            break

    n_pos = min(n_pos, len(positives))
    n_neg = min(n_neg, len(negatives))
    total = n_pos + n_neg
    patches = np.empty((total, len(CHANNELS), patch, patch))
    presence = np.zeros(total)
    centers_arr = np.zeros((total, 2))
    if n_pos:
        patches[:n_pos] = np.stack([block for block, _ in positives[:n_pos]])
        presence[:n_pos] = 1.0
        centers_arr[:n_pos] = np.asarray([offset for _, offset in positives[:n_pos]])
    if n_neg:
        patches[n_pos:] = np.stack(negatives[:n_neg])
    order = rng.permutation(total)
    return TCPatchDataset(patches[order], presence[order], centers_arr[order])


class TCLocalizer:
    """The CNN: two conv/pool stages, a dense trunk, a 3-unit head.

    Output per patch: ``[presence_logit, center_row, center_col]`` with
    centres in normalised patch coordinates.
    """

    def __init__(self, patch: int = 16, seed: int = 0,
                 normalize: str = "dataset") -> None:
        if patch % 4:
            raise ValueError("patch size must be divisible by 4 (two pools)")
        if normalize not in ("dataset", "per_patch"):
            raise ValueError("normalize must be 'dataset' or 'per_patch'")
        self.patch = patch
        self.normalize = normalize
        rng = np.random.default_rng(seed)
        reduced = patch // 4
        self.network = Sequential([
            Conv2D(len(CHANNELS), 12, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(12, 24, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(24 * reduced * reduced, 48, rng=rng),
            ReLU(),
            Dense(48, 3, rng=rng),
        ])
        self.stats: Optional[Dict[str, np.ndarray]] = None

    # -- training ---------------------------------------------------------

    def fit(
        self,
        dataset: TCPatchDataset,
        epochs: int = 6,
        batch_size: int = 64,
        lr: float = 2e-3,
        seed: int = 0,
        center_weight: float = 1.0,
    ) -> TrainingHistory:
        if self.normalize == "per_patch":
            scaled = scale_patches_individually(dataset.patches)
            stats = {"mode": "per_patch"}
        else:
            scaled, stats = scale_features(dataset.patches)
        self.stats = stats
        dataset.stats = stats

        def loss_fn(outputs, presence, centers):
            return localization_loss(outputs, presence, centers,
                                     center_weight=center_weight)

        return train(
            self.network,
            scaled,
            (dataset.presence, dataset.centers),
            loss_fn,
            Adam(lr=lr),
            epochs=epochs,
            batch_size=batch_size,
            rng=np.random.default_rng(seed),
        )

    # -- inference ---------------------------------------------------------

    def predict(self, patches: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(probabilities, centres) for raw (unscaled) patches."""
        if self.stats is None:
            raise RuntimeError("model is untrained: call fit() or load()")
        if self.normalize == "per_patch":
            scaled = scale_patches_individually(np.asarray(patches))
        else:
            scaled, _ = scale_features(np.asarray(patches), self.stats)
        out = self.network.forward(scaled)
        probs = 1.0 / (1.0 + np.exp(-np.clip(out[:, 0], -60, 60)))
        centers = np.clip(out[:, 1:], 0.0, 1.0)
        return probs, centers

    def evaluate(self, dataset: TCPatchDataset) -> Dict[str, float]:
        """Accuracy and mean centre error (cells) on a labelled set."""
        probs, centers = self.predict(dataset.patches)
        predicted = probs >= 0.5
        accuracy = float((predicted == (dataset.presence > 0.5)).mean())
        mask = dataset.presence > 0.5
        if mask.any():
            err = np.linalg.norm(
                (centers[mask] - dataset.centers[mask]) * (self.patch - 1), axis=1
            )
            center_error = float(err.mean())
        else:
            center_error = float("nan")
        return {"accuracy": accuracy, "center_error_cells": center_error}

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        import pickle

        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "patch": self.patch,
                    "normalize": self.normalize,
                    "weights": self.network.state_bytes(),
                    "stats": self.stats,
                },
                fh,
            )

    @classmethod
    def load(cls, path: str) -> "TCLocalizer":
        import pickle

        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        model = cls(patch=payload["patch"],
                    normalize=payload.get("normalize", "dataset"))
        model.network.load_state_bytes(payload["weights"])
        model.stats = payload["stats"]
        return model


def train_esm_localizer(
    path: str,
    seed: int = 3,
    n_samples: int = 1400,
    model_grid: Tuple[int, int] = (48, 96),
    target_grid: Tuple[int, int] = (96, 192),
) -> TCLocalizer:
    """Train the production TC localizer on simulator-harvested patches.

    Per-patch normalisation + a strongly-weighted centre loss: the
    recipe that localizes coarse-grid storms (the "pre-trained CNN" the
    workflow's inference task loads).  The model is saved to *path*.
    """
    data = make_patch_dataset_from_esm(
        n_samples=n_samples, seed=seed,
        model_grid=model_grid, target_grid=target_grid,
    )
    model = TCLocalizer(patch=16, seed=0, normalize="per_patch")
    model.fit(data, epochs=10, batch_size=64, lr=2e-3, seed=2, center_weight=5.0)
    model.fit(data, epochs=6, batch_size=64, lr=6e-4, seed=3, center_weight=5.0)
    model.save(path)
    return model


def localize_in_snapshot(
    model: TCLocalizer,
    fields: Dict[str, np.ndarray],
    lat: np.ndarray,
    lon: np.ndarray,
    threshold: float = 0.5,
) -> List[Tuple[float, float, float]]:
    """Full-pipeline localization over one global snapshot.

    *fields* maps channel names (:data:`CHANNELS`) to (lat, lon) arrays.
    Returns ``[(lat, lon, probability), ...]`` for patches above the
    presence *threshold*, geo-referenced through the patch origins.
    """
    missing = [c for c in CHANNELS if c not in fields]
    if missing:
        raise KeyError(f"snapshot missing channels {missing}")
    stack = np.stack([np.asarray(fields[c]) for c in CHANNELS])
    patches, origins = tile_patches(stack, model.patch)
    probs, centers = model.predict(patches)
    found = []
    for k, (prob, center) in enumerate(zip(probs, centers)):
        if prob < threshold:
            continue
        offset = (center[0] * (model.patch - 1), center[1] * (model.patch - 1))
        plat, plon = patch_center_latlon(origins[k], offset, lat, lon)
        found.append((plat, plon, float(prob)))
    return found
