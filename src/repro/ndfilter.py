"""Separable NumPy image filters: Gaussian smoothing and square min/max.

On ``float64`` input each equals SciPy's ``ndimage`` result bit for bit
(pinned by ``tests/test_ndfilter.py``).  Boundaries come from
:func:`numpy.pad`: ``"nearest"`` repeats the edge, ``"wrap"`` is
periodic, also when the stencil is wider than the axis.  The Gaussian
adds its mirrored tap pairs farthest first, as the reference does;
nearest first differs in the last bit.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

_PAD_MODES = {"nearest": "edge", "wrap": "wrap"}


def _pad_modes(mode: Union[str, Sequence[str]], ndim: int) -> List[str]:
    modes = [mode] * ndim if isinstance(mode, str) else list(mode)
    if len(modes) != ndim or not set(modes) <= set(_PAD_MODES):
        raise ValueError(
            f"need {ndim} modes from {sorted(_PAD_MODES)}, got {mode!r}")
    return [_PAD_MODES[m] for m in modes]


def _taps(a: np.ndarray, axis: int, before: int, after: int,
          pad_mode: str) -> List[np.ndarray]:
    """Views of *a* shifted by ``-before .. +after`` along *axis*."""
    widths = [(before, after) if d == axis else (0, 0) for d in range(a.ndim)]
    padded = np.pad(a, widths, mode=pad_mode)
    index = [slice(None)] * a.ndim
    views = []
    for k in range(before + after + 1):
        index[axis] = slice(k, k + a.shape[axis])
        views.append(padded[tuple(index)])
    return views


def gaussian_filter(a: np.ndarray, sigma, mode) -> np.ndarray:
    """Gaussian smoothing, truncated at ``4 * sigma``, axis by axis.

    *sigma* is one value or one per axis; an axis with
    ``sigma <= 1e-15`` is left alone, so ``sigma=(0, s, s)`` smooths a
    batch of 2-d fields without mixing them.
    """
    a = np.asarray(a, dtype=np.float64)
    out = a
    sigmas = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (a.ndim,))
    for axis, (s, pad_mode) in enumerate(zip(sigmas, _pad_modes(mode, a.ndim))):
        if s <= 1e-15:
            continue
        r = int(4.0 * s + 0.5)
        x = np.arange(-r, r + 1)
        weights = np.exp(-0.5 / (s * s) * x ** 2)
        weights = (weights / weights.sum())[::-1]
        taps = _taps(out, axis, r, r, pad_mode)
        out = taps[r] * weights[r]
        pair = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(taps[r - j], taps[r + j], out=pair)
            pair *= weights[r - j]
            out += pair
    return out.copy() if out is a else out


def _extremum_filter(a: np.ndarray, size: int, mode, ufunc) -> np.ndarray:
    out = np.asarray(a)
    for axis, pad_mode in enumerate(_pad_modes(mode, out.ndim)):
        taps = _taps(out, axis, size // 2, (size - 1) // 2, pad_mode)
        out = taps[0].copy()
        for tap in taps[1:]:
            ufunc(out, tap, out=out)
    return out


def minimum_filter(a: np.ndarray, size: int, mode) -> np.ndarray:
    """Minimum over the ``size``-wide hypercube around every element."""
    return _extremum_filter(a, size, mode, np.minimum)


def maximum_filter(a: np.ndarray, size: int, mode) -> np.ndarray:
    """Maximum over the ``size``-wide hypercube around every element."""
    return _extremum_filter(a, size, mode, np.maximum)
