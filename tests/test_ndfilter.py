"""The NumPy filters equal SciPy's ``ndimage`` bit for bit.

SciPy is a test-only dependency: it is the reference these pins compare
against, never imported by the runtime.  Every comparison is
``np.array_equal`` because the science digests of a run depend on the
last bit of the smoothed fields.
"""

import numpy as np
import pytest

ndimage = pytest.importorskip("scipy.ndimage")

from repro import ndfilter  # noqa: E402

#: (5, 7) at sigma 4.7 has radius 19: the edge and periodic extensions
#: must repeat past the far side of the axis as the reference's do.
SHAPES = [(5, 7), (16, 16), (24, 36), (48, 72), (96, 144)]
SIGMAS = [0.5, 1.0, 2.0, 2.5, 3.3, 4.7]
MODES = [("nearest", "wrap"), "wrap"]


def _field(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gaussian_matches_reference(shape, sigma, mode):
    a = _field(shape, seed=len(SHAPES) * shape[0] + int(10 * sigma))
    got = ndfilter.gaussian_filter(a, sigma, mode)
    want = ndimage.gaussian_filter(a, sigma=sigma, mode=mode)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [1.0, 2.0, 2.5])
def test_gaussian_batch_axis_left_alone(s):
    a = _field((3, 24, 36), seed=4)
    got = ndfilter.gaussian_filter(a, (0.0, s, s), "wrap")
    assert np.array_equal(
        got, ndimage.gaussian_filter(a, sigma=(0.0, s, s), mode="wrap"))
    for k in range(a.shape[0]):
        assert np.array_equal(
            got[k], ndimage.gaussian_filter(a[k], sigma=s, mode="wrap"))


def test_gaussian_zero_sigma_is_a_copy():
    a = _field((4, 6))
    got = ndfilter.gaussian_filter(a, 0.0, "wrap")
    assert np.array_equal(got, a)
    assert got is not a


@pytest.mark.parametrize("size", [3, 4, 5, 7])
@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("shape", [(5, 7), (24, 36), (48, 72)], ids=str)
def test_min_max_match_reference(shape, mode, size):
    a = _field(shape, seed=size)
    footprint = np.ones((size, size), dtype=bool)
    assert np.array_equal(
        ndfilter.minimum_filter(a, size, mode),
        ndimage.minimum_filter(a, footprint=footprint, mode=mode))
    assert np.array_equal(
        ndfilter.maximum_filter(a, size, mode),
        ndimage.maximum_filter(a, footprint=footprint, mode=mode))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ndfilter.gaussian_filter(np.zeros((4, 4)), 1.0, "reflect")
    with pytest.raises(ValueError):
        ndfilter.minimum_filter(np.zeros((4, 4)), 3, ("wrap",))
