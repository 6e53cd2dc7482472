"""The fragment kernels against their slow reference formulations.

Output checks that compare a pipeline with the NumPy heat-wave reference
cannot catch a wrong run-length kernel, because both call the same one;
these tests pin the kernels to independent oracles, byte for byte.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ophidia import evaluate_primitive
from repro.ophidia.kernels import run_lengths
from repro.ophidia.primitives import OPH_TYPES
from tests.ophidia.oracles import loop_run_lengths, where_predicate

_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9)


@st.composite
def _masks(draw):
    """Boolean masks of 1-3 dims: arbitrary patterns, or a fixed density
    from all-False through sparse and dense to all-True."""
    shape = draw(_SHAPES)
    if draw(st.booleans()):
        return draw(hnp.arrays(np.bool_, shape))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


class TestRunLengthOracle:
    @given(_masks(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_every_axis(self, mask, data):
        axis = data.draw(st.integers(-mask.ndim, mask.ndim - 1))
        _assert_identical(run_lengths(mask, axis), loop_run_lengths(mask, axis))

    @pytest.mark.parametrize("density", [0.0, 0.1, 0.3, 0.7, 1.0])
    def test_matches_loop_on_a_reanalysis_fragment(self, density):
        mask = np.random.default_rng(7).random((365, 12, 72)) < density
        for axis in range(3):
            _assert_identical(run_lengths(mask, axis), loop_run_lengths(mask, axis))

    def test_non_bool_mask_is_truth_tested(self):
        values = np.array([[0, 3], [-1, 0], [2, 5]])
        _assert_identical(run_lengths(values, 0), loop_run_lengths(values, 0))


_LITERALS = st.one_of(
    st.sampled_from([
        "x", " x ", "NAN", "nan", "0", "1", "-1", "0.5", "0.1", "-0.0",
        "127", "128", "-129", "32767", "40000", "2147483647", "2147483648",
        "16777217", "9007199254740993", "1e10", "3e38", "1e300",
    ]),
    st.floats().map(repr),
)


class TestPredicateOracle:
    @given(
        in_type=st.sampled_from(sorted(OPH_TYPES)),
        out_type=st.sampled_from(sorted(OPH_TYPES)),
        shape=_SHAPES,
        op=st.sampled_from([">", "<", ">=", "<=", "==", "=", "!="]),
        threshold=st.sampled_from(["0", "5", "-3", "2.5", "1e3"]),
        then_text=_LITERALS,
        else_text=_LITERALS,
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_float_literal_where(
        self, in_type, out_type, shape, op, threshold, then_text, else_text, data
    ):
        measure = data.draw(hnp.arrays(OPH_TYPES[in_type], shape))
        query = (
            f"oph_predicate('{in_type}','{out_type}',measure,'x',"
            f"'{op}{threshold}','{then_text}','{else_text}')"
        )
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            got = evaluate_primitive(query, measure)
            want = where_predicate(
                measure, out_type, op, threshold, then_text, else_text
            )
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("in_type", sorted(OPH_TYPES))
    def test_edge_values_every_type_pair(self, in_type):
        """Every output type, every tricky literal on either side of a
        passthrough or literal branch, against edge-valued measures: type
        extremes, integers past float32/float64 precision, NaN, inf, -0.0."""
        dtype = OPH_TYPES[in_type]
        if dtype.kind == "i":
            info = np.iinfo(dtype)
            values = [info.min, info.max, 0, 1, -1, 5, 127, 128, 40000,
                      2**31, 16777217, 2**53 + 1, -(2**53 + 1)]
            measure = np.array([v for v in values if info.min <= v <= info.max],
                               dtype=dtype)
        else:
            values = [np.nan, np.inf, -np.inf, 0.1, -0.0, 0.5, 5.0, -3.0,
                      16777217.0, 2.0**53 + 2, 3e38, -1e10, 1e300]
            with np.errstate(over="ignore"):
                measure = np.array(values).astype(dtype)
        literals = ["x", "NAN", "0", "1", "-1", "0.5", "0.1", "-0.0", "128",
                    "40000", "2147483648", "16777217", "9007199254740993",
                    "3e38", "1e300"]
        for out_type in sorted(OPH_TYPES):
            for then_text in literals:
                for else_text in ("x", "0", "0.5", "NAN", "16777217"):
                    for a, b in ((then_text, else_text), (else_text, then_text)):
                        query = (f"oph_predicate('{in_type}','{out_type}',measure,"
                                 f"'x','>=5','{a}','{b}')")
                        with warnings.catch_warnings(), np.errstate(all="ignore"):
                            warnings.simplefilter("ignore", RuntimeWarning)
                            got = evaluate_primitive(query, measure)
                            want = where_predicate(measure, out_type, ">=", "5", a, b)
                        assert got.dtype == want.dtype, query
                        assert got.tobytes() == want.tobytes(), query

    @pytest.mark.parametrize(
        "in_type, op, threshold, then_text, else_text",
        [
            ("OPH_FLOAT", ">=", "5.0", "1", "0"),  # exceedance mask
            ("OPH_INT", ">=", "6", "x", "0"),      # qualifying durations
            ("OPH_INT", ">", "0", "1", "0"),       # wave-number mask
        ],
    )
    def test_listing1_predicates(self, in_type, op, threshold, then_text, else_text):
        measure = np.random.default_rng(3).normal(0, 4, (365, 12, 72))
        measure = measure.astype(OPH_TYPES[in_type])
        query = (
            f"oph_predicate('{in_type}','OPH_INT',measure,'x','{op}{threshold}',"
            f"'{then_text}','{else_text}')"
        )
        got = evaluate_primitive(query, measure)
        want = where_predicate(measure, "OPH_INT", op, threshold, then_text, else_text)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
