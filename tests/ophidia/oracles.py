"""Reference implementations the Ophidia fragment kernels must match exactly.

These are the straightforward formulations the kernels replaced: a
per-time-step loop for run lengths and a float-literal ``np.where`` for
``oph_predicate``.  They are slow and kept only as test oracles.
"""

import numpy as np

from repro.ophidia.primitives import OPH_TYPES

_COMPARE = {
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
    "==": np.equal,
    "=": np.equal,
    "!=": np.not_equal,
}


def loop_run_lengths(mask, axis):
    """Completed-run lengths of True values along *axis*, one step at a time."""
    mask = np.asarray(mask, dtype=bool)
    moved = np.moveaxis(mask, axis, 0)
    steps = moved.shape[0]
    running = np.zeros(moved.shape[1:], dtype=np.int32)
    out = np.zeros(moved.shape, dtype=np.int32)
    for t in range(steps):
        running = (running + 1) * moved[t]
        ends = moved[t] & (~moved[t + 1] if t + 1 < steps else True)
        out[t] = np.where(ends, running, 0)
    return np.moveaxis(out, 0, axis)


def _branch(text, data):
    text = text.strip()
    if text == "x":
        return data
    if text.upper() == "NAN":
        return np.nan
    return float(text)


def where_predicate(data, out_type, op, threshold, then_text, else_text):
    """``oph_predicate(..., measure, 'x', '<op><threshold>', then, else)``
    with every literal branch a Python float."""
    result = np.where(
        _COMPARE[op](data, float(threshold)),
        _branch(then_text, data),
        _branch(else_text, data),
    )
    return np.asarray(result, dtype=OPH_TYPES[out_type])
