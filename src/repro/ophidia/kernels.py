"""Per-fragment kernel stages and the compiled chain that runs them.

A fused operator chain compiles to a :class:`FragmentKernel`: a
sequence of *stages*, each one of the module-level functions below
specialised through ``functools.partial``.  The server's thread pool
runs the kernel once per fragment.  The stages below are whole-array
NumPy with no per-element or per-time-step Python loop, so their time
is spent inside NumPy calls that release the GIL and fragments execute
concurrently (a user callable in :func:`stage_transform` may not).

Stage protocol
--------------
``stage(data, i) -> (out, extra_avoided_bytes)`` where *i* is the
fragment index.  *extra* is the avoided-materialisation byte count the
stage accounts for internally — only :func:`stage_binop` uses it, to
meter the operand chain it runs on the side.  :meth:`FragmentKernel.run`
adds ``out.nbytes`` for metered stages on top.

Intercube operators are encoded by *name* and looked up in
:data:`INTERCUBE_OPS` at run time, so a stage's ``partial`` carries
only plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from repro.ophidia.primitives import evaluate_ast

__all__ = [
    "INTERCUBE_OPS",
    "REDUCERS",
    "FragmentKernel",
    "run_lengths",
    "stage_apply",
    "stage_binop",
    "stage_binop_full",
    "stage_percentile",
    "stage_reduce",
    "stage_reduce2",
    "stage_runlength",
    "stage_subset",
    "stage_transform",
]


REDUCERS: Dict[str, Callable[..., np.ndarray]] = {
    "max": np.max,
    "min": np.min,
    "sum": np.sum,
    "mean": np.mean,
    "std": np.std,
    "var": np.var,
}

INTERCUBE_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sub": np.subtract,
    "add": np.add,
    "mul": np.multiply,
    "div": np.divide,
    "greater": lambda a, b: (a > b).astype(np.int8),
    "greater_equal": lambda a, b: (a >= b).astype(np.int8),
    "less": lambda a, b: (a < b).astype(np.int8),
    "less_equal": lambda a, b: (a <= b).astype(np.int8),
}


@dataclass(frozen=True)
class FragmentKernel:
    """A compiled per-fragment operator chain.

    ``n_metered`` leading stage outputs count as avoided
    materialisations: eager execution would have written each of them
    to the storage pool.
    """

    stages: Tuple[Callable[..., Any], ...]
    n_metered: int

    def run(self, data: Any, i: int) -> Tuple[np.ndarray, int]:
        """Apply all stages to fragment *i*; returns (result, avoided bytes).

        *data* may also be a cold-fragment handle (anything exposing
        ``hydrate()``, e.g. :class:`repro.ophidia.storage.SpillHandle`):
        hydration happens here, inside the pool thread running the
        sweep, so a spilled fragment is read back in parallel with its
        siblings.
        """
        if hasattr(data, "hydrate"):
            data = data.hydrate()
        avoided = 0
        for k, stage in enumerate(self.stages):
            data, extra = stage(data, i)
            avoided += extra
            if k < self.n_metered:
                avoided += data.nbytes
        return np.asarray(data), avoided


def run_lengths(mask: np.ndarray, axis: int) -> np.ndarray:
    """Completed-run lengths of True values along *axis* (int32).

    Output[t] = k if a maximal run of k consecutive True values ends at
    position t, else 0.

    Whole-array, no per-step loop: with ``idx`` counting steps from 1,
    ``idx - maximum.accumulate(idx * ~mask)`` is the running length at
    every step (each False step resets it to zero), kept only where a
    run ends (``mask[t] & ~mask[t + 1]``).
    """
    moved = np.moveaxis(np.asarray(mask, dtype=bool), axis, 0)
    steps = moved.shape[0]
    idx = np.arange(1, steps + 1, dtype=np.int32).reshape(
        (steps,) + (1,) * (moved.ndim - 1)
    )
    out = np.empty(moved.shape, dtype=np.int32)
    np.multiply(idx, ~moved, out=out)
    np.maximum.accumulate(out, axis=0, out=out)
    np.subtract(idx, out, out=out)
    ends = moved.copy()
    ends[:-1] &= ~moved[1:]
    np.multiply(out, ends, out=out)
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# Elementwise stages
# ---------------------------------------------------------------------------


def stage_apply(data: np.ndarray, i: int, *, ast: tuple) -> Tuple[np.ndarray, int]:
    """``oph_apply``: evaluate a parsed primitive-expression AST."""
    return np.asarray(evaluate_ast(ast, data)), 0


def stage_transform(
    data: np.ndarray, i: int, *, fn: Callable[[np.ndarray], np.ndarray]
) -> Tuple[np.ndarray, int]:
    """``oph_transform``: arbitrary shape-preserving callable."""
    out = np.asarray(fn(data))
    if out.shape != data.shape:
        raise ValueError("transform callable must preserve fragment shape")
    return out, 0


def stage_subset(
    data: np.ndarray, i: int, *, axis: int, start: int, stop: int
) -> Tuple[np.ndarray, int]:
    """``oph_subset`` along a non-fragment dimension."""
    indexer = [slice(None)] * data.ndim
    indexer[axis] = slice(start, stop)
    return np.ascontiguousarray(data[tuple(indexer)]), 0


def stage_runlength(data: np.ndarray, i: int, *, axis: int) -> Tuple[np.ndarray, int]:
    """``oph_runlength``: consecutive-run durations of positive values."""
    return run_lengths(data > 0, axis), 0


def stage_binop(
    data: np.ndarray,
    i: int,
    *,
    op_name: str,
    operands: Sequence[np.ndarray],
    operand_stages: Sequence[Callable[..., Tuple[np.ndarray, int]]],
) -> Tuple[np.ndarray, int]:
    """``oph_intercube`` with a fragment-aligned operand.

    *operands* holds the operand's base fragments (preloaded at plan
    resolution so the stage needs no storage-pool access);
    *operand_stages* is the operand's own fused chain, run here with
    every stage output metered — the operand chain streams through this
    sweep instead of materialising, exactly as on the old closure path.
    A spilled operand arrives as a cold-fragment handle and hydrates
    here, inside the pool thread running the stage.
    """
    b = operands[i]
    b = b.hydrate() if hasattr(b, "hydrate") else np.asarray(b)
    extra = 0
    for stage in operand_stages:
        b, e = stage(b, i)
        extra += e + b.nbytes
    return np.asarray(INTERCUBE_OPS[op_name](data, b)), extra


def stage_binop_full(
    data: np.ndarray,
    i: int,
    *,
    op_name: str,
    full: np.ndarray,
    frag_axis: int,
    bounds: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, int]:
    """``oph_intercube`` with a misaligned operand, pre-gathered to *full*."""
    indexer = [slice(None)] * full.ndim
    indexer[frag_axis] = slice(bounds[i][0], bounds[i][1])
    return np.asarray(INTERCUBE_OPS[op_name](data, full[tuple(indexer)])), 0


# ---------------------------------------------------------------------------
# Terminal (consuming) stages
# ---------------------------------------------------------------------------


def stage_reduce(
    data: np.ndarray, i: int, *, op: str, axis: int
) -> Tuple[np.ndarray, int]:
    """``oph_reduce`` along a non-fragment dimension."""
    return np.asarray(REDUCERS[op](data, axis=axis)), 0


def stage_reduce2(
    data: np.ndarray, i: int, *, op: str, axis: int, n_groups: int, group_size: int
) -> Tuple[np.ndarray, int]:
    """``oph_reduce2``: grouped reduction in blocks of *group_size*."""
    shape = list(data.shape)
    shape[axis:axis + 1] = [n_groups, group_size]
    return np.asarray(REDUCERS[op](data.reshape(shape), axis=axis + 1)), 0


def stage_percentile(
    data: np.ndarray, i: int, *, q: float, axis: int
) -> Tuple[np.ndarray, int]:
    """``oph_percentile``: collapse *axis* to its *q*-th percentile."""
    return np.asarray(np.percentile(data, q, axis=axis)), 0
