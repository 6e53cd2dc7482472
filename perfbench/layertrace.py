"""Per-layer attribution from outside the program.

:class:`LayerTracer` wraps the public functions of each layer of
``repro`` (methods on their classes, functions where callers look them
up) for the duration of one traced run, then removes the wrappers.  It
adds no spans inside ``src/repro``; the program's own telemetry is left
exactly as it is.

Each wrapper records one span: name, layer, start, end, the parent span
from a per-thread stack, and the run's trace id.  Spans stay in memory
until :meth:`LayerTracer.dump`.  A layer's *self time* is the duration of
its spans minus the time covered by their child spans, so nested calls
(an ESM day writing through the filesystem into the RNC encoder) are
charged once, to the innermost layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
import uuid
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: The layers the benchmark attributes time to.
LAYERS = ("esm", "netcdf", "fs", "compss", "ophidia", "ml", "analytics",
          "service", "hpcwaas", "lsf")

#: Cube operators that only move data in or out; everything else is compute.
OPHIDIA_IO = frozenset({"Cube.importnc2", "Cube.exportnc2"})


class LayerTracer:
    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex[:16]
        #: [name, layer, start, end, parent index, extracted value, thread]
        self.spans: List[list] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.objects: Dict[str, list] = defaultdict(list)

    # -- installing ---------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, layer: str,
                 on_result: Optional[Callable] = None,
                 keep: Optional[str] = None) -> Callable:
        spans, tls, lock = self.spans, self._tls, self._lock
        objects = self.objects

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None,
                      threading.get_ident()]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                record[5] = on_result(result, args, kwargs)
            if keep is not None:
                objects[keep].append(result)
            return result

        return traced

    def wrap_method(self, cls: type, attr: str, layer: str, **opts: Any) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrapper(raw.__func__, name, layer, **opts))
        else:
            patched = self._wrapper(raw, name, layer, **opts)
        setattr(cls, attr, patched)
        self._patches.append((cls, attr, raw))

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      **opts: Any) -> None:
        module = importlib.import_module(module_name)
        raw = getattr(module, attr)
        setattr(module, attr, self._wrapper(raw, attr, layer, **opts))
        self._patches.append((module, attr, raw))

    def install(self) -> "LayerTracer":
        from repro.cluster.filesystem import SharedFilesystem
        from repro.cluster.lsf import LSFScheduler
        from repro.compss.runtime import COMPSsRuntime
        from repro.esm import CMCCCM3
        from repro.hpcwaas.api import HPCWaaSAPI
        from repro.ml.tc_localizer import TCLocalizer
        from repro.observability.history import RunHistory
        from repro.ophidia import Cube
        from repro.service import ServiceDB, WorkflowService

        def esm_days(result, args, kwargs):
            bound = inspect.signature(CMCCCM3.run_year).bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["n_days"]

        self.wrap_method(CMCCCM3, "run_year", "esm", on_result=esm_days)
        self.wrap_method(CMCCCM3, "write_baseline", "esm")

        # RNC encode/decode, patched where the filesystem and the
        # Ophidia server look the names up.
        def dataset_bytes(result, args, kwargs):
            return result.nbytes

        for module in ("repro.cluster.filesystem", "repro.ophidia.server"):
            self.wrap_function(module, "write_dataset", "netcdf",
                               on_result=lambda n, a, k: n)
        self.wrap_function("repro.cluster.filesystem", "read_dataset", "netcdf",
                           on_result=dataset_bytes)
        self.wrap_function("repro.cluster.filesystem", "read_header", "netcdf")
        self.wrap_function("repro.ophidia.server", "read_variable", "netcdf",
                           on_result=lambda v, a, k: v.data.nbytes)

        for attr in ("read", "write", "read_bytes", "write_bytes",
                     "read_header", "exists", "listdir", "glob", "delete",
                     "size", "makedirs"):
            self.wrap_method(SharedFilesystem, attr, "fs")

        # Blocking waits are their own pseudo-layer: time the main program spends
        # parked on a future is not COMPSs work.
        self.wrap_method(COMPSsRuntime, "submit", "compss")
        for attr in ("wait_on", "barrier"):
            self.wrap_method(COMPSsRuntime, attr, "compss.wait")

        for attr, raw in list(vars(Cube).items()):
            if attr.startswith("_") or isinstance(raw, property):
                continue
            if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
                self.wrap_method(Cube, attr, "ophidia")

        self.wrap_method(TCLocalizer, "predict", "ml")
        self.wrap_method(TCLocalizer, "load", "ml")
        self.wrap_function("repro.workflow.tasks", "localize_in_snapshot", "ml")
        for attr in ("detect_tc_candidates", "link_tracks"):
            self.wrap_function("repro.workflow.tasks", attr, "analytics")

        self.wrap_method(WorkflowService, "submit", "service")
        for cls in (ServiceDB, RunHistory):
            for attr, raw in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(raw):
                    self.wrap_method(cls, attr, "service")
        self.wrap_method(HPCWaaSAPI, "invoke", "hpcwaas")
        self.wrap_method(LSFScheduler, "bsub", "lsf", keep="lsf_jobs")
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def _self_pieces(self) -> List[List[tuple]]:
        """Per span, the intervals not covered by its child spans.

        Children run on their parent's thread and nest inside it, so they
        never overlap one another.
        """
        kids: List[List[tuple]] = [[] for _ in self.spans]
        for name, layer, start, end, parent, attrs, tid in self.spans:
            if parent >= 0:
                kids[parent].append((start, end))
        pieces = []
        for (name, layer, start, end, parent, attrs, tid), children in zip(self.spans, kids):
            own, cursor = [], start
            for c_start, c_end in sorted(children):
                if c_start > cursor:
                    own.append((cursor, c_start))
                cursor = max(cursor, c_end)
            if end > cursor:
                own.append((cursor, end))
            pieces.append(own)
        return pieces

    def summary(self) -> Dict[str, Any]:
        """Per layer: self time summed over threads and its wall-clock cover.

        ``self_s`` counts every thread (two workers busy for one second
        give 2 s); ``wall_s`` is the time during which at least one
        thread was inside the layer.  Per span name: calls, self time,
        total time and the summed byte/day value the wrapper extracted.
        """
        pieces = self._self_pieces()
        by_layer: Dict[str, List[tuple]] = defaultdict(list)
        names: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0})
        ophidia_compute: List[tuple] = []
        for (name, layer, start, end, parent, attrs, tid), own in zip(self.spans, pieces):
            by_layer[layer].extend(own)
            if layer == "ophidia" and name not in OPHIDIA_IO:
                ophidia_compute.extend(own)
            entry = names[name]
            entry["calls"] += 1
            entry["self_s"] += sum(b - a for a, b in own)
            entry["total_s"] += end - start
            if isinstance(attrs, (int, float)):
                entry["value"] += attrs
        layers = {
            layer: {"self_s": sum(b - a for a, b in by_layer[layer]),
                    "wall_s": covered(by_layer[layer])}
            for layer in LAYERS + ("compss.wait",)
        }
        return {"layers": layers, "names": dict(names),
                "ophidia_compute_wall_s": covered(ophidia_compute)}

    def dump(self, path: str) -> None:
        """Write the spans as Chrome trace events (microseconds)."""
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"layer": layer, "parent": parent,
                      "trace_id": self.trace_id}}
            for name, layer, start, end, parent, attrs, tid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def covered(intervals: List[tuple]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
