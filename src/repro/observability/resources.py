"""Driver resource sampling: CPU seconds and resident set size.

The workflow driver samples its own usage when a run begins and again
before the run's metrics delta is taken.  Samples land in the metrics
registry as two families:

* ``process_cpu_seconds_total{role,pid}`` — counter of user+system CPU
  consumed by this process, from :func:`resource.getrusage` (no psutil);
* ``process_rss_bytes{role,pid}`` — gauge of the current resident set,
  from ``/proc/self/statm`` (falling back to ``ru_maxrss`` where procfs
  is unavailable, e.g. macOS).

``role`` is always ``"driver"``: the label stays so series already
stored in ``runs.db`` keep matching the ones new runs record.
"""

from __future__ import annotations

import os
import resource
import threading
from typing import Optional

from repro.observability.metrics import MetricsRegistry, get_registry

__all__ = [
    "ResourceSampler",
    "process_sampler",
    "sample_process_resources",
]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _rss_bytes() -> float:
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return float(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        # ru_maxrss is kilobytes on Linux (and a high-water mark, not
        # the current RSS) — a serviceable fallback off procfs systems.
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0


class ResourceSampler:
    """Emit CPU/RSS metrics for this process under ``role="driver"``."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.pid = str(os.getpid())
        self._registry = registry
        self._last_cpu: Optional[float] = None
        self._lock = threading.Lock()

    def _reg(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def sample(self, baseline_only: bool = False) -> None:
        """Take one sample.

        With *baseline_only* the current CPU total is remembered but not
        emitted — the driver calls this when a run begins, so CPU burned
        before the run never pollutes the run's snapshot delta.  The
        first non-baseline sample with no prior baseline emits the full
        cumulative CPU.
        """
        registry = self._reg()
        cpu = _cpu_seconds()
        with self._lock:
            if not baseline_only:
                delta = cpu if self._last_cpu is None else cpu - self._last_cpu
                if delta > 0:
                    registry.counter(
                        "process_cpu_seconds_total",
                        "User+system CPU seconds consumed, by process",
                        ("role", "pid"),
                    ).inc(delta, role="driver", pid=self.pid)
            self._last_cpu = cpu
        registry.gauge(
            "process_rss_bytes",
            "Current resident set size, by process",
            ("role", "pid"),
        ).set(_rss_bytes(), role="driver", pid=self.pid)


_sampler: Optional[ResourceSampler] = None
_sampler_lock = threading.Lock()


def process_sampler() -> ResourceSampler:
    """The process-wide sampler (re-created in a forked child)."""
    global _sampler
    with _sampler_lock:
        if _sampler is None or _sampler.pid != str(os.getpid()):
            _sampler = ResourceSampler()
        return _sampler


def sample_process_resources(baseline_only: bool = False) -> None:
    """Shorthand: sample into the process-wide registry."""
    process_sampler().sample(baseline_only=baseline_only)
