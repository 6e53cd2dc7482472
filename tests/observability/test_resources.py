"""Driver resource sampling: CPU seconds and RSS under role="driver"."""

from repro.observability.metrics import MetricsRegistry, snapshot_value
from repro.observability.resources import ResourceSampler


class TestResourceSampler:
    def test_sample_emits_cumulative_cpu_and_rss(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry=registry)
        sampler.sample()
        snap = registry.snapshot().to_json()
        assert snapshot_value(snap, "process_cpu_seconds_total",
                              role="driver") > 0
        assert snapshot_value(snap, "process_rss_bytes", role="driver") > 0

    def test_baseline_sample_suppresses_prior_cpu(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry=registry)
        sampler.sample(baseline_only=True)
        snap = registry.snapshot().to_json()
        assert "process_cpu_seconds_total" not in snap
        sampler.sample()
        value = snapshot_value(registry.snapshot().to_json(),
                               "process_cpu_seconds_total", role="driver")
        # Only CPU burned since the baseline counts; a fresh process has
        # accumulated far more than this since startup.
        assert 0 <= value < 1.0
