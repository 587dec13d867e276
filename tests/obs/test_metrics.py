"""Tests for the metric primitives and the registry."""

import pytest

from repro.obs import (
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    NullMetricsRegistry,
)


class FakeClock:
    """Controllable now_fn for time-weighted math tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- count records -------------------------------------------------------------

def test_count_record_accumulates_and_exports_counters():
    registry = MetricsRegistry()
    counts = registry.counts("dma", bursts=0, bytes_moved=0)
    counts.bursts += 1
    counts.bytes_moved += 1024
    counts.bursts += 41
    assert (counts.bursts, counts.bytes_moved) == (42, 1024)
    # Ints stay ints in the record; the export is a float counter.
    assert type(counts.bursts) is int
    assert registry.get("dma.bursts").value == 42.0
    assert registry.to_dict() == {
        "dma.bursts": {"type": "counter", "value": 42.0},
        "dma.bytes_moved": {"type": "counter", "value": 1024.0},
    }


# -- time-weighted gauges ------------------------------------------------------

def test_gauge_time_weighted_mean():
    clock = FakeClock()
    gauge = Gauge("g", now_fn=clock)
    gauge.set(10.0)          # t=0
    clock.now = 100.0
    gauge.set(20.0)          # held 10 for 100 ns
    clock.now = 200.0        # held 20 for 100 ns
    assert gauge.time_weighted_mean() == pytest.approx(15.0)
    assert gauge.min == 10.0
    assert gauge.max == 20.0


def test_gauge_mean_weights_by_duration_not_sample_count():
    # Nine instantaneous spikes to 100 and one long stretch at 0 must
    # average near 0, not near 90 — the whole point of time-weighting.
    clock = FakeClock()
    gauge = Gauge("g", now_fn=clock)
    gauge.set(0.0)
    clock.now = 1000.0
    for _ in range(9):
        gauge.set(100.0)
        gauge.set(0.0)       # same timestamp: zero-width spike
    clock.now = 2000.0
    assert gauge.time_weighted_mean() == pytest.approx(0.0)


def test_gauge_add_is_relative():
    clock = FakeClock()
    gauge = Gauge("g", now_fn=clock)
    gauge.add(3)
    gauge.add(-1)
    assert gauge.value == 2


def test_gauge_unset_reports_none():
    gauge = Gauge("g", now_fn=lambda: 0.0)
    assert gauge.time_weighted_mean() is None
    assert gauge.to_dict()["value"] is None


def test_gauge_final_segment_integrates_through_end_ns():
    # The tail regression: a gauge set once early and never touched
    # again must weight its final value over the whole remaining window,
    # not just up to its last set.
    clock = FakeClock()
    gauge = Gauge("g", now_fn=clock)
    gauge.set(0.0)           # t=0
    clock.now = 100.0
    gauge.set(10.0)          # 0 held for 100 ns, then 10 ... forever
    # Snapshot at t=900: 0*100 + 10*800 over 900 ns.
    assert gauge.time_weighted_mean(end_ns=900.0) == pytest.approx(8000.0 / 900.0)
    # Without end_ns the live clock closes the window the same way.
    clock.now = 900.0
    assert gauge.time_weighted_mean() == pytest.approx(8000.0 / 900.0)
    # to_dict threads the explicit window end through.
    assert gauge.to_dict(end_ns=900.0)["time_weighted_mean"] == pytest.approx(
        8000.0 / 900.0
    )


def test_gauge_end_before_last_set_clamps_not_subtracts():
    # A rewound/detached clock must never subtract tail mass.
    clock = FakeClock()
    gauge = Gauge("g", now_fn=clock)
    gauge.set(10.0)          # t=0
    clock.now = 100.0
    gauge.set(20.0)
    assert gauge.time_weighted_mean(end_ns=50.0) == pytest.approx(10.0)


def test_registry_to_dict_threads_end_ns_to_gauges_only():
    clock = FakeClock()
    registry = MetricsRegistry(now_fn=clock)
    gauge = registry.gauge("fifo.level")
    gauge.set(4.0)           # t=0, never set again
    registry.counts("fw", ops=0).ops += 3
    data = registry.to_dict(end_ns=200.0)
    assert data["fifo.level"]["time_weighted_mean"] == pytest.approx(4.0)
    assert data["fw.ops"]["value"] == 3


# -- compiled-out registry -----------------------------------------------------

def test_null_registry_returns_shared_noop_metric():
    registry = NullMetricsRegistry(name="off")
    gauge = registry.gauge("a.level")
    assert gauge is NULL_METRIC
    gauge.set(3.0)
    registry.histogram("a.lat").observe(1.0)
    registry.series("a.temp").sample(40.0)
    registry.probe("a.events", lambda: 99)
    # Count records still count (the model reads them), and asking
    # again returns the same record, as with telemetry on.
    counts = registry.counts("a", count=0)
    counts.count += 5
    assert registry.counts("a", count=0) is counts
    assert counts.count == 5
    # Nothing was exported, and readable attributes stay inert.
    assert registry.to_dict() == {}
    assert registry.get("a.count") is None
    assert NULL_METRIC.value == 0.0
    assert NULL_METRIC.time_weighted_mean() is None
    assert NULL_METRIC.to_dict() == {"type": "null"}


# -- histograms ----------------------------------------------------------------

def test_histogram_exact_stats_and_percentiles():
    histogram = Histogram("h")
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.min == 1.0
    assert histogram.max == 100.0
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.percentile(90) == pytest.approx(90.1)


def test_histogram_reservoir_decimates_deterministically():
    histogram = Histogram("h", reservoir_size=64)
    for value in range(10_000):
        histogram.observe(float(value))
    # Exact aggregates survive decimation...
    assert histogram.count == 10_000
    assert histogram.max == 9999.0
    # ...and the sampled median stays representative.
    assert histogram.percentile(50) == pytest.approx(5000, rel=0.15)
    # Re-running the same sequence gives the same reservoir (no RNG).
    other = Histogram("h2", reservoir_size=64)
    for value in range(10_000):
        other.observe(float(value))
    assert other.percentile(50) == histogram.percentile(50)


def test_histogram_empty_and_bad_percentile():
    histogram = Histogram("h")
    assert histogram.percentile(50) is None
    with pytest.raises(ValueError):
        histogram.percentile(101)


# -- registry ----------------------------------------------------------------

def test_registry_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    counts = registry.counts("dma", bytes=0)
    assert registry.counts("dma", bytes=0) is counts
    assert "dma.bytes" in registry
    with pytest.raises(TypeError):
        registry.gauge("dma.bytes")  # same name, different type
    # A second asker may add fields; both read the one record.
    assert registry.counts("dma", resets=0) is counts
    assert registry.names() == ["dma.bytes", "dma.resets"]
    registry.gauge("dma.level")
    with pytest.raises(TypeError):
        registry.counts("dma", level=0)


def test_registry_series_and_probe_export():
    clock = FakeClock()
    registry = MetricsRegistry(now_fn=clock)
    series = registry.series("bench.temp_c")
    series.sample(40.0)
    clock.now = 10.0
    series.sample(41.0)
    registry.probe("sim.events", lambda: 123)
    data = registry.to_dict()
    assert data["bench.temp_c"]["samples"] == [[0.0, 40.0], [10.0, 41.0]]
    assert data["sim.events"]["value"] == 123
