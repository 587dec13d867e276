"""Tests for nested phase spans and the telemetry book."""

import pytest

from repro.obs import MetricsRegistry, SpanRecorder, TELEMETRY_BOOK, TelemetryBook
from repro.sim import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0


def test_span_nesting_paths_and_durations():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("reconfigure") as outer:
        clock.now = 100.0
        with recorder.span("dma_transfer") as inner:
            assert recorder.open_depth == 2
            assert inner.parent == "reconfigure"
            assert inner.depth == 1
            clock.now = 600.0
        clock.now = 1000.0
    assert recorder.open_depth == 0
    assert outer.path == "reconfigure"
    assert inner.path == "reconfigure/dma_transfer"
    assert inner.duration_us == pytest.approx(0.5)
    assert outer.duration_us == pytest.approx(1.0)
    # Children close before parents.
    assert [s.name for s in recorder.completed] == ["dma_transfer", "reconfigure"]


def test_span_breakdown_filters_by_parent_and_accumulates():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("seq"):
        for _ in range(2):
            with recorder.span("phase_a"):
                clock.now += 10.0
        with recorder.span("phase_b"):
            clock.now += 5.0
    breakdown = recorder.breakdown_us(parent="seq")
    assert breakdown == {
        "phase_a": pytest.approx(0.02),
        "phase_b": pytest.approx(0.005),
    }
    # Top-level view only sees the root.
    assert list(recorder.breakdown_us()) == ["seq"]


def test_span_closes_on_exception():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with pytest.raises(RuntimeError):
        with recorder.span("doomed"):
            clock.now = 50.0
            raise RuntimeError("boom")
    assert recorder.open_depth == 0
    assert recorder.completed[0].duration_ns == 50.0


def test_span_mirrors_into_tracer_and_metrics():
    clock = FakeClock()
    tracer = Tracer()
    registry = MetricsRegistry(clock=clock)
    recorder = SpanRecorder(
        clock=clock,
        tracer=tracer,
        source="fw",
        metrics=registry,
        metrics_prefix="fw.phase.",
    )
    with recorder.span("scrub", region="RP1"):
        clock.now = 2000.0
    record = tracer.filter(kind="span")[0]
    assert record.source == "fw"
    assert record.fields["span"] == "scrub"
    assert record.fields["region"] == "RP1"
    assert record.fields["duration_us"] == pytest.approx(2.0)
    histogram = registry.get("fw.phase.scrub_us")
    assert histogram.count == 1
    assert histogram.mean == pytest.approx(2.0)


def test_span_works_across_generator_yields():
    """Spans must measure sim time spent inside ``yield`` statements."""
    from repro.sim import Simulator

    sim = Simulator()
    recorder = SpanRecorder(clock=sim)

    def proc(sim):
        with recorder.span("wait"):
            yield sim.timeout(123.0)

    sim.process(proc(sim))
    sim.run()
    assert recorder.completed[0].duration_ns == pytest.approx(123.0)


# -- telemetry book ----------------------------------------------------------

def test_book_registration_noop_without_capture():
    book = TelemetryBook()
    book.register(MetricsRegistry(), "ignored")
    assert book.registries == []


def test_book_capture_collects_and_survives_exit(tmp_path):
    book = TelemetryBook()
    with book.capture() as captured:
        registry = MetricsRegistry(name="sys")
        registry.counts("a", count=0).count += 3
        book.register(registry, "sys")
        tracer = Tracer()
        tracer.emit(1.0, "x", "hello")
        book.register_tracer(tracer, "sys")
    # Lists stay readable after the capture ends, registration stops.
    book.register(MetricsRegistry(), "late")
    assert len(captured.registries) == 1
    doc = captured.merged_dict(experiments=["table1"])
    assert doc["schema"] == "repro.obs/v1"
    assert doc["experiments"] == ["table1"]
    assert doc["registries"][0]["metrics"]["a.count"]["value"] == 3
    lines = captured.tail_traces(10)
    assert any("hello" in line for line in lines)


def test_book_nested_capture_rejected():
    book = TelemetryBook()
    with book.capture():
        with pytest.raises(RuntimeError):
            with book.capture():
                pass


def test_global_book_used_by_pdr_system():
    from repro.core import PdrSystem

    with TELEMETRY_BOOK.capture() as book:
        PdrSystem()
    assert any("pdr_system" in label for label, _ in book.registries)
    assert any("pdr_system" in label for label, _ in book.tracers)
