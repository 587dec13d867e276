"""Tests for the sim-time profiler and critical-path extractor."""

import pytest

from repro.obs import SpanRecorder
from repro.obs.profile import (
    PHASE_DEVICE,
    attribute_devices,
    attribute_spans,
    critical_path,
    format_flame_table,
    span_records,
)
from repro.sim import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _recorded_tracer():
    clock = FakeClock()
    tracer = Tracer()
    spans = SpanRecorder(now_fn=clock, tracer=tracer, source="fw")
    for _ in range(2):  # two reconfigurations accumulate per-path
        with spans.span("reconfigure"):
            with spans.span("clock_lock"):
                clock.now += 50_000.0       # ns: 50 us
            with spans.span("dma_transfer"):
                clock.now += 600_000.0      # ns: 600 us
            with spans.span("scrub"):
                clock.now += 300_000.0      # ns: 300 us
        clock.now += 10_000.0  # idle gap outside any span
    return tracer


# -- hierarchical attribution --------------------------------------------------


def test_attribute_spans_totals_and_self_time():
    stats = {s.path: s for s in attribute_spans(span_records(_recorded_tracer()))}
    assert stats["reconfigure"].count == 2
    assert stats["reconfigure"].total_us == pytest.approx(1900.0)
    # Self time = total minus child coverage (everything is in children).
    assert stats["reconfigure"].self_us == pytest.approx(0.0)
    assert stats["reconfigure/dma_transfer"].total_us == pytest.approx(1200.0)
    assert stats["reconfigure/dma_transfer"].self_us == pytest.approx(1200.0)
    # Depth-first path order: parent before its children.
    ordered = [s.path for s in attribute_spans(span_records(_recorded_tracer()))]
    assert ordered.index("reconfigure") < ordered.index("reconfigure/scrub")


def test_span_records_filters_by_source():
    tracer = _recorded_tracer()
    assert span_records(tracer, source="fw")
    assert span_records(tracer, source="other") == []


def test_format_flame_table_shows_hierarchy_and_percentages():
    table = format_flame_table(attribute_spans(span_records(_recorded_tracer())))
    lines = table.splitlines()
    assert any("reconfigure" in line and "100.0%" in line for line in lines)
    # Children render indented beneath the root.
    assert any(line.startswith("  dma_transfer") for line in lines)
    assert format_flame_table([]) == "sim-time profile: no spans recorded"


# -- device attribution / critical path ---------------------------------------


def test_attribute_devices_maps_phases():
    phase_us = {
        "clock_lock": 50.0,
        "driver_setup": 2.0,
        "dma_transfer": 600.0,
        "icap_drain": 1.0,
        "scrub": 300.0,
    }
    devices = attribute_devices(phase_us)
    assert devices == {
        "clock_wizard": 50.0,
        "cpu": 2.0,
        "dma": 600.0,
        "icap": 1.0,
        "scrubber": 300.0,
    }
    assert critical_path(phase_us) == "dma"


def test_fifo_backpressure_reattributes_transfer_time_to_icap():
    phase_us = {"dma_transfer": 600.0, "scrub": 300.0}
    # 400 of the 600 µs transfer was the DMA stalled on a full FIFO —
    # the ICAP (the consumer) was the bottleneck for that time.
    devices = attribute_devices(phase_us, fifo_stall_us=400.0)
    assert devices["dma"] == pytest.approx(200.0)
    assert devices["icap"] == pytest.approx(400.0)
    assert critical_path(phase_us, fifo_stall_us=400.0) == "icap"
    # Stall never exceeds the phase it is carved out of.
    clamped = attribute_devices(phase_us, fifo_stall_us=9999.0)
    assert clamped["dma"] == pytest.approx(0.0)
    assert clamped["icap"] == pytest.approx(600.0)


def test_critical_path_tie_breaks_alphabetically_and_handles_empty():
    assert critical_path({}) is None
    assert critical_path({"dma_transfer": 5.0, "scrub": 5.0}) == "dma"


def test_real_reconfiguration_names_a_device():
    from repro.core import PdrSystem, PdrSystemConfig
    from repro.fabric import PassthroughAsp

    system = PdrSystem(PdrSystemConfig(die_temp_c=40.0))
    result = system.reconfigure("RP1", PassthroughAsp(), 200.0)
    assert result.critical_path in set(PHASE_DEVICE.values())
    # The device table covers (at least) the whole phase breakdown.
    assert sum(result.device_us.values()) == pytest.approx(
        sum(result.phase_us.values()), rel=1e-3
    )


def test_timeout_reconfiguration_critical_path_follows_the_hang():
    from repro.core import PdrSystem, PdrSystemConfig
    from repro.fabric import PassthroughAsp

    # 320 MHz at 40 C hangs the control path: the transfer window is the
    # IRQ timeout, so the transfer (dma) dominates the attribution.
    system = PdrSystem(PdrSystemConfig(die_temp_c=40.0))
    result = system.reconfigure("RP1", PassthroughAsp(), 340.0)
    assert not result.interrupt_seen
    assert result.critical_path == "dma"
