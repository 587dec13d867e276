"""Tests for the OpenMetrics and Chrome trace-event exporters."""

import json

import pytest

from repro.obs import MetricsRegistry, SpanRecorder
from repro.obs.export import (
    dump_chrome_trace,
    to_chrome_trace,
    to_openmetrics,
    trace_events,
)
from repro.obs.profile import span_records
from repro.sim import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0


def _sample_registry(clock):
    registry = MetricsRegistry(clock=clock, name="sys")
    registry.counts("dma", bytes=0).bytes += 1024
    gauge = registry.gauge("fifo.level")
    gauge.set(2.0)
    clock.now = 100.0
    gauge.set(6.0)
    histogram = registry.histogram("fw.latency_us")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    series = registry.series("bench.temp_c")
    series.sample(40.0)
    clock.now = 200.0
    series.sample(55.0)
    registry.probe("sim.events", lambda: 321)
    return registry


# -- OpenMetrics ---------------------------------------------------------------


def parse_openmetrics(text):
    """Minimal OpenMetrics parser: types + ``(name, labels) -> value``.

    Supports exactly what the exporter emits — ``# TYPE`` lines, sample
    lines with an optional ``{label="value",...}`` block, and the final
    ``# EOF`` — which makes this a genuine round-trip check rather than
    a string-contains test.
    """
    types = {}
    samples = {}
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    for line in lines[:-1]:
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            types[family] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment {line!r}"
        name_part, _, value = line.rpartition(" ")
        labels = {}
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            for pair in label_blob.rstrip("}").split(","):
                key, _, quoted = pair.partition("=")
                labels[key] = quoted.strip('"')
        else:
            name = name_part
        samples[(name, tuple(sorted(labels.items())))] = float(value)
    return types, samples


def test_openmetrics_round_trip():
    clock = FakeClock()
    registry = _sample_registry(clock)
    text = to_openmetrics([("sys#0", registry.to_dict(end_ns=200.0))])

    types, samples = parse_openmetrics(text)
    system = (("system", "sys#0"),)

    assert types["repro_dma_bytes"] == "counter"
    assert samples[("repro_dma_bytes_total", system)] == 1024.0

    assert types["repro_fifo_level"] == "gauge"
    assert samples[("repro_fifo_level", system)] == 6.0
    # 2 held for 100 ns then 6 for 100 ns over a 200 ns window.
    assert samples[
        ("repro_fifo_level_time_weighted_mean", system)
    ] == pytest.approx(4.0)

    assert types["repro_fw_latency_us"] == "summary"
    quantile = (("quantile", "0.5"), ("system", "sys#0"))
    assert samples[("repro_fw_latency_us", quantile)] == pytest.approx(2.5)
    assert samples[("repro_fw_latency_us_count", system)] == 4.0
    assert samples[("repro_fw_latency_us_sum", system)] == 10.0

    assert samples[("repro_bench_temp_c", system)] == 55.0
    assert samples[("repro_sim_events", system)] == 321.0


def test_openmetrics_multiple_registries_one_page():
    clock = FakeClock()
    first = MetricsRegistry(clock=clock)
    first.counts("fw", ops=0).ops += 1
    second = MetricsRegistry(clock=clock)
    second.counts("fw", ops=0).ops += 2
    text = to_openmetrics(
        [("a", first.to_dict()), ("b", second.to_dict())]
    )
    _, samples = parse_openmetrics(text)
    assert samples[("repro_fw_ops_total", (("system", "a"),))] == 1.0
    assert samples[("repro_fw_ops_total", (("system", "b"),))] == 2.0
    # The shared family is typed exactly once.
    assert text.count("# TYPE repro_fw_ops counter") == 1


def test_openmetrics_escapes_labels_and_names():
    text = to_openmetrics(
        [('we"ird\nlabel', {"1odd.name-x": {"type": "counter", "value": 1}})]
    )
    assert 'system="we\\"ird\\nlabel"' in text
    # Leading digit prefixed, dots and dashes replaced.
    assert "repro__1odd_name_x_total" in text


def test_openmetrics_deterministic():
    clock = FakeClock()
    registry = _sample_registry(clock)
    snapshot = registry.to_dict(end_ns=200.0)
    assert to_openmetrics([("s", snapshot)]) == to_openmetrics([("s", snapshot)])


# -- Chrome trace events -------------------------------------------------------


def _record_spans(tracer, clock):
    """A realistic nested + zero-duration + shared-boundary span mix."""
    spans = SpanRecorder(clock=clock, tracer=tracer, source="fw")
    with spans.span("reconfigure", region="RP1"):
        with spans.span("clock_lock"):
            clock.now = 50.0
        with spans.span("driver_setup"):
            pass  # zero-duration child
        with spans.span("dma_transfer"):
            clock.now = 150.0
        # Sibling beginning exactly where the previous one ended.
        with spans.span("scrub"):
            clock.now = 200.0
    return spans


def test_chrome_trace_balanced_and_monotone():
    clock = FakeClock()
    tracer = Tracer()
    _record_spans(tracer, clock)
    tracer.emit(120.0, "fw", "completion interrupt received", kind="irq")

    events = trace_events([("sys#0", tracer)])
    spans = [e for e in events if e["ph"] in ("B", "E")]
    begins = [e for e in spans if e["ph"] == "B"]
    assert len(begins) == len(span_records(tracer))

    depth = {}
    last_ts = {}
    for event in events:
        if event["ph"] == "M":
            continue
        key = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(key, float("-inf"))
        last_ts[key] = event["ts"]
        if event["ph"] == "B":
            depth[key] = depth.get(key, 0) + 1
        elif event["ph"] == "E":
            depth[key] = depth[key] - 1
            assert depth[key] >= 0, "E without matching B"
    assert all(value == 0 for value in depth.values())

    # Instants survive with their kind as category.
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["cat"] for e in instants] == ["irq"]
    # Span args carry the recorder's fields, ts is sim µs.
    reconfigure_b = next(e for e in begins if e["name"] == "reconfigure")
    assert reconfigure_b["args"] == {"region": "RP1"}
    assert reconfigure_b["ts"] == 0.0


def test_chrome_trace_names_processes_and_threads():
    clock = FakeClock()
    tracer = Tracer()
    _record_spans(tracer, clock)
    events = trace_events([("pdr_system#0", tracer)])
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "pdr_system#0") in names
    assert ("thread_name", "fw") in names


def test_chrome_trace_counter_events_from_series_and_counters():
    clock = FakeClock()
    registry = _sample_registry(clock)
    tracer = Tracer()
    _record_spans(tracer, clock)
    doc = to_chrome_trace(
        [("sys#0", tracer)], [("sys#0", registry.to_dict(end_ns=200.0))]
    )
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    series_events = [e for e in counters if e["name"] == "bench.temp_c"]
    assert [e["args"]["value"] for e in series_events] == [40.0, 55.0]
    counter_events = [e for e in counters if e["name"] == "dma.bytes"]
    assert len(counter_events) == 1
    assert counter_events[0]["args"]["value"] == 1024.0
    assert doc["displayTimeUnit"] == "ms"


def test_dump_chrome_trace_writes_loadable_json(tmp_path):
    clock = FakeClock()
    tracer = Tracer()
    _record_spans(tracer, clock)
    path = tmp_path / "trace.json"
    dump_chrome_trace(str(path), [("sys", tracer)])
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


def test_chrome_trace_from_real_system():
    """End to end: the firmware's own spans export balanced per system."""
    from repro.core import PdrSystem, PdrSystemConfig
    from repro.fabric import PassthroughAsp

    system = PdrSystem(PdrSystemConfig(die_temp_c=40.0))
    system.reconfigure("RP1", PassthroughAsp(), 200.0)
    events = trace_events(
        [("pdr_system#0", system.trace)],
        [("pdr_system#0", system.metrics.to_dict(end_ns=system.sim.now))],
    )
    begins = sum(1 for e in events if e["ph"] == "B")
    ends = sum(1 for e in events if e["ph"] == "E")
    assert begins == ends == len(span_records(system.trace))
    assert begins >= 6  # reconfigure + the five happy-path phases
