"""Telemetry exporters: OpenMetrics text and Chrome trace-event JSON.

Two serialisations of the same recorded telemetry:

* :func:`to_openmetrics` renders one or many
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots as the
  OpenMetrics text exposition format (the Prometheus scrape format):
  counters as ``_total`` samples, gauges as gauges, histograms as
  summaries with ``quantile`` labels, probes and series as gauges.
  Every sample carries a ``system`` label naming its registry, so a
  sweep's worth of systems scrapes into one page.

* :func:`to_chrome_trace` renders captured
  :class:`~repro.sim.trace.Tracer` ring buffers (plus registry series)
  as Chrome trace-event JSON, loadable in Perfetto / ``chrome://tracing``.
  Simulation time in µs is the ``ts`` axis; completed spans become
  balanced ``B``/``E`` duration events (one track per trace source),
  plain records become instant events, and series samples / counters
  become ``C`` counter events.

Both formats are deterministic: identical telemetry serialises to
byte-identical output (ordering is by registry, then sorted metric
name; trace events sort by timestamp with a nesting-stable tiebreak).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "dump_chrome_trace",
    "openmetrics_samples",
    "to_chrome_trace",
    "to_openmetrics",
    "trace_events",
]


# ---------------------------------------------------------------------------
# OpenMetrics
# ---------------------------------------------------------------------------

_NAME_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _metric_name(raw: str, prefix: str = "repro_") -> str:
    """An OpenMetrics-legal metric name for a dotted registry key."""
    cleaned = "".join(
        ch if ch in _NAME_SAFE else "_" for ch in raw.replace(".", "_")
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return prefix + cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(value: Any) -> Optional[str]:
    """A float rendering, or ``None`` for non-numeric/unset values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return repr(float(value))


def _sample_line(name: str, labels: Mapping[str, str], value: str) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


#: Histogram quantiles exposed as summary samples.
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def openmetrics_samples(
    metric: str, data: Mapping[str, Any], labels: Mapping[str, str]
) -> Tuple[str, str, List[str]]:
    """(metric family name, OpenMetrics type, sample lines) for one metric.

    ``data`` is one entry of ``MetricsRegistry.to_dict()``.
    """
    kind = data.get("type", "gauge")
    name = _metric_name(metric)
    lines: List[str] = []
    if kind == "counter":
        value = _render_value(data.get("value"))
        if value is not None:
            lines.append(_sample_line(f"{name}_total", labels, value))
        return name, "counter", lines
    if kind == "histogram":
        for quantile, field in _QUANTILES:
            value = _render_value(data.get(field))
            if value is not None:
                lines.append(
                    _sample_line(name, {**labels, "quantile": quantile}, value)
                )
        count = _render_value(data.get("count"))
        total = _render_value(data.get("sum"))
        if count is not None:
            lines.append(_sample_line(f"{name}_count", labels, count))
        if total is not None:
            lines.append(_sample_line(f"{name}_sum", labels, total))
        return name, "summary", lines
    if kind == "series":
        value = _render_value(data.get("last"))
        if value is not None:
            lines.append(_sample_line(name, labels, value))
        count = _render_value(data.get("count"))
        if count is not None:
            lines.append(_sample_line(f"{name}_samples", labels, count))
        return name, "gauge", lines
    # gauge / probe / anything numeric
    value = _render_value(data.get("value"))
    if value is not None:
        lines.append(_sample_line(name, labels, value))
    if kind == "gauge":
        mean = _render_value(data.get("time_weighted_mean"))
        if mean is not None:
            lines.append(
                _sample_line(f"{name}_time_weighted_mean", labels, mean)
            )
    return name, "gauge", lines


def to_openmetrics(
    registries: Iterable[Tuple[str, Mapping[str, Mapping[str, Any]]]],
) -> str:
    """Serialise ``(label, registry_dict)`` pairs as OpenMetrics text.

    ``registry_dict`` is the output of ``MetricsRegistry.to_dict()``
    (already-snapshot plain data, so this also works on deserialised
    campaign artifacts).  Ends with the mandatory ``# EOF``.
    """
    lines: List[str] = []
    typed: Dict[str, str] = {}
    for label, registry in registries:
        labels = {"system": label}
        for metric in sorted(registry):
            family, om_type, samples = openmetrics_samples(
                metric, registry[metric], labels
            )
            if not samples:
                continue
            if family not in typed:
                typed[family] = om_type
                lines.append(f"# TYPE {family} {om_type}")
            lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------


class _SpanInterval:
    __slots__ = ("path", "begin_ns", "end_ns", "args")

    def __init__(self, path: str, begin_ns: float, end_ns: float, args: dict):
        self.path = path
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.args = args

    @property
    def depth(self) -> int:
        return self.path.count("/")


def _contains(outer: "_SpanInterval", inner: "_SpanInterval") -> bool:
    """True when ``inner`` nests inside ``outer`` (interval + path)."""
    return (
        outer.begin_ns <= inner.begin_ns
        and inner.end_ns <= outer.end_ns
        and outer.depth < inner.depth
        and inner.path.startswith(outer.path + "/")
    )


def _span_events(
    records: Iterable, pid: int, tids: Dict[str, int]
) -> List[Dict[str, Any]]:
    """Balanced B/E duration events for every completed span record.

    Spans from one :class:`~repro.obs.spans.SpanRecorder` properly nest,
    so replaying them through an explicit stack — ordered by begin time,
    then depth — yields a B/E stream that is balanced and monotone in
    ``ts`` even for zero-duration spans and back-to-back siblings that
    share a boundary timestamp.
    """
    by_source: Dict[str, List[_SpanInterval]] = {}
    for record in records:
        fields = record.fields or {}
        if record.kind != "span" or "span" not in fields:
            continue
        path = str(fields["span"])
        args = {
            key: value
            for key, value in fields.items()
            if key not in ("span", "begin_ns", "end_ns", "duration_us")
        }
        by_source.setdefault(record.source, []).append(
            _SpanInterval(
                path,
                float(fields.get("begin_ns", record.time_ns)),
                float(fields.get("end_ns", record.time_ns)),
                args,
            )
        )

    events: List[Dict[str, Any]] = []

    def emit(span: _SpanInterval, phase: str, tid: int) -> None:
        ts = (span.begin_ns if phase == "B" else span.end_ns) / 1e3
        event: Dict[str, Any] = {
            "name": span.path.rsplit("/", 1)[-1],
            "cat": "span",
            "ph": phase,
            "ts": ts,
            "pid": pid,
            "tid": tid,
        }
        if phase == "B" and span.args:
            event["args"] = span.args
        events.append(event)

    for source in sorted(by_source):
        tid = tids.setdefault(source, len(tids))
        ordered = sorted(
            range(len(by_source[source])),
            key=lambda i: (
                by_source[source][i].begin_ns,
                by_source[source][i].depth,
                i,
            ),
        )
        stack: List[_SpanInterval] = []
        for index in ordered:
            span = by_source[source][index]
            while stack and not _contains(stack[-1], span):
                emit(stack.pop(), "E", tid)
            emit(span, "B", tid)
            stack.append(span)
        while stack:
            emit(stack.pop(), "E", tid)
    return events


def _instant_events(
    records: Iterable, pid: int, tids: Dict[str, int]
) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for record in records:
        if record.kind == "span":
            continue
        tid = tids.setdefault(record.source, len(tids))
        event: Dict[str, Any] = {
            "name": record.message,
            "cat": record.kind or "trace",
            "ph": "i",
            "s": "t",
            "ts": record.time_ns / 1e3,
            "pid": pid,
            "tid": tid,
        }
        if record.fields:
            event["args"] = dict(record.fields)
        events.append(event)
    return events


def _counter_events(
    label: str, registry: Mapping[str, Mapping[str, Any]], pid: int, end_ts: float
) -> List[Dict[str, Any]]:
    """Counter (``C``) events: series samples plus final counter values."""
    events: List[Dict[str, Any]] = []
    for metric in sorted(registry):
        data = registry[metric]
        kind = data.get("type")
        if kind == "series":
            for time_ns, value in data.get("samples", []):
                events.append(
                    {
                        "name": metric,
                        "cat": "series",
                        "ph": "C",
                        "ts": float(time_ns) / 1e3,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
        elif kind == "counter":
            value = data.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                events.append(
                    {
                        "name": metric,
                        "cat": "counter",
                        "ph": "C",
                        "ts": end_ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
    return events


def trace_events(
    tracers: Iterable[Tuple[str, Any]],
    registries: Iterable[Tuple[str, Mapping[str, Mapping[str, Any]]]] = (),
) -> List[Dict[str, Any]]:
    """The sorted Chrome trace-event list for captured tracers/registries.

    One ``pid`` per tracer (systems show up as separate processes), one
    ``tid`` per trace source within it.  Metadata events name both.
    """
    events: List[Dict[str, Any]] = []
    meta: List[Dict[str, Any]] = []
    for pid, (label, tracer) in enumerate(tracers):
        tids: Dict[str, int] = {}
        records = list(tracer.records)
        events.extend(_span_events(records, pid, tids))
        events.extend(_instant_events(records, pid, tids))
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for source, tid in sorted(tids.items(), key=lambda item: item[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": source},
                }
            )
    end_ts = max((event["ts"] for event in events), default=0.0)
    for pid, (label, registry) in enumerate(registries):
        events.extend(_counter_events(label, registry, pid, end_ts))
    # Stable sort: every per-tid stream above is already emitted in
    # balanced, time-monotone order, so sorting on ts alone (Python's
    # sort is stable) merges the streams without reordering ties.
    events.sort(key=lambda event: event["ts"])
    return meta + events


def to_chrome_trace(
    tracers: Iterable[Tuple[str, Any]],
    registries: Iterable[Tuple[str, Mapping[str, Mapping[str, Any]]]] = (),
) -> Dict[str, Any]:
    """The full Chrome trace JSON object (``traceEvents`` + clock unit)."""
    return {
        "traceEvents": trace_events(tracers, registries),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export", "clock": "sim_us"},
    }


def dump_chrome_trace(
    path: str,
    tracers: Iterable[Tuple[str, Any]],
    registries: Iterable[Tuple[str, Mapping[str, Mapping[str, Any]]]] = (),
) -> None:
    """Write :func:`to_chrome_trace` to ``path`` (loadable in Perfetto)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracers, registries), handle, indent=1)
        handle.write("\n")
