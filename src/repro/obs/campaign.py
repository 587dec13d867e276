"""Campaign-scale telemetry aggregation.

A sweep/fuzz/chaos campaign produces one plain-data record per point —
a result payload plus a metrics-registry snapshot.  This module folds
those per-point records into a single deterministic rollup:

* every numeric metric field is flattened to ``metric.field`` and
  summarised across points with count/min/max/mean and nearest-rank
  p50/p99 (nearest-rank, not interpolated, so serial and ``--jobs N``
  campaigns — which merge in spec order — stay byte-identical);
* firmware phase breakdowns roll up into per-phase p50/p99 tables;
* critical-path devices are tallied per device, so a campaign answers
  "what was the bottleneck, and how often" in one line.

The aggregator only consumes plain mappings (what
:func:`repro.experiments.points.campaign_point` and
:func:`repro.chaos.soak.soak_case` return), so it works identically on
in-process results, parallel-worker results and deserialised artifacts.
:func:`render_json` / :func:`render_markdown` are the two serialisations
behind ``repro-pdr report``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..analysis.stats import nearest_rank

__all__ = [
    "CampaignReport",
    "Rollup",
    "aggregate_campaign",
    "flatten_metrics",
    "render_json",
    "render_markdown",
    "rollup_values",
]


@dataclass(frozen=True)
class Rollup:
    """Summary of one numeric field across campaign points."""

    count: int
    min: float
    max: float
    mean: float
    p50: float
    p99: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p99": round(self.p99, 6),
        }


def rollup_values(values: Iterable[float]) -> Optional[Rollup]:
    """Roll a sample of numbers up; ``None`` for an empty sample."""
    cleaned = [
        float(v)
        for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not cleaned:
        return None
    ordered = sorted(cleaned)
    return Rollup(
        count=len(ordered),
        min=ordered[0],
        max=ordered[-1],
        mean=sum(ordered) / len(ordered),
        p50=nearest_rank(ordered, 50.0),
        p99=nearest_rank(ordered, 99.0),
    )


#: Which fields of each metric type are worth rolling up across points.
_ROLLUP_FIELDS = {
    "counter": ("value",),
    "gauge": ("value", "min", "max", "time_weighted_mean"),
    "histogram": ("count", "sum", "mean", "p50", "p99", "max"),
    "series": ("last",),
    "probe": ("value",),
}


def flatten_metrics(registry: Mapping[str, Mapping[str, Any]]) -> Dict[str, float]:
    """Flatten one registry snapshot to ``metric.field -> number``.

    Non-numeric and unset fields are dropped; series sample lists never
    cross the campaign boundary (only their last value does).
    """
    flat: Dict[str, float] = {}
    for name in sorted(registry):
        data = registry[name]
        fields = _ROLLUP_FIELDS.get(data.get("type", ""), ("value",))
        for key in fields:
            value = data.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{name}.{key}"] = float(value)
    return flat


@dataclass
class CampaignReport:
    """Deterministic rollup of one campaign's points."""

    name: str
    points: int
    #: ``metric.field -> Rollup`` across every point that reported it.
    metrics: Dict[str, Rollup] = field(default_factory=dict)
    #: firmware phase -> Rollup of per-point µs.
    phases: Dict[str, Rollup] = field(default_factory=dict)
    #: critical-path device -> number of points it bottlenecked.
    critical_paths: Dict[str, int] = field(default_factory=dict)
    #: Headline result fields (latency/throughput/...) -> Rollup.
    results: Dict[str, Rollup] = field(default_factory=dict)
    #: Result fields that appeared in records but never carried a number
    #: (e.g. an all-hang grid where every ``latency_us`` is ``None``) ->
    #: explicit reason.  The degraded twin of ``results`` — the same
    #: convention as the null ``latency_us`` plus
    #: ``latency_unavailable_reason`` in ``BENCH_sweeps.json``, so a
    #: rollup that never ran is reported, not silently absent.
    skipped: Dict[str, str] = field(default_factory=dict)
    #: Per-point single-line table rows (label, key result fields).
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.obs.campaign/v1",
            "name": self.name,
            "points": self.points,
            "results": {k: v.to_dict() for k, v in sorted(self.results.items())},
            "skipped": dict(sorted(self.skipped.items())),
            "phases": {k: v.to_dict() for k, v in sorted(self.phases.items())},
            "critical_paths": dict(sorted(self.critical_paths.items())),
            "metrics": {k: v.to_dict() for k, v in sorted(self.metrics.items())},
            "rows": self.rows,
        }


#: Result-payload fields rolled into the headline table when present.
_RESULT_FIELDS = (
    "latency_us",
    "throughput_mb_s",
    "pdr_power_w",
    "events",
    "availability",
    "recovery_rate",
)

#: Record keys that explain *why* a result field carries no number, used
#: to enrich a skipped rollup's reason (``ReconfigResult`` convention:
#: ``latency_unavailable_reason`` is set exactly when ``latency_us`` is
#: ``None``).
_UNAVAILABLE_REASON_KEYS = {
    "latency_us": "latency_unavailable_reason",
    "throughput_mb_s": "latency_unavailable_reason",
}


def aggregate_campaign(
    name: str, records: Iterable[Mapping[str, Any]]
) -> CampaignReport:
    """Fold per-point campaign records into one :class:`CampaignReport`.

    Each record may carry ``metrics`` (a registry snapshot), ``phase_us``
    (a firmware phase breakdown), ``critical_path`` (a device name) and
    any of the headline result fields; everything is optional, so sweep,
    fuzz and chaos records all aggregate through the same fold.
    """
    records = list(records)
    report = CampaignReport(name=name, points=len(records))

    metric_samples: Dict[str, List[float]] = {}
    phase_samples: Dict[str, List[float]] = {}
    result_samples: Dict[str, List[float]] = {}
    result_seen: Dict[str, int] = {}
    result_reasons: Dict[str, List[str]] = {}
    for record in records:
        registry = record.get("metrics")
        if registry:
            for key, value in flatten_metrics(registry).items():
                metric_samples.setdefault(key, []).append(value)
        for phase, duration in (record.get("phase_us") or {}).items():
            if isinstance(duration, (int, float)):
                phase_samples.setdefault(phase, []).append(float(duration))
        device = record.get("critical_path")
        if device:
            report.critical_paths[device] = (
                report.critical_paths.get(device, 0) + 1
            )
        for key in _RESULT_FIELDS:
            if key not in record:
                continue
            result_seen[key] = result_seen.get(key, 0) + 1
            value = record[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                result_samples.setdefault(key, []).append(float(value))
            else:
                reason = record.get(_UNAVAILABLE_REASON_KEYS.get(key, ""))
                if reason and reason not in result_reasons.setdefault(key, []):
                    result_reasons[key].append(str(reason))
        row = {"label": record.get("label", f"point{len(report.rows)}")}
        for key in _RESULT_FIELDS:
            if key in record:
                row[key] = record[key]
        if device:
            row["critical_path"] = device
        report.rows.append(row)

    for key, values in metric_samples.items():
        rolled = rollup_values(values)
        if rolled is not None:
            report.metrics[key] = rolled
    for key, values in phase_samples.items():
        rolled = rollup_values(values)
        if rolled is not None:
            report.phases[key] = rolled
    for key, values in result_samples.items():
        rolled = rollup_values(values)
        if rolled is not None:
            report.results[key] = rolled
    # A field every record declared but none could quantify (an all-hang
    # grid's latency) degrades to a skipped rollup with a reason instead
    # of disappearing from the report.
    for key, seen in result_seen.items():
        if key in report.results:
            continue
        reason = f"no numeric values in {seen}/{report.points} point(s)"
        if result_reasons.get(key):
            reason += ": " + "; ".join(sorted(result_reasons[key]))
        report.skipped[key] = reason
    return report


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def render_json(report: CampaignReport) -> str:
    """Canonical JSON (sorted keys, trailing newline) of a report."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _rollup_row(name: str, rolled: Rollup, unit: str = "") -> str:
    return (
        f"| {name}{unit} | {rolled.count} | {rolled.min:.3f} | "
        f"{rolled.mean:.3f} | {rolled.p50:.3f} | {rolled.p99:.3f} | "
        f"{rolled.max:.3f} |"
    )


def render_markdown(report: CampaignReport, metrics_limit: int = 40) -> str:
    """Markdown campaign report: headline, phases, critical paths, metrics."""
    lines = [
        f"# Campaign report — {report.name}",
        "",
        f"{report.points} point(s) aggregated.",
        "",
        "## Headline results",
        "",
        "| field | n | min | mean | p50 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, rolled in sorted(report.results.items()):
        lines.append(_rollup_row(name, rolled))
    for name, reason in sorted(report.skipped.items()):
        lines.append(f"skipped: {name} ({reason})")
    lines += [
        "",
        "## Firmware phases (µs per reconfiguration)",
        "",
        "| phase | n | min | mean | p50 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, rolled in sorted(report.phases.items()):
        lines.append(_rollup_row(name, rolled))
    lines += ["", "## Critical paths", ""]
    if report.critical_paths:
        total = sum(report.critical_paths.values())
        for device, count in sorted(
            report.critical_paths.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(
                f"- **{device}** bottlenecked {count}/{total} "
                f"reconfiguration(s) ({100.0 * count / total:.1f}%)"
            )
    else:
        lines.append("- no critical-path data")
    lines += [
        "",
        f"## Metric rollups (first {metrics_limit} of "
        f"{len(report.metrics)})",
        "",
        "| metric | n | min | mean | p50 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, rolled in sorted(report.metrics.items())[:metrics_limit]:
        lines.append(_rollup_row(name, rolled))
    lines.append("")
    return "\n".join(lines)
