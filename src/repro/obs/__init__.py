"""Observability layer: metrics, spans, exporters, profiler, campaigns.

Public surface::

    from repro.obs import MetricsRegistry, SpanRecorder, TELEMETRY_BOOK
    from repro.obs import export, profile, campaign

The package is deliberately free of simulator imports — everything is
parameterised by a ``now_fn`` time source or consumes already-recorded
plain data — so it can sit below :mod:`repro.sim` in the layering and
be reused by any component.

* :mod:`repro.obs.export` — OpenMetrics text + Chrome trace-event JSON.
* :mod:`repro.obs.profile` — span-tree attribution, flame tables and
  the critical-path extractor.
* :mod:`repro.obs.campaign` — per-point record rollups behind
  ``repro-pdr report``.
"""

from . import campaign, export, profile
from .book import TELEMETRY_BOOK, TelemetryBook
from .campaign import CampaignReport, aggregate_campaign
from .export import to_chrome_trace, to_openmetrics
from .metrics import (
    Counts,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    NullMetricsRegistry,
    Probe,
    Series,
)
from .profile import attribute_devices, critical_path, format_flame_table
from .spans import Span, SpanRecorder

__all__ = [
    "CampaignReport",
    "Counts",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NullMetricsRegistry",
    "Probe",
    "Series",
    "Span",
    "SpanRecorder",
    "TELEMETRY_BOOK",
    "TelemetryBook",
    "aggregate_campaign",
    "attribute_devices",
    "campaign",
    "critical_path",
    "export",
    "format_flame_table",
    "profile",
    "to_chrome_trace",
    "to_openmetrics",
]
