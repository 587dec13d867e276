"""Process-wide telemetry capture for the CLI export path.

The experiment runners construct their own systems internally (often
several per experiment), so the CLI cannot reach into them for metrics
after the fact.  Instead, every system registers its
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.sim.trace.Tracer` with the module-level
:data:`TELEMETRY_BOOK` at construction time.

Registration is a no-op unless a capture is active, so library users pay
nothing and long-running processes cannot leak references; the CLI wraps
experiment execution in :meth:`TelemetryBook.capture` and then exports
whatever was collected (``--metrics-out`` / ``--trace-dump``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TELEMETRY_BOOK", "TelemetryBook"]


class TelemetryBook:
    """Collects (label, registry/tracer) pairs while a capture is active."""

    def __init__(self) -> None:
        self._active = False
        self.registries: List[Tuple[str, Any]] = []
        self.tracers: List[Tuple[str, Any]] = []

    @property
    def active(self) -> bool:
        return self._active

    # -- producer side (systems) ----------------------------------------------
    def register(self, registry, label: str = "registry") -> None:
        """Record a metrics registry (no-op when no capture is active)."""
        if not self._active:
            return
        self.registries.append((f"{label}#{len(self.registries)}", registry))

    def register_tracer(self, tracer, label: str = "trace") -> None:
        if not self._active:
            return
        self.tracers.append((f"{label}#{len(self.tracers)}", tracer))

    # -- consumer side (CLI) ----------------------------------------------------
    @contextmanager
    def capture(self):
        """Collect every registry/tracer created inside the block.

        The collected lists stay readable after the block exits (that is
        when the CLI exports them); the next capture clears them.
        """
        if self._active:
            raise RuntimeError("telemetry capture is already active")
        self.registries.clear()
        self.tracers.clear()
        self._active = True
        try:
            yield self
        finally:
            self._active = False

    def merged_dict(self, experiments: Optional[List[str]] = None) -> Dict[str, Any]:
        """One JSON-ready document covering every captured registry."""
        return {
            "schema": "repro.obs/v1",
            "experiments": list(experiments or []),
            "registries": [
                {"label": label, "metrics": registry.to_dict()}
                for label, registry in self.registries
            ],
        }

    def dump_json(
        self, path: str, experiments: Optional[List[str]] = None, indent: int = 2
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.merged_dict(experiments), handle, indent=indent)
            handle.write("\n")

    def dump(
        self,
        path: str,
        format: str = "json",
        experiments: Optional[List[str]] = None,
    ) -> None:
        """Export the captured telemetry as ``json``/``openmetrics``/``chrome-trace``.

        ``json`` is the legacy merged-registry document; ``openmetrics``
        is the Prometheus text exposition of every registry;
        ``chrome-trace`` is a Perfetto-loadable trace-event file built
        from every captured tracer (spans + instants) and registry
        (series/counter tracks).
        """
        from . import export as _export

        if format == "json":
            self.dump_json(path, experiments=experiments)
        elif format == "openmetrics":
            snapshots = [
                (label, registry.to_dict())
                for label, registry in self.registries
            ]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_export.to_openmetrics(snapshots))
        elif format == "chrome-trace":
            snapshots = [
                (label, registry.to_dict())
                for label, registry in self.registries
            ]
            _export.dump_chrome_trace(path, self.tracers, snapshots)
        else:
            raise ValueError(f"unknown telemetry format {format!r}")

    def flame_tables(self) -> List[str]:
        """One rendered flame table per captured tracer with spans."""
        from . import profile as _profile

        out: List[str] = []
        for label, tracer in self.tracers:
            records = _profile.span_records(tracer)
            if not records:
                continue
            stats = _profile.attribute_spans(records)
            out.append(
                _profile.format_flame_table(
                    stats, title=f"sim-time profile — {label}"
                )
            )
        return out

    def tail_traces(self, count: int) -> List[str]:
        """The last ``count`` trace lines of each captured tracer, rendered."""
        out: List[str] = []
        for label, tracer in self.tracers:
            records = list(tracer.records)[-count:]
            out.append(f"--- trace {label}: last {len(records)} of {len(tracer)} records ---")
            out.extend(str(record) for record in records)
        return out


#: The process-wide book the CLI and the systems share.
TELEMETRY_BOOK = TelemetryBook()
