"""Deterministic sim-time profiler over recorded span trees.

Everything in this module post-processes *already recorded* telemetry —
structured ``kind="span"`` trace records (see
:class:`~repro.obs.spans.SpanRecorder`) — into the three views a latency
investigation needs:

* **hierarchical attribution** (:func:`attribute_spans`): for every span
  path, how much simulation time was spent in total and how much was
  *self* time (total minus the time covered by child spans);
* **flame tables** (:func:`format_flame_table`): the attribution rendered
  as an indented, percentage-annotated table — a text flame graph;
* **critical-path extraction** (:func:`attribute_devices` /
  :func:`critical_path`): which *device* bounded each reconfiguration.

The critical-path algorithm walks the firmware's span tree — the
firmware sequence is the spine of the DES event graph during a
reconfiguration, and each phase blocks on exactly one device chain — and
maps every phase onto the device that bounds it.  The one phase with two
possible masters, ``dma_transfer``, is split using the stream's
backpressure accounting: simulation time the DMA spent stalled on a full
DMA→ICAP FIFO is time the *consumer* (the ICAP write port) was the
bottleneck; the remainder is bounded by the memory-fetch side (DMA
engine + DRAM path).  The device with the largest attributed share of
the reconfiguration is the critical path, published as
``ReconfigResult.critical_path``.

Like the rest of :mod:`repro.obs`, this module is free of simulator
imports: it consumes plain records and returns plain data, so it runs
identically in-process, in sweep workers, and over deserialised
campaign artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "PHASE_DEVICE",
    "SpanStat",
    "attribute_devices",
    "attribute_spans",
    "critical_path",
    "format_flame_table",
    "span_records",
]

#: Which device bounds each firmware phase.  ``dma_transfer`` is split
#: between ``dma`` (memory fetch + burst issue) and ``icap`` (write-port
#: drain) by the stream's backpressure accounting; the mapping here is
#: the remainder's owner.
PHASE_DEVICE: Dict[str, str] = {
    "clock_lock": "clock_wizard",
    "driver_setup": "cpu",
    "dma_transfer": "dma",
    "fault_abort": "dma",
    "icap_drain": "icap",
    "scrub": "scrubber",
}


# ---------------------------------------------------------------------------
# Span extraction + hierarchical attribution
# ---------------------------------------------------------------------------


def span_records(tracer, source: Optional[str] = None) -> List[Mapping[str, Any]]:
    """The structured payloads of every completed span a tracer retained.

    Returns the ``fields`` mappings of ``kind="span"`` records (each
    carries ``span`` path, ``begin_ns``, ``end_ns``, ``duration_us``).
    """
    return [
        record.fields
        for record in tracer.filter(kind="span", source=source)
        if record.fields is not None and "span" in record.fields
    ]


class SpanStat:
    """Aggregated statistics of one span path."""

    __slots__ = ("path", "count", "total_us", "child_us")

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self.total_us = 0.0
        self.child_us = 0.0

    @property
    def depth(self) -> int:
        return self.path.count("/")

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    @property
    def self_us(self) -> float:
        return max(0.0, self.total_us - self.child_us)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "count": self.count,
            "total_us": round(self.total_us, 3),
            "self_us": round(self.self_us, 3),
        }


def attribute_spans(records: Iterable[Mapping[str, Any]]) -> List[SpanStat]:
    """Fold span records into per-path total/self attribution.

    ``records`` are the ``fields`` payloads from :func:`span_records`
    (or any mapping with ``span`` and ``duration_us``).  Repeated paths
    accumulate — a campaign of N reconfigurations produces one row per
    phase, not N.  Rows come back in depth-first path order.
    """
    stats: Dict[str, SpanStat] = {}
    for record in records:
        path = str(record["span"])
        duration = float(record.get("duration_us") or 0.0)
        stat = stats.get(path)
        if stat is None:
            stat = stats[path] = SpanStat(path)
        stat.count += 1
        stat.total_us += duration
        parent_path = path.rsplit("/", 1)[0] if "/" in path else None
        if parent_path is not None:
            parent = stats.get(parent_path)
            if parent is None:
                parent = stats[parent_path] = SpanStat(parent_path)
            parent.child_us += duration
    return [stats[path] for path in sorted(stats)]


def format_flame_table(
    stats: List[SpanStat], title: str = "sim-time profile"
) -> str:
    """Render attribution rows as an indented text flame table."""
    if not stats:
        return f"{title}: no spans recorded"
    roots_total = sum(s.total_us for s in stats if s.depth == 0) or 1.0
    width = max(len("  " * s.depth + s.name) for s in stats)
    lines = [
        title,
        "-" * len(title),
        f"{'span':<{width}}  {'count':>6}  {'total_us':>12}  "
        f"{'self_us':>12}  {'total%':>7}",
    ]
    for stat in stats:
        label = "  " * stat.depth + stat.name
        lines.append(
            f"{label:<{width}}  {stat.count:>6}  {stat.total_us:>12.1f}  "
            f"{stat.self_us:>12.1f}  {100.0 * stat.total_us / roots_total:>6.1f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


def attribute_devices(
    phase_us: Mapping[str, float], fifo_stall_us: float = 0.0
) -> Dict[str, float]:
    """Per-device share of one reconfiguration's phases, in µs.

    ``phase_us`` is a :class:`~repro.core.ReconfigResult` phase
    breakdown; ``fifo_stall_us`` is the simulation time the DMA spent
    blocked on a full DMA→ICAP FIFO during the transfer (the consumer
    was the bottleneck for exactly that long).
    """
    out: Dict[str, float] = {}
    for phase, duration in phase_us.items():
        device = PHASE_DEVICE.get(phase, phase)
        share = float(duration)
        if phase == "dma_transfer":
            stall = min(max(0.0, float(fifo_stall_us)), share)
            if stall > 0.0:
                out["icap"] = out.get("icap", 0.0) + stall
                share -= stall
        out[device] = out.get(device, 0.0) + share
    return out


def critical_path(
    phase_us: Mapping[str, float], fifo_stall_us: float = 0.0
) -> Optional[str]:
    """Name the device that owned the largest share of a reconfiguration.

    Ties break alphabetically so the answer is deterministic.
    """
    devices = attribute_devices(phase_us, fifo_stall_us)
    if not devices:
        return None
    return max(sorted(devices), key=lambda name: devices[name])
