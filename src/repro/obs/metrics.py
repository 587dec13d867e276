"""Metric primitives and the registry that owns them.

The observability layer follows the classic counter / gauge / histogram
triad, adapted to discrete-event simulation:

* a :class:`Counts` record holds one component's monotonically
  increasing totals (bytes moved, bursts issued, scrub passes) as plain
  attributes.  The model adds to them itself, and the registry that
  handed the record out exports each field as a ``counter``;
* a :class:`Gauge` is a sampled level.  In a DES, averaging raw samples
  is wrong — a FIFO that sits full for 1 ms and empty for 1 µs must not
  average to half-full — so gauges integrate their value over *simulation
  time* and report a time-weighted mean;
* a :class:`Histogram` summarises a distribution of observations
  (per-transfer latencies, queue waits) with exact count/sum/min/max and
  percentile estimates from a bounded, deterministically decimated
  reservoir;
* a :class:`Series` keeps a bounded list of ``(time_ns, value)`` samples
  (bench temperature / board power traces);
* a :class:`Probe` is a zero-argument callable sampled lazily at export
  time — ideal for cheap external counters such as the simulator's
  event count.

All metrics live in a :class:`MetricsRegistry` keyed by dotted
``component.metric`` names (``dma.bytes_moved``, ``icap.stall_cycles``).
Registries export to plain dicts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counts",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NullMetricsRegistry",
    "Probe",
    "Series",
]

#: Default time source for registries detached from a simulator.
_ZERO_CLOCK = lambda: 0.0  # noqa: E731


class Counts:
    """One component's exported counts, as plain attributes.

    The model reads and adds to the fields itself
    (``counts.bytes_moved += n``).  The :class:`MetricsRegistry` that
    handed the record out exports each field it was asked for as a
    ``counter``.  A record holds numbers, never the component, so a
    registry kept for export (the CLI's telemetry capture) does not keep
    a finished system alive.
    """

    def __init__(self, **fields: float):
        self.__dict__.update(fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"Counts({fields})"


class _CountField:
    """The export view of one :class:`Counts` field: a ``counter``."""

    kind = "counter"

    __slots__ = ("_record", "_field")

    def __init__(self, record: Counts, field: str):
        self._record = record
        self._field = field

    @property
    def value(self) -> float:
        return float(getattr(self._record, self._field))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A sampled level, integrated over simulation time.

    Every :meth:`set` closes the interval since the previous set at the
    previous value, accumulating ``value x dt`` into a running integral.
    The time-weighted mean is that integral divided by the observation
    window (first set to now), which is the statistically honest average
    occupancy/level for a discrete-event model.
    """

    kind = "gauge"

    __slots__ = (
        "name",
        "_now_fn",
        "value",
        "min",
        "max",
        "_integral",
        "_first_ns",
        "_last_ns",
        "sets",
    )

    def __init__(self, name: str, now_fn: Callable[[], float]):
        self.name = name
        self._now_fn = now_fn
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._integral = 0.0
        self._first_ns: Optional[float] = None
        self._last_ns: Optional[float] = None
        self.sets = 0

    def set(self, value: float) -> None:
        now = self._now_fn()
        if self.value is None:
            self._first_ns = now
            self.min = self.max = value
        else:
            self._integral += self.value * (now - self._last_ns)
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.value = value
        self._last_ns = now
        self.sets += 1

    def add(self, delta: float) -> None:
        """Adjust the level relative to its current value (0 if unset)."""
        self.set((self.value or 0.0) + delta)

    def time_weighted_mean(self, end_ns: Optional[float] = None) -> Optional[float]:
        """Integral of the level over the observation window, divided by it.

        The final segment — a value set before the end of the window but
        never updated again — integrates its last value through
        ``end_ns`` (the current time when not given), so a gauge that
        was last flushed long before sim end is still accounted
        honestly.  An ``end_ns`` earlier than the last set (a detached
        or rewound time source) clamps to the last set instead of
        subtracting tail mass.
        """
        if self.value is None:
            return None
        end = self._now_fn() if end_ns is None else end_ns
        if end < self._last_ns:
            end = self._last_ns
        window = end - self._first_ns
        if window <= 0:
            return self.value
        integral = self._integral + self.value * (end - self._last_ns)
        return integral / window

    def to_dict(self, end_ns: Optional[float] = None) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "time_weighted_mean": self.time_weighted_mean(end_ns),
            "sets": self.sets,
        }


class Histogram:
    """Summary of a stream of observations with percentile estimates.

    Count, sum, min and max are exact.  Percentiles come from a bounded
    reservoir filled by deterministic decimation: once the reservoir is
    full, every second retained sample is dropped and the sampling
    stride doubles, so the reservoir stays an unbiased systematic sample
    of the observation sequence without any randomness (simulations stay
    reproducible).
    """

    kind = "histogram"

    __slots__ = ("name", "count", "sum", "min", "max", "_reservoir", "_stride", "_skip", "_cap")

    def __init__(self, name: str, reservoir_size: int = 4096):
        if reservoir_size < 2:
            raise ValueError("histogram reservoir must hold at least 2 samples")
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._stride = 1
        self._skip = 0
        self._cap = reservoir_size

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._skip > 0:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        if len(self._reservoir) >= self._cap:
            self._reservoir = self._reservoir[::2]
            self._stride *= 2
            self._skip = self._stride - 1
        self._reservoir.append(value)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, p: float) -> Optional[float]:
        """Linear-interpolated percentile (``p`` in [0, 100]) of the reservoir."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(ordered):
            return ordered[-1]
        return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class Series:
    """A bounded list of ``(time_ns, value)`` samples (oldest dropped)."""

    kind = "series"

    __slots__ = ("name", "_now_fn", "samples", "_limit", "dropped")

    def __init__(self, name: str, now_fn: Callable[[], float], limit: int = 10_000):
        if limit < 1:
            raise ValueError("series must retain at least one sample")
        self.name = name
        self._now_fn = now_fn
        self.samples: List[Tuple[float, float]] = []
        self._limit = limit
        self.dropped = 0

    def sample(self, value: float) -> None:
        if len(self.samples) >= self._limit:
            del self.samples[0]
            self.dropped += 1
        self.samples.append((self._now_fn(), value))

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "count": len(self.samples),
            "dropped": self.dropped,
            "last": self.last,
            "samples": [[t, v] for t, v in self.samples],
        }


class Probe:
    """A lazily sampled external value (read only at export time)."""

    kind = "probe"

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self._fn = fn

    def read(self) -> Any:
        return self._fn()

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.read()}


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``component.metric`` names.

    Components share one registry (owned by the system object) and
    namespace their metrics with their instance name, e.g.
    ``dma.bytes_moved`` or ``crc_scrub.mismatches``.  Asking twice for
    the same name returns the same object; asking for an existing name
    with a different metric type is an error (it would silently fork the
    data).
    """

    def __init__(self, now_fn: Optional[Callable[[], float]] = None, name: str = ""):
        self.name = name
        self.now_fn = now_fn or _ZERO_CLOCK
        self._metrics: Dict[str, Any] = {}
        self._records: Dict[str, Counts] = {}

    # -- get-or-create -------------------------------------------------------
    def _lookup(self, name: str, cls, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counts(self, prefix: str, **fields: float) -> Counts:
        """Get-or-create the count record of ``prefix``.

        Each keyword names a field and its initial value.  A field the
        record does not have yet is added and exported as the counter
        ``<prefix>.<field>``.  Asking again for ``prefix`` returns the
        same record, so components sharing a namespace share its counts.
        """
        record = self._records.get(prefix)
        if record is None:
            record = self._records[prefix] = Counts()
        for field, initial in fields.items():
            if field not in vars(record):
                self._export(f"{prefix}.{field}", record, field)
                setattr(record, field, initial)
        return record

    def _export(self, name: str, record: Counts, field: str) -> None:
        self._lookup(name, _CountField, lambda: _CountField(record, field))

    def gauge(self, name: str) -> Gauge:
        return self._lookup(name, Gauge, lambda: Gauge(name, self.now_fn))

    def histogram(self, name: str, reservoir_size: int = 4096) -> Histogram:
        return self._lookup(name, Histogram, lambda: Histogram(name, reservoir_size))

    def series(self, name: str, limit: int = 10_000) -> Series:
        return self._lookup(name, Series, lambda: Series(name, self.now_fn, limit))

    def probe(self, name: str, fn: Callable[[], float]) -> Probe:
        return self._lookup(name, Probe, lambda: Probe(name, fn))

    # -- inspection ----------------------------------------------------------
    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ----------------------------------------------------------------
    def to_dict(self, end_ns: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Snapshot every metric as plain JSON-serialisable data.

        ``end_ns`` closes every gauge's observation window at an
        explicit timestamp (campaign points snapshot at episode end);
        without it gauges read the registry's live time source.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Gauge):
                out[name] = metric.to_dict(end_ns)
            else:
                out[name] = metric.to_dict()
        return out


class _NullMetric:
    """The compiled-out metric: every mutator is a no-op.

    One shared instance stands in for every gauge/histogram/series/probe
    of a :class:`NullMetricsRegistry`, so instrumented hot paths keep
    their unconditional ``metric.set(...)`` calls and pay only an
    attribute lookup plus an empty method call.  Readable
    attributes exist (zeros / ``None``) so code that *inspects* metrics
    (critical-path attribution, probes) still works unchanged.
    """

    kind = "null"

    __slots__ = ()

    name = "null"
    value = 0.0
    min = None
    max = None
    sets = 0
    count = 0
    sum = 0.0
    samples: Tuple[Tuple[float, float], ...] = ()
    dropped = 0
    last = None

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def sample(self, value: float) -> None:
        pass

    def read(self) -> float:
        return 0.0

    @property
    def mean(self) -> Optional[float]:
        return None

    def time_weighted_mean(self, end_ns: Optional[float] = None) -> Optional[float]:
        return None

    def percentile(self, p: float) -> Optional[float]:
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind}


#: The shared no-op metric instance.
NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """A registry whose every metric is the shared no-op instance.

    Instrumentation compiled out: components wire their probes exactly
    as usual, but nothing is recorded and exports are empty.  Count
    records still count, because the model reads them; they are only
    not exported.  This is the ``PdrSystemConfig(telemetry=False)`` fast
    path the probe-overhead benchmark measures against.
    """

    def _export(self, name: str, record: Counts, field: str) -> None:
        pass

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name: str, reservoir_size: int = 4096) -> Histogram:  # type: ignore[override]
        return NULL_METRIC  # type: ignore[return-value]

    def series(self, name: str, limit: int = 10_000) -> Series:  # type: ignore[override]
        return NULL_METRIC  # type: ignore[return-value]

    def probe(self, name: str, fn: Callable[[], float]) -> Probe:  # type: ignore[override]
        return NULL_METRIC  # type: ignore[return-value]
