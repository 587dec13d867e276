"""Phase spans: begin/end sim-time intervals for firmware sequences.

A :class:`Span` is one named interval of simulation time; a
:class:`SpanRecorder` hands them out as context managers and keeps the
completed ones.  Spans nest — the recorder maintains a stack, so a span
opened inside another becomes its child and carries a ``/``-joined path
(``reconfigure/dma_transfer``).

The recorder is deliberately simulator-agnostic: it only needs a clock
whose ``now`` attribute reads the current time in nanoseconds, and
optionally mirrors every completed span into a
:class:`~repro.sim.trace.Tracer` (as a structured ``kind="span"``
record) and into a :class:`~repro.obs.metrics.MetricsRegistry`
histogram (``<prefix><name>_us``).

Context managers compose cleanly with generator-based simulation
processes: the ``with`` block may contain any number of ``yield``
statements, and the span's endpoints are read at whatever simulation
times the process enters and leaves the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    """One named interval of simulation time (``end_ns`` None while open)."""

    name: str
    begin_ns: float
    end_ns: Optional[float] = None
    parent: Optional[str] = None  #: path of the enclosing span, if any
    depth: int = 0
    fields: Dict[str, object] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return f"{self.parent}/{self.name}" if self.parent else self.name

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> Optional[float]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.begin_ns

    @property
    def duration_us(self) -> Optional[float]:
        duration = self.duration_ns
        return None if duration is None else duration / 1e3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.closed:
            return f"<Span {self.path} {self.duration_us:.3f}us>"
        return f"<Span {self.path} open @{self.begin_ns:g}ns>"


class SpanRecorder:
    """Stack-based span factory bound to one time source.

    Parameters
    ----------
    clock:
        Its ``now`` is the current simulation time in nanoseconds (the
        simulator, as a rule).
    tracer:
        Optional trace sink; every completed span is emitted as a
        structured record with ``kind="span"``.
    source:
        Trace source label used for emitted records.
    metrics:
        Optional registry; each completed span observes
        ``<metrics_prefix><name>_us`` as a histogram sample.
    """

    def __init__(
        self,
        clock,
        tracer=None,
        source: str = "span",
        metrics=None,
        metrics_prefix: str = "span.",
    ):
        self.clock = clock
        self.tracer = tracer
        self.source = source
        self.metrics = metrics
        self.metrics_prefix = metrics_prefix
        self.completed: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **fields):
        """Open a span; closes (and records) when the block exits."""
        parent = self._stack[-1].path if self._stack else None
        entry = Span(
            name=name,
            begin_ns=self.clock.now,
            parent=parent,
            depth=len(self._stack),
            fields=dict(fields),
        )
        self._stack.append(entry)
        try:
            yield entry
        finally:
            self._stack.pop()
            entry.end_ns = self.clock.now
            self.completed.append(entry)
            if self.metrics is not None:
                self.metrics.histogram(
                    f"{self.metrics_prefix}{name}_us"
                ).observe(entry.duration_us)
            if self.tracer is not None:
                self.tracer.emit(
                    entry.end_ns,
                    self.source,
                    f"span {entry.path} took {entry.duration_us:.3f} us",
                    kind="span",
                    fields={
                        "span": entry.path,
                        "begin_ns": entry.begin_ns,
                        "end_ns": entry.end_ns,
                        "duration_us": entry.duration_us,
                        **entry.fields,
                    },
                )

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def breakdown_us(self, parent: Optional[str] = None) -> Dict[str, float]:
        """Durations of completed spans keyed by leaf name.

        With ``parent`` given, only direct children of that span path are
        included (the usual "phases of one sequence" view).  Repeated
        names accumulate.
        """
        out: Dict[str, float] = {}
        for span in self.completed:
            if parent is not None and span.parent != parent:
                continue
            if parent is None and span.parent is not None:
                continue
            out[span.name] = out.get(span.name, 0.0) + (span.duration_us or 0.0)
        return out

    def clear(self) -> None:
        self.completed.clear()
