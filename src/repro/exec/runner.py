"""The sweep execution engine.

:class:`SweepRunner` executes a :class:`~repro.exec.spec.SweepSpec` —
serially in-process, or fanned out across worker processes with
``jobs > 1`` — and merges results **in point order**, so a parallel run
is byte-identical to a serial one.  Each point is independently
addressable in the :class:`~repro.exec.cache.ResultCache`: a repeated
run only simulates the points the cache has never seen (or whose code
has changed since).

Point functions run inside :func:`_execute_point`, which collects the
kernel event count the function reports via :func:`note_events` into
the per-point :class:`PointStats`;
``benchmarks/test_bench_sweeps.py`` records those event counts to
``BENCH_sweeps.json``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .cache import ResultCache
from .spec import SweepPoint, SweepSpec

__all__ = [
    "PointStats",
    "SweepResult",
    "SweepRunner",
    "default_jobs",
    "note_events",
]

#: Set by :func:`note_events` while a point function runs; read back by
#: :func:`_execute_point` after the function returns.
_POINT_EVENTS: Optional[int] = None


def note_events(events_processed: int) -> None:
    """Report the number of kernel events a point's simulation processed.

    Point functions call this (typically with
    ``system.sim.events_processed``) just before returning, so the
    runner can record the count without reaching into simulator
    objects that never cross the process boundary.
    """
    global _POINT_EVENTS
    _POINT_EVENTS = int(events_processed)


def _execute_point(point: SweepPoint) -> Tuple[Any, Optional[int]]:
    """Run one point; returns ``(payload, events_processed)``.

    Module-level so it is picklable by :class:`ProcessPoolExecutor`.
    """
    global _POINT_EVENTS
    _POINT_EVENTS = None
    function = point.resolve()
    payload = function(**point.kwargs())
    return payload, _POINT_EVENTS


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "auto": the machine's CPU count."""
    return os.cpu_count() or 1


@dataclass
class PointStats:
    """Execution record of one sweep point."""

    label: str
    fn: str
    cached: bool
    events: Optional[int] = None


@dataclass
class SweepResult:
    """Ordered results of one sweep execution."""

    name: str
    values: List[Any]
    stats: List[PointStats] = field(default_factory=list)
    jobs: int = 1

    @property
    def cache_hits(self) -> int:
        return sum(1 for stat in self.stats if stat.cached)

    @property
    def simulated(self) -> int:
        return len(self.stats) - self.cache_hits


class SweepRunner:
    """Executes sweeps: ``jobs`` worker processes + optional result cache.

    ``jobs=1`` (the default) runs every point in-process — the serial
    fallback, and the mode in which per-system telemetry still reaches
    the process-wide :data:`~repro.obs.TELEMETRY_BOOK`.  ``jobs>1`` fans
    uncached points out over a :class:`ProcessPoolExecutor`; results are
    merged back in spec order, so reports do not depend on scheduling.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
        self.jobs = jobs or default_jobs()
        self.cache = cache
        #: Accumulated stats across every sweep this runner executed.
        self.history: List[SweepResult] = []

    # -- convenience -----------------------------------------------------------
    def map(
        self,
        name: str,
        fn: Callable,
        param_sets: Iterable[Dict[str, Any]],
        labels: Iterable[str] = (),
    ) -> List[Any]:
        """Run ``fn`` over ``param_sets``; returns ordered payloads."""
        return self.run(SweepSpec.map(name, fn, param_sets, labels)).values

    # -- execution -------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute every point of ``spec``; results follow spec order."""
        count = len(spec.points)
        values: List[Any] = [None] * count
        stats: List[PointStats] = [
            PointStats(label=point.label, fn=point.fn, cached=False)
            for point in spec.points
        ]

        pending: List[int] = []
        for index, point in enumerate(spec.points):
            if self.cache is not None:
                hit, value = self.cache.get(point)
                if hit:
                    values[index] = value
                    stats[index].cached = True
                    continue
            pending.append(index)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                self._run_parallel(spec, pending, values, stats)
            else:
                self._run_serial(spec, pending, values, stats)
            if self.cache is not None:
                for index in pending:
                    self.cache.put(spec.points[index], values[index])

        result = SweepResult(
            name=spec.name,
            values=values,
            stats=stats,
            jobs=self.jobs,
        )
        self.history.append(result)
        return result

    def _run_serial(
        self,
        spec: SweepSpec,
        pending: List[int],
        values: List[Any],
        stats: List[PointStats],
    ) -> None:
        for index in pending:
            payload, events = _execute_point(spec.points[index])
            values[index] = payload
            stats[index].events = events

    def _run_parallel(
        self,
        spec: SweepSpec,
        pending: List[int],
        values: List[Any],
        stats: List[PointStats],
    ) -> None:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = {
                index: executor.submit(_execute_point, spec.points[index])
                for index in pending
            }
            # Collect in submission (= spec) order; completion order is
            # irrelevant to the merged result.
            for index in pending:
                try:
                    payload, events = futures[index].result()
                except Exception as exc:
                    raise RuntimeError(
                        f"sweep {spec.name!r} point "
                        f"{spec.points[index].label or index} failed: {exc}"
                    ) from exc
                values[index] = payload
                stats[index].events = events
