"""Shared sweep point functions.

Every experiment harness decomposes into independent *points* — one
simulation per (frequency, temperature, workload, configuration) tuple —
executed through :class:`repro.exec.SweepRunner`.  A point function must
be a **module-level callable taking only plain-data kwargs** so it can
cross a process boundary and give the on-disk result cache a canonical
key.  The common case, one over-clocked reconfiguration on a fresh
:class:`~repro.core.PdrSystem`, lives here; experiment-specific points
(baseline controllers, campaigns, perturbed systems) live next to their
experiment module.

The Table I/II, Fig. 5/6 and §IV-A stress drivers have one path: each
maps :func:`reconfigure_point` over its frequency × temperature grid
with :func:`reconfigure_grid`, through the runner ``repro-pdr`` hands
it (a serial one when called directly).  A library call and the CLI
therefore print the same digits, whatever ``--jobs`` or ``--cache``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core import PdrSystem, PdrSystemConfig, ReconfigResult
from ..exec import SweepRunner, note_events
from ..fabric import Asp, instantiate_asp

__all__ = [
    "asp_descriptor",
    "campaign_point",
    "make_point_system",
    "reconfigure_grid",
    "reconfigure_point",
]


def asp_descriptor(asp: Asp) -> Tuple[int, Tuple[int, ...]]:
    """Plain-data identity of an ASP: ``(kind, params)``.

    Rebuild the ASP with :func:`repro.fabric.instantiate_asp` — the same
    round-trip the configuration frames themselves use.
    """
    return (asp.kind, tuple(asp.params()))


def make_point_system(
    region: str, workload: Tuple[int, Tuple[int, ...]], config=None
) -> PdrSystem:
    """A fresh system with ``workload``'s bitstream staged for ``region``.

    ``config`` is an optional mapping of ``PdrSystemConfig`` overrides.
    Building and staging are untimed provisioning, done here so the
    point starts at the timed reconfiguration.
    """
    system = PdrSystem(PdrSystemConfig(**(config or {})))
    asp = instantiate_asp(workload[0], list(workload[1]))
    system.stage_bitstream(system.make_bitstream(region, asp))
    return system


def reconfigure_point(
    region: str,
    freq_mhz: float,
    temp_c: float,
    workload: Tuple[int, Tuple[int, ...]],
    config=None,
) -> ReconfigResult:
    """One complete over-clocked PDR measurement on a fresh system.

    The point behind Table I, Table II, Fig. 5, Fig. 6 and the §IV-A
    stress matrix; ``workload`` is an :func:`asp_descriptor` tuple and
    ``config`` an optional mapping of ``PdrSystemConfig`` overrides.
    """
    system = make_point_system(region, workload, config)
    system.set_die_temperature(temp_c)
    asp = instantiate_asp(workload[0], list(workload[1]))
    result = system.reconfigure(region, asp, freq_mhz)
    note_events(system.sim.events_processed)
    return result


def reconfigure_grid(
    runner: Optional[SweepRunner],
    name: str,
    region: str,
    asp: Asp,
    grid: Sequence[Tuple[float, float]],
    label: str,
) -> List[ReconfigResult]:
    """One :func:`reconfigure_point` of ``asp`` per ``(temp_c, freq_mhz)``.

    The points run through ``runner`` (serial when ``None``) as the sweep
    ``name``, in ``grid`` order; ``label`` is formatted with each point's
    ``freq`` and ``temp``.
    """
    workload = asp_descriptor(asp)
    return (runner or SweepRunner()).map(
        name,
        reconfigure_point,
        [
            dict(region=region, freq_mhz=freq, temp_c=temp, workload=workload)
            for temp, freq in grid
        ],
        labels=[label.format(freq=freq, temp=temp) for temp, freq in grid],
    )


def campaign_point(
    region: str,
    freq_mhz: float,
    temp_c: float,
    workload: Tuple[int, Tuple[int, ...]],
    config=None,
) -> dict:
    """A :func:`reconfigure_point` flattened into a campaign record.

    Returns the plain-data shape :func:`repro.obs.campaign.aggregate_campaign`
    folds: the headline result fields, the per-phase/per-device breakdown,
    the named critical-path device, and a full metrics snapshot closed at
    the simulation's final timestamp (so time-weighted gauges integrate
    their tail segment).  Plain data end to end — it crosses the
    ``--jobs N`` process boundary and caches byte-identically.
    """
    system = make_point_system(region, workload, config)
    system.set_die_temperature(temp_c)
    asp = instantiate_asp(workload[0], list(workload[1]))
    result = system.reconfigure(region, asp, freq_mhz)
    note_events(system.sim.events_processed)
    return {
        "label": f"{region}@{freq_mhz:g}MHz/{temp_c:g}C",
        "region": region,
        "freq_mhz": result.freq_mhz,
        "requested_freq_mhz": freq_mhz,
        "temp_c": temp_c,
        "latency_us": result.latency_us,
        "latency_unavailable_reason": result.latency_unavailable_reason,
        "throughput_mb_s": result.throughput_mb_s,
        "pdr_power_w": result.pdr_power_w,
        "events": float(system.sim.events_processed),
        "availability": 1.0 if result.succeeded else 0.0,
        "succeeded": result.succeeded,
        "phase_us": dict(result.phase_us),
        "device_us": dict(result.device_us),
        "critical_path": result.critical_path,
        "metrics": system.metrics.to_dict(end_ns=system.sim.now),
    }
