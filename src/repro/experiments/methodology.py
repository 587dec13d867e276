"""The paper's closing methodology, generalised.

"The power dissipation and temperature analysis ... can be extended to
any IP block implemented in the FPGA to determine its best trade-off
throughput vs. energy, and design the most power efficient accelerator
for the specific application and platform."

This module implements that methodology as a reusable procedure:

1. sweep the block's clock across candidate frequencies,
2. measure throughput at each point (``None`` marks a failed point —
   past fmax, CRC error, no completion),
3. measure (or model) power at each point,
4. rank by performance-per-watt and report the knee.

``characterize_pdr_system`` binds the procedure to the paper's own PDR
block, reproducing Table II's conclusion; ``characterize_block`` accepts
any user-supplied measurement callable, so the same harness tunes, say, a
filter ASP or a compression engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..fabric import Asp, FirFilterAsp
from ..power import PowerModel

from .points import asp_descriptor, reconfigure_point
from .report import ExperimentReport, fmt, format_table

__all__ = [
    "OperatingPoint",
    "Characterization",
    "characterize_block",
    "characterize_pdr_system",
    "format_report",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One (frequency, throughput, power) sample of a block."""

    freq_mhz: float
    throughput_mb_s: Optional[float]  #: None = the block failed here
    power_w: float

    @property
    def ok(self) -> bool:
        return self.throughput_mb_s is not None

    @property
    def efficiency_mb_j(self) -> Optional[float]:
        if self.throughput_mb_s is None or self.power_w <= 0:
            return None
        return self.throughput_mb_s / self.power_w


@dataclass
class Characterization:
    """Result of sweeping one block."""

    block_name: str
    points: List[OperatingPoint]

    def working_points(self) -> List[OperatingPoint]:
        return [p for p in self.points if p.ok]

    def best_efficiency(self) -> OperatingPoint:
        """The most power-efficient working point (the paper's target)."""
        working = self.working_points()
        if not working:
            raise ValueError(f"{self.block_name}: no working operating points")
        return max(working, key=lambda p: p.efficiency_mb_j)

    def best_throughput(self) -> OperatingPoint:
        working = self.working_points()
        if not working:
            raise ValueError(f"{self.block_name}: no working operating points")
        return max(working, key=lambda p: p.throughput_mb_s)

    def max_working_frequency(self) -> float:
        working = self.working_points()
        if not working:
            raise ValueError(f"{self.block_name}: no working operating points")
        return max(p.freq_mhz for p in working)

    def headroom_worth_it(self, tolerance: float = 0.02) -> bool:
        """Is the fastest point within ``tolerance`` of the most efficient
        one's throughput?  If so, chasing frequency buys nothing."""
        best_eff = self.best_efficiency()
        best_thr = self.best_throughput()
        gain = best_thr.throughput_mb_s / best_eff.throughput_mb_s - 1.0
        return gain > tolerance


def characterize_block(
    block_name: str,
    measure_throughput: Callable[[float], Optional[float]],
    power_model: PowerModel,
    frequencies: Sequence[float],
    temp_c: float = 40.0,
) -> Characterization:
    """Run the methodology on an arbitrary block.

    ``measure_throughput(freq)`` returns MB/s or ``None`` on failure;
    power comes from the shared power model at the block's clock.
    """
    points = []
    for freq in frequencies:
        throughput = measure_throughput(freq)
        points.append(
            OperatingPoint(
                freq_mhz=freq,
                throughput_mb_s=throughput,
                power_w=power_model.pdr_power_w(freq, temp_c),
            )
        )
    return Characterization(block_name=block_name, points=points)


def characterize_pdr_system(
    frequencies: Sequence[float] = (100, 140, 180, 200, 240, 280, 310),
    region: str = "RP1",
    asp: Optional[Asp] = None,
) -> Characterization:
    """The methodology applied to the paper's own PDR block.

    Each frequency is measured on a fresh system at 40 °C, as every
    sweep point is: a load on a system that has run before would start
    at another phase of the global timer's tick.
    """
    workload = asp_descriptor(asp or FirFilterAsp([1, 2, 3]))

    def measure(freq: float) -> Optional[float]:
        result = reconfigure_point(region, freq, 40.0, workload)
        if not result.succeeded:
            return None
        return result.throughput_mb_s

    return characterize_block(
        "over-clocked DMA+ICAP PDR",
        measure,
        PowerModel(),
        frequencies,
    )


def format_report(characterization: Characterization) -> str:
    """Render the operating-point table and verdicts."""
    report = ExperimentReport(
        f"Operating-point methodology — {characterization.block_name}"
    )
    rows = []
    for point in characterization.points:
        rows.append(
            [
                f"{point.freq_mhz:g}",
                fmt(point.throughput_mb_s, 1, na="failed"),
                fmt(point.power_w),
                fmt(point.efficiency_mb_j, 0, na="-"),
            ]
        )
    report.add(format_table(["MHz", "MB/s", "P [W]", "MB/J"], rows))
    best = characterization.best_efficiency()
    fastest = characterization.best_throughput()
    report.add(
        f"most power-efficient point: {best.freq_mhz:g} MHz "
        f"({best.efficiency_mb_j:.0f} MB/J)\n"
        f"fastest working point:      {fastest.freq_mhz:g} MHz "
        f"({fastest.throughput_mb_s:.1f} MB/s)\n"
        f"frequency headroom beyond the efficient point is "
        f"{'worth it' if characterization.headroom_worth_it() else 'NOT worth it'} "
        f"(<2% throughput gain)"
    )
    return report.render()
