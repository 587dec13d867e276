"""Experiment E3 — Fig. 6: power dissipation vs. frequency and temperature.

Measures P_PDR through the board current-sense path at every frequency ×
temperature combination the paper plots (temperature steps of 20 °C for
clarity, as in the figure), and checks the figure's two structural
observations: the dynamic slope is temperature-independent, and the
static offset grows super-linearly with temperature.

Regenerate with ``repro-pdr fig6``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import Series, linear_fit, render_plot
from ..exec import SweepRunner

from .points import reconfigure_grid
from .report import ExperimentReport, format_table
from .table1 import WORKLOAD_ASP

__all__ = ["Fig6Data", "run_fig6", "format_report"]

PLOT_TEMPS_C = [40.0, 60.0, 80.0, 100.0]
PLOT_FREQS_MHZ = [100.0, 140.0, 180.0, 200.0, 240.0, 280.0, 310.0]


@dataclass
class Fig6Data:
    #: temp -> Series of (freq, P_PDR W), measured during real transfers.
    curves: Dict[float, Series]
    #: temp -> fitted (slope W/MHz, intercept W).
    fits: Dict[float, tuple]

    def slope_spread(self) -> float:
        """Max relative deviation of the per-temperature dynamic slopes."""
        slopes = [fit[0] for fit in self.fits.values()]
        mean = sum(slopes) / len(slopes)
        return max(abs(s - mean) / mean for s in slopes)

    def static_offsets(self) -> List[float]:
        """Fitted intercepts ordered by temperature."""
        return [self.fits[t][1] for t in sorted(self.fits)]

    def offsets_superlinear(self) -> bool:
        """Fig. 6's 'more than linear increase of power with temperature'."""
        offsets = self.static_offsets()
        deltas = [b - a for a, b in zip(offsets, offsets[1:])]
        return all(d2 > d1 for d1, d2 in zip(deltas, deltas[1:]))


def run_fig6(
    temps_c: Optional[List[float]] = None,
    freqs_mhz: Optional[List[float]] = None,
    region: str = "RP1",
    runner: Optional[SweepRunner] = None,
) -> Fig6Data:
    """Measure P_PDR at every frequency x temperature point."""
    temps = list(temps_c or PLOT_TEMPS_C)
    freqs = list(freqs_mhz or PLOT_FREQS_MHZ)
    grid = [(temp, freq) for temp in temps for freq in freqs]
    results = reconfigure_grid(
        runner, "fig6", region, WORKLOAD_ASP, grid, "fig6@{freq:g}MHz/{temp:g}C"
    )
    curves: Dict[float, Series] = {}
    fits: Dict[float, tuple] = {}
    for (temp, _freq), result in zip(grid, results):
        series = curves.setdefault(temp, Series(f"{temp:g} C"))
        series.append(result.freq_mhz, result.pdr_power_w)
    for temp, series in curves.items():
        fits[temp] = linear_fit(series.x, series.y)
    return Fig6Data(curves=curves, fits=fits)


def format_report(data: Fig6Data) -> str:
    """Render the Fig. 6 plot and its structural checks."""
    report = ExperimentReport(
        "Fig. 6 — power dissipation vs. frequency and die temperature"
    )
    report.add(
        render_plot(
            [data.curves[t] for t in sorted(data.curves)],
            title="P_PDR vs frequency at 40/60/80/100 C",
            x_label="frequency [MHz]",
            y_label="P_PDR [W]",
        )
    )
    rows = []
    for temp in sorted(data.fits):
        slope, intercept = data.fits[temp]
        rows.append([f"{temp:g}", f"{slope * 1e3:.3f}", f"{intercept:.3f}"])
    report.add(
        format_table(["T [C]", "slope [mW/MHz]", "static offset [W]"], rows)
    )
    report.add(
        f"dynamic slope spread across temperatures: "
        f"{data.slope_spread() * 100:.2f}% "
        f"(paper: 'the slope is constant at the different temperatures')\n"
        f"static offset super-linear in T: {data.offsets_superlinear()} "
        f"(paper: 'more than linear increase of power with temperature')"
    )
    return report.render()
