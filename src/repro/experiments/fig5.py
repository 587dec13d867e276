"""Experiment E2 — Fig. 5: the throughput/frequency plane.

A denser frequency sweep than Table I, plotted as ASCII, with the knee
located by a two-segment change-point fit.  The paper: "the throughput
increases linearly until about 200 MHz when the curve flattens".

Regenerate with ``repro-pdr fig5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis import Series, knee_frequency, render_plot
from ..exec import SweepRunner

from .calibration import PAPER_FIG5_KNEE_MHZ, PAPER_MAX_THROUGHPUT_MB_S, PAPER_TABLE1
from .points import reconfigure_grid
from .report import ExperimentReport
from .table1 import WORKLOAD_ASP

__all__ = ["Fig5Data", "run_fig5", "format_report"]

#: Default sweep: 20 MHz steps through the working range.
DEFAULT_SWEEP = [100.0 + 20.0 * i for i in range(11)]  # 100..300


@dataclass
class Fig5Data:
    measured: Series
    paper: Series
    knee_mhz: Optional[float]
    max_throughput_mb_s: float


def run_fig5(
    frequencies: Optional[List[float]] = None,
    region: str = "RP1",
    runner: Optional[SweepRunner] = None,
) -> Fig5Data:
    """Sweep the frequency range and collect the throughput series."""
    freqs = list(frequencies or DEFAULT_SWEEP)
    results = reconfigure_grid(
        runner,
        "fig5",
        region,
        WORKLOAD_ASP,
        [(40.0, freq) for freq in freqs],
        "fig5@{freq:g}MHz",
    )
    measured = Series("simulated")
    for result in results:
        if result.throughput_mb_s is not None:
            measured.append(result.freq_mhz, result.throughput_mb_s)
    paper = Series("paper")
    for freq, (_lat, throughput, _crc) in sorted(PAPER_TABLE1.items()):
        if throughput is not None:
            paper.append(freq, throughput)
    return Fig5Data(
        measured=measured,
        paper=paper,
        knee_mhz=knee_frequency(measured.x, measured.y),
        max_throughput_mb_s=max(measured.y) if measured.y else 0.0,
    )


def format_report(data: Fig5Data) -> str:
    """Render the Fig. 5 plot, knee analysis and CSV."""
    report = ExperimentReport("Fig. 5 — throughput vs. frequency")
    report.add(
        render_plot(
            [data.measured, data.paper],
            title="Throughput vs ICAP frequency",
            x_label="frequency [MHz]",
            y_label="throughput [MB/s]",
        )
    )
    knee = f"{data.knee_mhz:.0f} MHz" if data.knee_mhz else "not found"
    report.add(
        f"knee (two-segment fit): {knee}   "
        f"(paper: ~{PAPER_FIG5_KNEE_MHZ:.0f} MHz)\n"
        f"max throughput: {data.max_throughput_mb_s:.2f} MB/s   "
        f"(paper: {PAPER_MAX_THROUGHPUT_MB_S:.2f} MB/s)"
    )
    report.add("CSV (simulated):\n" + data.measured.to_csv("freq_mhz", "mb_per_s"))
    return report.render()
