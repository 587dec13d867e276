"""Experiment E4 — Table II: power efficiency of over-clocking at 40 °C.

PpW = throughput / P_PDR [MB/J].  The paper's takeaway: throughput
plateaus at 200 MHz while power keeps rising, so 200 MHz is the most
power-efficient operating point (~600 MB/J).

Regenerate with ``repro-pdr table2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import ReconfigResult
from ..exec import SweepRunner

from .calibration import PAPER_TABLE2
from .points import reconfigure_grid
from .report import ExperimentReport, fmt, fmt_err, format_table
from .table1 import WORKLOAD_ASP

__all__ = ["Table2Row", "run_table2", "format_report", "best_operating_point"]


@dataclass
class Table2Row:
    freq_mhz: float
    result: ReconfigResult
    paper_power_w: float
    paper_throughput_mb_s: float
    paper_efficiency_mb_j: float


def run_table2(
    region: str = "RP1",
    runner: Optional[SweepRunner] = None,
) -> List[Table2Row]:
    """Run the Table II sweep at 40 C."""
    freqs = sorted(PAPER_TABLE2)
    results = reconfigure_grid(
        runner,
        "table2",
        region,
        WORKLOAD_ASP,
        [(40.0, freq) for freq in freqs],
        "table2@{freq:g}MHz",
    )
    rows = []
    for freq, result in zip(freqs, results):
        power, throughput, efficiency = PAPER_TABLE2[freq]
        rows.append(
            Table2Row(
                freq_mhz=freq,
                result=result,
                paper_power_w=power,
                paper_throughput_mb_s=throughput,
                paper_efficiency_mb_j=efficiency,
            )
        )
    return rows


def best_operating_point(rows: List[Table2Row]) -> Table2Row:
    """The row with the highest measured power efficiency."""
    candidates = [r for r in rows if r.result.power_efficiency_mb_per_j]
    if not candidates:
        raise ValueError("no successful transfers to rank")
    return max(candidates, key=lambda r: r.result.power_efficiency_mb_per_j)


def format_report(rows: List[Table2Row]) -> str:
    """Render Table II with measured-vs-paper columns."""
    report = ExperimentReport("Table II — power efficiency at 40 C")
    table_rows = []
    for row in rows:
        r = row.result
        table_rows.append(
            [
                f"{row.freq_mhz:g}",
                fmt(r.pdr_power_w),
                fmt(r.throughput_mb_s),
                fmt(r.power_efficiency_mb_per_j, 0),
                fmt(row.paper_power_w),
                fmt(row.paper_throughput_mb_s),
                fmt(row.paper_efficiency_mb_j, 0),
                fmt_err(r.power_efficiency_mb_per_j, row.paper_efficiency_mb_j),
            ]
        )
    report.add(
        format_table(
            [
                "MHz",
                "P_PDR W",
                "MB/s",
                "MB/J",
                "paper W",
                "paper MB/s",
                "paper MB/J",
                "err",
            ],
            table_rows,
        )
    )
    best = best_operating_point(rows)
    report.add(
        f"most power-efficient point: {best.freq_mhz:g} MHz at "
        f"{best.result.power_efficiency_mb_per_j:.0f} MB/J "
        f"(paper: 200 MHz at ~599 MB/J)"
    )
    return report.render()
