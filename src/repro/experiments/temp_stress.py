"""Experiment E5 — §IV-A temperature stress.

Repeats the Table I tests up to 310 MHz at die temperatures 40–100 °C in
10 °C steps (heat gun on the heat sink).  The paper: "All the tests
succeeded except the test done at 310 MHz and 100 °C which failed."

Success criterion, as in the paper, is the read-back CRC: the 310 MHz
column never delivers a completion interrupt (control path), but the
bitstream still loads correctly below 100 °C.

Regenerate with ``repro-pdr temp-stress``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec import SweepRunner

from .calibration import (
    PAPER_STRESS_FAILURES,
    PAPER_STRESS_FREQS_MHZ,
    PAPER_STRESS_TEMPS_C,
)
from .points import reconfigure_grid
from .report import ExperimentReport, format_table
from .table1 import WORKLOAD_ASP

__all__ = ["StressMatrix", "run_temp_stress", "format_report"]


@dataclass
class StressMatrix:
    temps_c: List[float]
    freqs_mhz: List[float]
    #: (freq, temp) -> crc_valid
    cells: Dict[Tuple[float, float], bool] = field(default_factory=dict)

    def failures(self) -> List[Tuple[float, float]]:
        return sorted(key for key, ok in self.cells.items() if not ok)

    def matches_paper(self) -> bool:
        return self.failures() == sorted(PAPER_STRESS_FAILURES)


def run_temp_stress(
    temps_c: Optional[List[float]] = None,
    freqs_mhz: Optional[List[float]] = None,
    region: str = "RP2",
    runner: Optional[SweepRunner] = None,
) -> StressMatrix:
    """Run the full frequency x temperature stress grid."""
    temps = list(temps_c or PAPER_STRESS_TEMPS_C)
    freqs = list(freqs_mhz or PAPER_STRESS_FREQS_MHZ)
    matrix = StressMatrix(temps_c=temps, freqs_mhz=freqs)
    grid = [(temp, freq) for temp in temps for freq in freqs]
    results = reconfigure_grid(
        runner,
        "temp_stress",
        region,
        WORKLOAD_ASP,
        grid,
        "stress@{freq:g}MHz/{temp:g}C",
    )
    for (temp, freq), result in zip(grid, results):
        matrix.cells[(freq, temp)] = result.crc_valid
    return matrix


def format_report(matrix: StressMatrix) -> str:
    """Render the stress matrix and its frontier check."""
    report = ExperimentReport("SectionIV-A — temperature stress (heat gun, 40-100 C)")
    headers = ["MHz \\ C"] + [f"{t:g}" for t in matrix.temps_c]
    rows = []
    for freq in matrix.freqs_mhz:
        row = [f"{freq:g}"]
        for temp in matrix.temps_c:
            row.append("pass" if matrix.cells[(freq, temp)] else "FAIL")
        rows.append(row)
    report.add(format_table(headers, rows))
    report.add(
        f"failures: {matrix.failures()}   "
        f"(paper: {sorted(PAPER_STRESS_FAILURES)})\n"
        f"matches paper frontier: {'PASS' if matrix.matches_paper() else 'FAIL'}"
    )
    return report.render()
