"""Experiment E1 — Table I: throughput vs. frequency when over-clocking.

Runs the full DES system at the paper's nine test frequencies (at 40 °C)
and reports configuration latency, throughput and the read-back CRC
verdict next to the published rows.

Regenerate with ``repro-pdr table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import ReconfigResult
from ..exec import SweepRunner
from ..fabric import FirFilterAsp

from .calibration import PAPER_TABLE1
from .points import reconfigure_grid
from .report import ExperimentReport, fmt, fmt_err, format_phase_table, format_table

__all__ = ["Table1Row", "run_table1", "format_report"]

#: The workload ASP (any ASP gives the same transfer size; the paper uses
#: two application bitstreams of identical size).
WORKLOAD_ASP = FirFilterAsp([3, -1, 4, 1, -5, 9, 2, 6])


@dataclass
class Table1Row:
    freq_mhz: float
    result: ReconfigResult
    paper_latency_us: Optional[float]
    paper_throughput_mb_s: Optional[float]
    paper_crc_valid: bool

    @property
    def matches_paper_shape(self) -> bool:
        """Same regime as the paper: measured/not-measured + CRC verdict."""
        measured = self.result.latency_us is not None
        paper_measured = self.paper_latency_us is not None
        return (
            measured == paper_measured
            and self.result.crc_valid == self.paper_crc_valid
        )


def run_table1(
    frequencies: Optional[List[float]] = None,
    region: str = "RP1",
    temp_c: float = 40.0,
    runner: Optional[SweepRunner] = None,
) -> List[Table1Row]:
    """Execute the sweep and pair each row with its paper reference.

    Each frequency is an independent sweep point executed through
    ``runner`` (serial by default, parallel/cached under the CLI flags).
    """
    freqs = list(frequencies or sorted(PAPER_TABLE1))
    results = reconfigure_grid(
        runner,
        "table1",
        region,
        WORKLOAD_ASP,
        [(temp_c, freq) for freq in freqs],
        "table1@{freq:g}MHz",
    )
    rows = []
    for freq, result in zip(freqs, results):
        paper = PAPER_TABLE1.get(freq, (None, None, True))
        rows.append(
            Table1Row(
                freq_mhz=freq,
                result=result,
                paper_latency_us=paper[0],
                paper_throughput_mb_s=paper[1],
                paper_crc_valid=paper[2],
            )
        )
    return rows


def format_report(rows: List[Table1Row]) -> str:
    """Render Table I with measured-vs-paper columns."""
    report = ExperimentReport(
        "Table I — throughput vs. frequency when over-clocking (40 C)"
    )
    table_rows = []
    for row in rows:
        r = row.result
        table_rows.append(
            [
                f"{row.freq_mhz:g}",
                fmt(r.latency_us, 2, na="N/A no interrupt"),
                fmt(r.throughput_mb_s),
                "valid" if r.crc_valid else "not valid",
                fmt(row.paper_latency_us, 2, na="N/A"),
                fmt(row.paper_throughput_mb_s),
                "valid" if row.paper_crc_valid else "not valid",
                fmt_err(r.latency_us, row.paper_latency_us),
            ]
        )
    report.add(
        format_table(
            [
                "MHz",
                "latency us",
                "MB/s",
                "CRC",
                "paper us",
                "paper MB/s",
                "paper CRC",
                "err",
            ],
            table_rows,
        )
    )
    shape_ok = all(row.matches_paper_shape for row in rows)
    report.add(
        f"shape check (measured/N-A pattern + CRC verdicts match paper): "
        f"{'PASS' if shape_ok else 'FAIL'}"
    )
    report.add(
        "firmware phase breakdown:\n"
        + format_phase_table(
            [(f"{row.freq_mhz:g} MHz", row.result) for row in rows]
        )
    )
    return report.render()
