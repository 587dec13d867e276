"""Experiment E6 — Table III: comparison with related work.

Runs every baseline controller at its published operating point on the
reference bitstream and reproduces the comparison table, plus the §V
frequency-scaling narrative (E8): how each design behaves as the clock
rises, including VF-2012's fail/freeze thresholds and HP-2011's
active-feedback clamp.

Regenerate with ``repro-pdr table3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines import (
    BaselineResult,
    Hkt2011Controller,
    Hp2011Controller,
    PcapBaselineController,
    ThisWorkController,
    TransferOutcome,
    Vf2012Controller,
)
from ..core import TABLE1_BITSTREAM_BYTES
from ..exec import SweepRunner, note_events

from .calibration import PAPER_TABLE3
from .report import ExperimentReport, fmt, fmt_err, format_table

__all__ = [
    "Table3Row",
    "run_table3_sweep",
    "table3_point",
    "format_report",
]

#: HKT-2011 is quoted for FIFO-resident bitstreams ("up to 50 KB").
HKT_BITSTREAM_BYTES = 50 * 1024

#: §V scaling-narrative sweep frequencies (MHz).
DEFAULT_SCALING_FREQS = [100.0, 150.0, 210.0, 250.0, 280.0, 310.0, 350.0, 550.0]

#: Sweep-point registry: design key -> controller factory.
DESIGN_FACTORIES = {
    "vf2012": Vf2012Controller,
    "hp2011": Hp2011Controller,
    "hkt2011": Hkt2011Controller,
    "this_work": ThisWorkController,
}


@dataclass
class Table3Row:
    controller: ControllerInfo
    result: BaselineResult
    paper_platform: str
    paper_freq_mhz: float
    paper_throughput_mb_s: float


@dataclass
class ControllerInfo:
    """Plain-data stand-in for a controller in sweep-produced rows.

    Carries exactly the attributes :func:`format_report` reads off
    ``Table3Row.controller`` — the live controller itself stays in the
    worker process.
    """

    design: str
    platform: str
    has_crc_check: bool


def table3_point(design: str, scaling_freqs) -> dict:
    """One design's full Table III + §V measurement (sweep point).

    Builds the controller fresh, runs the published operating point and
    the scaling sweep on the *same* instance (ThisWork's DES system keeps
    its clock-wizard/DRAM state across transfers, as on the bench) and
    returns plain data only.
    """
    controller = DESIGN_FACTORIES[design]()
    size = (
        HKT_BITSTREAM_BYTES
        if isinstance(controller, Hkt2011Controller)
        else TABLE1_BITSTREAM_BYTES
    )
    operating = controller.transfer(size, controller.table3_operating_point())
    sweep = [
        controller.transfer(TABLE1_BITSTREAM_BYTES, freq) for freq in scaling_freqs
    ]
    system = getattr(controller, "system", None)
    if system is not None:
        note_events(system.sim.events_processed)
    return {
        "design": controller.design,
        "platform": controller.platform,
        "has_crc_check": controller.has_crc_check,
        "operating": operating,
        "sweep": sweep,
    }


def run_table3_sweep(
    runner: Optional[SweepRunner] = None,
    frequencies: Optional[List[float]] = None,
):
    """Table III rows + §V scaling sweeps through the sweep runner.

    Returns ``(rows, sweeps)``: one :class:`Table3Row` per design at its
    published operating point, and each design's scaling sweep.  Every
    design is an independent point.
    """
    freqs = [float(f) for f in frequencies or DEFAULT_SCALING_FREQS]
    designs = list(DESIGN_FACTORIES)
    payloads = (runner or SweepRunner()).map(
        "table3",
        table3_point,
        [dict(design=design, scaling_freqs=freqs) for design in designs],
        labels=[f"table3@{design}" for design in designs],
    )
    rows: List[Table3Row] = []
    sweeps: Dict[str, List[BaselineResult]] = {}
    for payload in payloads:
        info = ControllerInfo(
            design=payload["design"],
            platform=payload["platform"],
            has_crc_check=payload["has_crc_check"],
        )
        operating = payload["operating"]
        paper = PAPER_TABLE3.get(info.design)
        if paper is None:
            paper = (info.platform, operating.requested_mhz, 0.0)
        rows.append(
            Table3Row(
                controller=info,
                result=operating,
                paper_platform=paper[0],
                paper_freq_mhz=paper[1],
                paper_throughput_mb_s=paper[2],
            )
        )
        sweeps[info.design] = payload["sweep"]
    return rows, sweeps


def format_report(
    rows: List[Table3Row],
    sweeps: Optional[Dict[str, List[BaselineResult]]] = None,
) -> str:
    """Render Table III plus the scaling sweeps."""
    report = ExperimentReport("Table III — comparison with related work")
    table_rows = []
    for row in rows:
        result = row.result
        table_rows.append(
            [
                row.controller.design,
                row.controller.platform,
                f"{result.effective_mhz:g}",
                fmt(result.throughput_mb_s, 0),
                "yes" if row.controller.has_crc_check else "no",
                fmt(row.paper_throughput_mb_s, 0),
                fmt_err(result.throughput_mb_s, row.paper_throughput_mb_s),
            ]
        )
    report.add(
        format_table(
            ["design", "platform", "MHz", "MB/s", "CRC", "paper MB/s", "err"],
            table_rows,
        )
    )
    ranked = sorted(
        (r for r in rows if r.result.throughput_mb_s),
        key=lambda r: r.result.throughput_mb_s,
        reverse=True,
    )
    order = " > ".join(f"{r.controller.design}" for r in ranked)
    report.add(f"ranking (burst throughput): {order}")
    if sweeps:
        lines = []
        for design, results in sweeps.items():
            cells = []
            for result in results:
                if result.outcome == TransferOutcome.FROZE:
                    cells.append(f"{result.requested_mhz:g}:FROZE")
                elif result.outcome == TransferOutcome.FAILED:
                    cells.append(f"{result.requested_mhz:g}:fail")
                elif result.outcome == TransferOutcome.CLAMPED:
                    cells.append(
                        f"{result.requested_mhz:g}:clamp@{result.effective_mhz:g}"
                    )
                else:
                    cells.append(
                        f"{result.requested_mhz:g}:{result.throughput_mb_s:.0f}"
                    )
            lines.append(f"{design:>10}: " + "  ".join(cells))
        report.add("frequency scaling (MHz:outcome):\n" + "\n".join(lines))
    return report.render()
