"""Experiment E7 — §VI: the proposed SRAM-based PR environment.

Measures the simulated end-to-end system against the paper's theoretical
estimate (550 MHz · 36 bit / 2 = 1237.5 MB/s), and quantifies the two
mechanisms the proposal adds beyond raw bandwidth:

* bitstream decompression (effective throughput beyond the SRAM rate),
* PS-scheduler preloading (staging hidden behind useful work).

Regenerate with ``repro-pdr proposed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import PdrSystem
from ..fabric import Aes128Asp, FirFilterAsp
from ..sram_pr import SramPrSystem, THEORETICAL_THROUGHPUT_MB_S

from .report import ExperimentReport, fmt, format_table
from .table1 import WORKLOAD_ASP

__all__ = ["ProposedData", "run_proposed", "format_report"]


@dataclass
class ProposedData:
    #: Fig. 2 system at its best power-efficiency point (200 MHz).
    current_latency_us: float
    current_throughput_mb_s: float
    #: §VI system, uncompressed image.
    plain_activation_us: float
    plain_throughput_mb_s: float
    plain_preload_us: float
    #: §VI system, compressed image.
    compressed_activation_us: float
    compressed_throughput_mb_s: float
    compressed_preload_us: float
    compression_ratio: float
    theoretical_mb_s: float = THEORETICAL_THROUGHPUT_MB_S


def run_proposed(pdr_system: Optional[PdrSystem] = None) -> ProposedData:
    """Measure the SectionVI system against the Fig. 2 baseline."""
    pdr_system = pdr_system or PdrSystem()
    pdr_system.set_die_temperature(40.0)
    current = pdr_system.reconfigure("RP1", WORKLOAD_ASP, 200.0)

    sram_system = SramPrSystem()
    plain = sram_system.reconfigure("RP1", Aes128Asp([9, 9, 9, 9]), compress=False)
    compressed = sram_system.reconfigure(
        "RP2", FirFilterAsp([5, 4, 3, 2, 1]), compress=True
    )

    return ProposedData(
        current_latency_us=current.latency_us,
        current_throughput_mb_s=current.throughput_mb_s,
        plain_activation_us=plain.activation_latency_us,
        plain_throughput_mb_s=plain.throughput_mb_s,
        plain_preload_us=plain.preload_us,
        compressed_activation_us=compressed.activation_latency_us,
        compressed_throughput_mb_s=compressed.throughput_mb_s,
        compressed_preload_us=compressed.preload_us,
        compression_ratio=compressed.activation.compression_ratio,
    )


def format_report(data: ProposedData) -> str:
    """Render the SectionVI comparison table and analysis."""
    report = ExperimentReport("SectionVI — proposed SRAM-based PR environment")
    rows = [
        [
            "current (Fig.2, 200 MHz)",
            fmt(data.current_latency_us, 1),
            fmt(data.current_throughput_mb_s, 1),
            "-",
        ],
        [
            "proposed, uncompressed",
            fmt(data.plain_activation_us, 1),
            fmt(data.plain_throughput_mb_s, 1),
            fmt(data.plain_preload_us, 1),
        ],
        [
            "proposed, compressed",
            fmt(data.compressed_activation_us, 1),
            fmt(data.compressed_throughput_mb_s, 1),
            fmt(data.compressed_preload_us, 1),
        ],
    ]
    report.add(
        format_table(
            ["system", "activation us", "MB/s", "preload us (hideable)"],
            rows,
        )
    )
    speedup = data.plain_throughput_mb_s / data.current_throughput_mb_s
    report.add(
        f"theoretical estimate: {data.theoretical_mb_s:.1f} MB/s "
        f"(paper SectionVI arithmetic)\n"
        f"simulated uncompressed: {data.plain_throughput_mb_s:.1f} MB/s "
        f"({data.plain_throughput_mb_s / data.theoretical_mb_s * 100:.1f}% of theory)\n"
        f"vs current system: {speedup:.2f}x "
        f"(paper: 'almost double the one measured')\n"
        f"compression ratio {data.compression_ratio:.2f} pushes the effective "
        f"rate to {data.compressed_throughput_mb_s:.1f} MB/s (ICAP-clock bound)"
    )
    return report.render()
