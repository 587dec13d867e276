"""Experiment E9 — fault-injection recovery campaign.

The paper stops at *detection*: a missing completion interrupt or a
read-back CRC error tells the firmware the over-clocked transfer failed.
This campaign exercises the other half of the robustness story — the
:mod:`repro.resilience` layer — by deliberately driving the ICAP across
the failure frontier (100–360 MHz × 40–100 °C) and letting the
:class:`~repro.resilience.ResilientReconfigurator` fight back: DMA
reset + ICAP abort on a hang, golden re-write with frequency backoff on
corruption.

Reported per grid cell: first-try success, recovery after N attempts
(``rec:N``), or attempt-budget exhaustion (``FAIL``).  The headline
numbers are the success-after-retry rate over all injected failures
(acceptance floor: 95 %) and the recovery-latency distribution.

Regenerate with ``repro-pdr recovery``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import PdrSystem
from ..exec import SweepRunner, note_events
from ..fabric import instantiate_asp
from ..resilience import RecoveryOutcome, RecoveryPolicy, ResilientReconfigurator

from .points import asp_descriptor
from .report import ExperimentReport, format_table
from .table1 import WORKLOAD_ASP

__all__ = [
    "CAMPAIGN_FREQS_MHZ",
    "CAMPAIGN_TEMPS_C",
    "RecoveryCampaign",
    "format_report",
    "recovery_point",
    "run_recovery",
]

#: Sweep grid: well inside spec (100 MHz) to far across the failure
#: frontier (360 MHz), at the §IV-A heat-gun temperatures.
CAMPAIGN_FREQS_MHZ = [float(f) for f in range(100, 361, 20)]
CAMPAIGN_TEMPS_C = [40.0, 60.0, 80.0, 100.0]


def recovery_point(
    region: str,
    freq_mhz: float,
    temp_c: float,
    workload: Tuple[int, Tuple[int, ...]],
    policy=None,
) -> RecoveryOutcome:
    """One recovered reconfiguration on a fresh system (sweep point).

    ``policy`` is a :meth:`RecoveryPolicy.to_mapping` mapping (or
    ``None`` for defaults) so the point stays plain-data for the worker
    pool and the result cache.
    """
    system = PdrSystem()
    system.set_die_temperature(temp_c)
    reconfigurator = ResilientReconfigurator(
        system, policy=RecoveryPolicy.from_mapping(policy)
    )
    asp = instantiate_asp(workload[0], list(workload[1]))
    outcome = reconfigurator.reconfigure(region, asp, freq_mhz)
    note_events(system.sim.events_processed)
    return outcome


@dataclass
class RecoveryCampaign:
    """All outcomes of one fault-injection campaign."""

    freqs_mhz: List[float]
    temps_c: List[float]
    policy: RecoveryPolicy
    #: (freq, temp) -> outcome.
    cells: Dict[Tuple[float, float], RecoveryOutcome] = field(default_factory=dict)

    # -- headline statistics -----------------------------------------------
    def injected(self) -> List[RecoveryOutcome]:
        """Outcomes whose first attempt failed (a fault was injected)."""
        return [out for out in self.cells.values() if out.injected_failure]

    def recovered(self) -> List[RecoveryOutcome]:
        return [out for out in self.injected() if out.recovered]

    def unrecovered(self) -> List[Tuple[float, float]]:
        return sorted(
            key for key, out in self.cells.items()
            if out.injected_failure and not out.recovered
        )

    @property
    def recovery_rate(self) -> Optional[float]:
        """Fraction of injected failures recovered within the budget."""
        injected = self.injected()
        if not injected:
            return None
        return len(self.recovered()) / len(injected)

    def recovery_latencies_us(self) -> List[float]:
        return sorted(
            out.recovery_latency_us
            for out in self.recovered()
            if out.recovery_latency_us is not None
        )

    def mode_counts(self) -> Dict[str, int]:
        """Injected first-failure mode -> occurrence count."""
        counts: Dict[str, int] = {}
        for out in self.injected():
            for mode in out.first_failure_modes:
                counts[mode] = counts.get(mode, 0) + 1
        return counts


def run_recovery(
    freqs_mhz: Optional[List[float]] = None,
    temps_c: Optional[List[float]] = None,
    region: str = "RP2",
    policy: Optional[RecoveryPolicy] = None,
    runner: Optional[SweepRunner] = None,
) -> RecoveryCampaign:
    """Run the full fault-injection grid through the sweep engine."""
    freqs = [float(f) for f in (freqs_mhz or CAMPAIGN_FREQS_MHZ)]
    temps = [float(t) for t in (temps_c or CAMPAIGN_TEMPS_C)]
    policy = policy or RecoveryPolicy()
    campaign = RecoveryCampaign(freqs_mhz=freqs, temps_c=temps, policy=policy)
    grid = [(temp, freq) for temp in temps for freq in freqs]
    results = (runner or SweepRunner()).map(
        "recovery",
        recovery_point,
        [
            dict(
                region=region,
                freq_mhz=freq,
                temp_c=temp,
                workload=asp_descriptor(WORKLOAD_ASP),
                policy=policy.to_mapping(),
            )
            for temp, freq in grid
        ],
        labels=[f"recover@{freq:g}MHz/{temp:g}C" for temp, freq in grid],
    )
    for (temp, freq), outcome in zip(grid, results):
        campaign.cells[(freq, temp)] = outcome
    return campaign


def format_report(campaign: RecoveryCampaign) -> str:
    """Render the recovery matrix and its headline statistics."""
    report = ExperimentReport(
        "E9 — fault-injection recovery campaign "
        "(DMA reset + ICAP abort + frequency backoff)"
    )
    headers = ["MHz \\ C"] + [f"{t:g}" for t in campaign.temps_c]
    rows = []
    for freq in campaign.freqs_mhz:
        row = [f"{freq:g}"]
        for temp in campaign.temps_c:
            row.append(campaign.cells[(freq, temp)].summary())
        rows.append(row)
    report.add(format_table(headers, rows))
    report.add(
        "cells: ok = first-try success, rec:N@F = recovered on attempt N "
        "at F MHz, FAIL = attempt budget exhausted"
    )

    injected = campaign.injected()
    if injected:
        rate = campaign.recovery_rate
        modes = campaign.mode_counts()
        latencies = campaign.recovery_latencies_us()
        lines = [
            f"injected failures : {len(injected)} / {len(campaign.cells)} points",
            "detected modes    : "
            + ", ".join(f"{mode} x{count}" for mode, count in sorted(modes.items())),
            f"recovered         : {len(campaign.recovered())} / {len(injected)} "
            f"({100.0 * rate:.1f} %)  [acceptance floor: 95 %]",
        ]
        if latencies:
            mean = sum(latencies) / len(latencies)
            lines.append(
                f"recovery latency  : min {latencies[0]:.0f} us, "
                f"mean {mean:.0f} us, max {latencies[-1]:.0f} us"
            )
        if campaign.unrecovered():
            lines.append(f"NOT recovered     : {campaign.unrecovered()}")
        ladder = campaign.policy.ladder(max(campaign.freqs_mhz))
        lines.append(
            f"policy            : {campaign.policy.max_attempts} attempts, "
            f"x{campaign.policy.backoff_factor:g} backoff "
            f"(ladder from {max(campaign.freqs_mhz):g}: "
            + " -> ".join(f"{rung:.0f}" for rung in ladder)
            + ")"
        )
        report.add("\n".join(lines))
    else:
        report.add("no failures injected — grid never crossed the frontier")
    return report.render()
