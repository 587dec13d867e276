"""Long-horizon soak campaigns with availability SLOs.

A soak case is one extended service episode: a :class:`~repro.core.PdrSystem`
keeps reconfiguring its four regions while a :class:`~repro.chaos.ChaosInjector`
delivers a seeded :class:`~repro.chaos.faults.FaultPlan` underneath it — DDR
glitches, bus errors, ICAP lock-ups, clock/power excursions and Poisson SEUs.
The background scrubber runs throughout; every scrub-flagged region goes
through the resilience layer's full detect→isolate→repair→re-verify cycle.

The campaign driver executes cases on :class:`~repro.exec.SweepRunner` (so
``--jobs N`` fans out over processes and, by the runner's merge contract,
stays byte-identical to the serial run) and grades the aggregate against
:class:`SoakSlos`:

* **availability** — 1 minus the region-weighted outage fraction.  A region
  is *out* from SEU injection until its verified repair, and from a
  permanently failed reconfiguration until episode end; a recovered
  reconfiguration contributes its recovery latency.
* **recovery rate** — injected faults whose effect was fully absorbed
  (SEUs need a *verified* golden re-write; self-expiring faults need no
  permanently failed operation after them).
* **MTTR percentiles** — nearest-rank p50/p90/p99 over every repair
  latency sample (SEU repair cycles + operation recovery latencies).

Everything in a case record is plain data and a pure function of the case
seed — ``repro-pdr chaos --replay`` re-runs one case byte-identically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.stats import nearest_rank
from ..core import PdrSystem, PdrSystemConfig
from ..exec import SweepRunner
from ..resilience import ResilientReconfigurator
from ..verify.fuzz import ASP_KINDS, REGIONS, _make_asp
from ..verify.invariants import InvariantMonitor

from .faults import build_fault_plan
from .injector import ChaosInjector

__all__ = [
    "SoakCase",
    "SoakCaseGenerator",
    "SoakReport",
    "SoakSlos",
    "format_report",
    "run_soak",
    "soak_case",
]

#: Firmware IRQ give-up budget (µs) during soaks.  Shorter than the bench
#: default so an injected bus error costs milliseconds of downtime, not
#: tens of milliseconds — the point is measuring recovery, not waiting.
SOAK_IRQ_TIMEOUT_US = 6_000.0
#: Post-campaign drain: up to this many 5 ms settle windows while the
#: repair queue empties (SEUs injected late need their scrub+repair).
DRAIN_ROUNDS = 6
DRAIN_WINDOW_NS = 5e6

#: Fault kinds whose delivery is a bounded transient that the firmware's
#: existing retry ladder absorbs (nothing to "repair" afterwards).
_SELF_CLEARING = (
    "dram_bitflip",
    "dram_latency",
    "axi_stall",
    "axi_slverr",
    "icap_lockup",
    "brownout",
)


@dataclass(frozen=True)
class SoakCase:
    """One soak episode as plain data (pure function of the seed)."""

    index: int = 0
    fault_seed: int = 0
    ops: int = 8
    freq_mhz: float = 200.0
    temp_c: float = 50.0
    fault_count: int = 7
    seu_per_ms: float = 0.03
    horizon_us: float = 96_000.0

    def to_mapping(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Union[Mapping, Tuple]) -> "SoakCase":
        data = dict(mapping)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown soak case field(s): {sorted(unknown)}")
        return cls(**data)

    def replay_command(self) -> str:
        """The CLI invocation re-running exactly this episode."""
        rendered = json.dumps(self.to_mapping(), sort_keys=True)
        return f"repro-pdr chaos --replay '{rendered}'"


class SoakCaseGenerator:
    """Seeded generator: ``generate(i)`` is a pure function of (seed, i)."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def generate(self, index: int) -> SoakCase:
        rng = random.Random(self.seed * 1_000_003 + index)
        ops = rng.randint(6, 10)
        return SoakCase(
            index=index,
            fault_seed=self.seed * 1_000_003 + index,
            ops=ops,
            freq_mhz=rng.choice((120.0, 160.0, 200.0, 240.0, 280.0, 300.0)),
            temp_c=round(rng.uniform(40.0, 70.0), 1),
            fault_count=rng.randint(5, 8),
            seu_per_ms=round(rng.uniform(0.02, 0.06), 4),
            horizon_us=12_000.0 * ops,
        )


# ---------------------------------------------------------------------------
# One episode
# ---------------------------------------------------------------------------


def _seu_repair_ns(
    repair_log: List[dict],
    op_records: List[Dict[str, Any]],
    region: str,
    injected_ns: float,
) -> Optional[float]:
    """Sim time the region's golden content came back after an upset.

    Either the scrub-triggered repair cycle re-verified it, or a later
    *successful* service reconfiguration rewrote the whole region (the
    post-transfer scrub of that op is the verification) — whichever
    happened first.
    """
    candidates = [
        entry["repaired_ns"]
        for entry in repair_log
        if entry["region"] == region
        and entry["verified"]
        and entry["repaired_ns"] >= injected_ns
    ]
    candidates += [
        rec["end_ns"]
        for rec in op_records
        if rec["region"] == region
        and rec["recovered"]
        and rec["end_ns"] >= injected_ns
    ]
    return min(candidates) if candidates else None


def soak_case(**case_fields: Any) -> Dict[str, Any]:
    """Execute one soak episode; returns a plain-data record.

    Module-level and kwargs-driven so :class:`~repro.exec.SweepRunner`
    can pickle it to worker processes (param sets are the case mappings).
    """
    case = SoakCase.from_mapping(case_fields)
    plan = build_fault_plan(
        case.fault_seed, case.horizon_us, case.fault_count, case.seu_per_ms
    )
    config = PdrSystemConfig(
        die_temp_c=case.temp_c,
        irq_timeout_us=SOAK_IRQ_TIMEOUT_US,
    )
    system = PdrSystem(config)
    monitor = InvariantMonitor(raise_on_violation=False).attach(system)
    recoverer = ResilientReconfigurator(system)
    monitor.attach_governor(recoverer.governor)
    recoverer.attach_scrubber()
    injector = ChaosInjector(system, plan)
    injector.arm()
    system.scrubber.start()

    op_records: List[Dict[str, Any]] = []
    gap_ns = case.horizon_us * 1e3 / max(1, case.ops)
    try:
        for op in range(case.ops):
            region = REGIONS[op % len(REGIONS)]
            asp = _make_asp(ASP_KINDS[op % len(ASP_KINDS)], op)
            start_ns = system.sim.now
            outcome = recoverer.reconfigure(region, asp, case.freq_mhz)
            op_records.append(
                {
                    "region": region,
                    "asp_kind": ASP_KINDS[op % len(ASP_KINDS)],
                    "start_ns": start_ns,
                    "end_ns": system.sim.now,
                    "recovered": outcome.recovered,
                    "attempts": outcome.attempts_used,
                    "final_freq_mhz": outcome.final_freq_mhz,
                    "recovery_latency_us": outcome.recovery_latency_us,
                }
            )
            monitor.check_quiescent(system)
            recoverer.repair_pending()
            # Idle service window: background scrub passes + chaos
            # deliveries run while the firmware waits for the next job.
            target_ns = (op + 1) * gap_ns
            if system.sim.now < target_ns:
                system.sim.run(until=target_ns)
            recoverer.repair_pending()
        # Drain: late SEUs still need detection + repair before grading.
        for _ in range(DRAIN_ROUNDS):
            system.sim.run(until=system.sim.now + DRAIN_WINDOW_NS)
            recoverer.repair_pending()
            if not recoverer.pending_repairs and not any(
                event["kind"] == "seu" and event["injected_ns"] is None
                for event in injector.events
            ):
                break
    except Exception as exc:  # a crash is itself a finding, not an abort
        monitor.violate("crash", f"{type(exc).__name__}: {exc}")
    finally:
        system.scrubber.stop()
        injector.disarm()
        monitor.detach()

    return _grade_episode(case, system, monitor, injector, recoverer, op_records)


def _grade_episode(
    case: SoakCase,
    system: PdrSystem,
    monitor: InvariantMonitor,
    injector: ChaosInjector,
    recoverer: ResilientReconfigurator,
    op_records: List[Dict[str, Any]],
) -> Dict[str, Any]:
    episode_ns = system.sim.now
    repair_log = recoverer.repair_log

    # -- outage + per-fault recovery ------------------------------------------
    outage_ns = 0.0
    frames_at_risk_ns = 0.0
    seu_injected = 0
    seu_repaired = 0
    faults_recovered = 0
    unrecovered_kinds: List[str] = []
    failed_op_ends = [
        rec["end_ns"] for rec in op_records if not rec["recovered"]
    ]
    for rec in op_records:
        if not rec["recovered"]:
            outage_ns += episode_ns - rec["start_ns"]
        elif rec["recovery_latency_us"] is not None:
            outage_ns += rec["recovery_latency_us"] * 1e3

    for event in injector.events:
        if event["injected_ns"] is None:
            continue
        injected_ns = event["injected_ns"]
        if event["kind"] == "seu":
            seu_injected += 1
            repaired_ns = _seu_repair_ns(
                repair_log, op_records, event["region"], injected_ns
            )
            exposure = (repaired_ns or episode_ns) - injected_ns
            frames_at_risk_ns += exposure
            outage_ns += exposure
            recovered = repaired_ns is not None
            if recovered:
                seu_repaired += 1
        elif event["kind"] == "clock_loss_of_lock":
            recovered = event["recovered_ns"] is not None
        else:  # self-clearing transient or expiring window
            recovered = event["kind"] in _SELF_CLEARING
        # A fault also counts as unrecovered when service never came
        # back after it: any permanently failed operation that ended at
        # or after the injection pins the blame on every active fault.
        if any(end_ns >= injected_ns for end_ns in failed_op_ends):
            recovered = False
        if recovered:
            faults_recovered += 1
        else:
            unrecovered_kinds.append(event["kind"])

    availability = 1.0
    if episode_ns > 0:
        availability = max(
            0.0, 1.0 - outage_ns / (len(REGIONS) * episode_ns)
        )

    # -- MTTR samples ---------------------------------------------------------
    mttr_samples = [
        round(entry["mttr_us"], 3) for entry in repair_log if entry["verified"]
    ]
    mttr_samples += [
        round(rec["recovery_latency_us"], 3)
        for rec in op_records
        if rec["recovered"] and rec["recovery_latency_us"] is not None
    ]

    # -- telemetry fold --------------------------------------------------------
    # The modal bottleneck device across the episode's reconfigurations
    # (alphabetical tie-break keeps replay identity).
    cp_counts: Dict[str, int] = {}
    for result in system.results:
        if result.critical_path:
            cp_counts[result.critical_path] = (
                cp_counts.get(result.critical_path, 0) + 1
            )
    modal_cp = (
        sorted(cp_counts, key=lambda name: (-cp_counts[name], name))[0]
        if cp_counts
        else None
    )

    injected = injector.injected_count
    return {
        "case": case.to_mapping(),
        "label": f"case{case.index}",
        "critical_path": modal_cp,
        "events": float(system.sim.events_processed),
        "metrics": system.metrics.to_dict(end_ns=episode_ns),
        "ops": op_records,
        "faults": {
            "planned": len(injector.plan.faults),
            "injected": injected,
            "by_kind": injector.injected_by_kind(),
            "recovered": faults_recovered,
            "unrecovered_kinds": sorted(unrecovered_kinds),
        },
        "seu": {
            "injected": seu_injected,
            "repaired": seu_repaired,
            "frames_at_risk_us": round(frames_at_risk_ns / 1e3, 3),
        },
        "availability": round(availability, 6),
        "recovery_rate": round(faults_recovered / injected, 6)
        if injected
        else 1.0,
        "mttr_us": mttr_samples,
        "checks": monitor.counts.checks,
        "violations": list(monitor.violations),
        "unhandled_failures": [
            process.name for process in system.sim.unhandled_failures
        ],
        "events_processed": system.sim.events_processed,
    }


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoakSlos:
    """Availability SLO floors a campaign is graded against."""

    #: Minimum campaign-mean availability (region-time weighted).
    min_availability: float = 0.70
    #: Minimum fraction of injected faults fully recovered.
    min_recovery_rate: float = 0.95
    #: Ceiling on the p99 repair latency (µs) across all MTTR samples.
    max_mttr_p99_us: float = 60_000.0


@dataclass
class SoakReport:
    """Aggregate of one soak campaign."""

    seed: int
    cases: int
    slos: SoakSlos = field(default_factory=SoakSlos)
    faults_planned: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    seu_injected: int = 0
    seu_repaired: int = 0
    frames_at_risk_us: float = 0.0
    availability_mean: float = 1.0
    availability_min: float = 1.0
    recovery_rate: float = 1.0
    mttr_p50_us: Optional[float] = None
    mttr_p90_us: Optional[float] = None
    mttr_p99_us: Optional[float] = None
    mttr_samples: int = 0
    checks: int = 0
    events_processed: int = 0
    #: ``(metric, observed, floor/ceiling)`` triples for each broken SLO.
    breaches: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Violating/unhandled cases: case mapping + reasons + replay command.
    findings: List[Dict[str, Any]] = field(default_factory=list)
    #: ``(case index, process name)`` for every process that died with an
    #: unhandled exception during a case (also folded into findings).
    unhandled: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.breaches and not self.findings


def run_soak(
    seed: int = 1,
    cases: int = 10,
    slos: Optional[SoakSlos] = None,
    runner: Optional[SweepRunner] = None,
) -> SoakReport:
    """Run ``cases`` seeded soak episodes and grade them against ``slos``."""
    generator = SoakCaseGenerator(seed)
    soak_cases = [generator.generate(index) for index in range(cases)]
    records = (runner or SweepRunner()).map(
        "chaos_soak",
        soak_case,
        [case.to_mapping() for case in soak_cases],
        labels=[f"case{case.index}" for case in soak_cases],
    )

    report = SoakReport(seed=seed, cases=cases, slos=slos or SoakSlos())
    availabilities: List[float] = []
    mttr_samples: List[float] = []
    for case, record in zip(soak_cases, records):
        report.faults_planned += record["faults"]["planned"]
        report.faults_injected += record["faults"]["injected"]
        report.faults_recovered += record["faults"]["recovered"]
        for kind, count in record["faults"]["by_kind"].items():
            report.by_kind[kind] = report.by_kind.get(kind, 0) + count
        report.seu_injected += record["seu"]["injected"]
        report.seu_repaired += record["seu"]["repaired"]
        report.frames_at_risk_us += record["seu"]["frames_at_risk_us"]
        report.checks += record["checks"]
        report.events_processed += record["events_processed"]
        availabilities.append(record["availability"])
        mttr_samples.extend(record["mttr_us"])
        reasons = list(record["violations"])
        for name in record["unhandled_failures"]:
            reasons.append(f"unhandled failure in process {name!r}")
            report.unhandled.append((case.index, name))
        if reasons:
            report.findings.append(
                {
                    "case": record["case"],
                    "reasons": reasons,
                    "repro": case.replay_command(),
                }
            )

    if availabilities:
        report.availability_mean = round(
            sum(availabilities) / len(availabilities), 6
        )
        report.availability_min = round(min(availabilities), 6)
    if report.faults_injected:
        report.recovery_rate = round(
            report.faults_recovered / report.faults_injected, 6
        )
    report.frames_at_risk_us = round(report.frames_at_risk_us, 3)
    report.mttr_samples = len(mttr_samples)
    report.mttr_p50_us = nearest_rank(mttr_samples, 50.0)
    report.mttr_p90_us = nearest_rank(mttr_samples, 90.0)
    report.mttr_p99_us = nearest_rank(mttr_samples, 99.0)

    slos = report.slos
    if report.availability_mean < slos.min_availability:
        report.breaches.append(
            ("availability", report.availability_mean, slos.min_availability)
        )
    if report.recovery_rate < slos.min_recovery_rate:
        report.breaches.append(
            ("recovery_rate", report.recovery_rate, slos.min_recovery_rate)
        )
    if (
        report.mttr_p99_us is not None
        and report.mttr_p99_us > slos.max_mttr_p99_us
    ):
        report.breaches.append(
            ("mttr_p99_us", report.mttr_p99_us, slos.max_mttr_p99_us)
        )
    return report


def format_report(report: SoakReport) -> str:
    """Human-readable campaign summary (no wall-clock — replay-stable)."""
    kinds = ", ".join(
        f"{kind}:{count}" for kind, count in sorted(report.by_kind.items())
    )
    lines = [
        "Chaos soak campaign (environmental faults + SEU scrub-and-repair)",
        "=" * 66,
        f"seed {report.seed}, {report.cases} episode(s): "
        f"{report.faults_injected}/{report.faults_planned} fault(s) injected, "
        f"{report.faults_recovered} recovered",
        f"fault mix: {kinds or 'none'}",
        f"SEU: {report.seu_injected} injected, {report.seu_repaired} repaired "
        f"(frames at risk {report.frames_at_risk_us:.1f} us)",
        f"availability: mean {report.availability_mean:.4f}, "
        f"min {report.availability_min:.4f} "
        f"(SLO >= {report.slos.min_availability:.4f})",
        f"recovery rate: {report.recovery_rate:.4f} "
        f"(SLO >= {report.slos.min_recovery_rate:.4f})",
    ]
    if report.mttr_p50_us is not None:
        lines.append(
            f"MTTR: p50 {report.mttr_p50_us:.1f} us, "
            f"p90 {report.mttr_p90_us:.1f} us, "
            f"p99 {report.mttr_p99_us:.1f} us over {report.mttr_samples} "
            f"sample(s) (SLO p99 <= {report.slos.max_mttr_p99_us:.0f} us)"
        )
    else:
        lines.append("MTTR: no repair samples")
    lines.append(
        f"invariant checks: {report.checks}, "
        f"kernel events: {report.events_processed}"
    )
    if report.findings:
        lines.append(f"FINDINGS: {len(report.findings)} episode(s)")
        for finding in report.findings:
            for reason in finding["reasons"]:
                lines.append(f"  - {reason}")
            lines.append(f"    {finding['repro']}")
    else:
        lines.append("violations: 0")
    if report.breaches:
        lines.append(f"SLO BREACHES: {len(report.breaches)}")
        for metric, observed, bound in report.breaches:
            lines.append(f"  - {metric}: {observed:g} vs {bound:g}")
    else:
        lines.append("SLO breaches: 0")
    return "\n".join(lines)
