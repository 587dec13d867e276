"""Deterministic scenario fuzzing for the simulated PDR platform.

A :class:`ScenarioGenerator` draws randomised operating points — clock
frequency, die temperature, bitstream padding, target region, FIFO
depth, DMA burst size, IRQ-timeout budget, recovery/scrub mix — from a
seeded ``random.Random``.  No wall-clock, no global RNG state: case
``i`` of seed ``S`` is the same scenario in every process, forever.

:func:`run_scenario` executes one scenario on a fresh
:class:`~repro.core.PdrSystem` under an
:class:`~repro.verify.invariants.InvariantMonitor` (collect mode, so a
broken invariant yields a record instead of an exception) and returns a
plain-data result dict, so :func:`run_fuzz` maps it over the cases
through a :class:`~repro.exec.SweepRunner` like every other campaign:
serial, over ``--jobs N`` workers or from the result cache, the report
is the same.

When a scenario violates an invariant, :func:`shrink_scenario` reduces
it: categorical fields collapse to their benign defaults first (fewer
ops, no fault mix, passthrough ASP), then the numeric deltas (frequency
toward 100 MHz, temperature toward 40 °C) are binary-searched to the
smallest excursion that still fails.  The minimal reproducer prints as
a ready-to-paste ``repro-pdr fuzz --replay '...'`` command.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..core import PdrSystem, PdrSystemConfig
from ..core.pdr_system import TABLE1_BITSTREAM_BYTES
from ..exec import SweepRunner
from ..fabric import (
    Aes128Asp,
    Asp,
    Crc32Asp,
    FirFilterAsp,
    MatMulAsp,
    PassthroughAsp,
    Sha256Asp,
    VectorScaleAsp,
    encode_asp_frames,
)
from ..resilience import ResilientReconfigurator
from ..snapshot import fork_system

from .invariants import InvariantMonitor

__all__ = [
    "FuzzReport",
    "Scenario",
    "ScenarioGenerator",
    "format_report",
    "run_fuzz",
    "run_scenario",
    "shrink_scenario",
]

REGIONS = ("RP1", "RP2", "RP3", "RP4")
ASP_KINDS = ("passthrough", "fir", "matmul", "crc32", "sha256", "vecscale", "aes")
#: DMA memory-side burst sizes (bytes) the generator draws from.
BURST_CHOICES = (256, 1024)
#: Stream FIFO depths; a draw is constrained to hold one full burst.
FIFO_CHOICES = (64, 256, 1024, 4096)
#: Firmware IRQ give-up budgets (µs).  The short ones abort mid-transfer
#: at low clocks — deliberately, to fuzz the reset/abort path.
TIMEOUT_CHOICES = (1_000.0, 6_000.0, 20_000.0)
#: Bitstream padding (bytes); 0 means no padding (content-sized).
PAD_CHOICES = (0, TABLE1_BITSTREAM_BYTES, 600_000)


@dataclass(frozen=True)
class Scenario:
    """One fuzz case as plain data.

    Field defaults are the *benign* operating point the shrinker moves
    toward: nominal clock, bench temperature, reference geometry, a
    single raw reconfiguration with no fault mix.
    """

    index: int = 0
    region: str = "RP1"
    asp_kind: str = "passthrough"
    asp_param: int = 0
    freq_mhz: float = 100.0
    temp_c: float = 40.0
    fifo_words: int = 1024
    burst_bytes: int = 1024
    irq_timeout_us: float = 20_000.0
    pad_bytes: int = 0
    ops: int = 1
    use_recovery: bool = False
    scrub_corrupt: bool = False
    corrupt_offset: int = 0

    def to_mapping(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Union[Mapping, Tuple]) -> "Scenario":
        data = dict(mapping)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario field(s): {sorted(unknown)}")
        return cls(**data)

    def replay_command(self) -> str:
        """The CLI invocation reproducing exactly this scenario."""
        rendered = json.dumps(self.to_mapping(), sort_keys=True)
        return f"repro-pdr fuzz --replay '{rendered}'"


class ScenarioGenerator:
    """Seeded generator: ``generate(i)`` is a pure function of (seed, i)."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def generate(self, index: int) -> Scenario:
        # Integer seed arithmetic — string seeds would hash differently
        # across processes and break the determinism contract.
        rng = random.Random(self.seed * 1_000_003 + index)
        burst_bytes = rng.choice(BURST_CHOICES)
        fifo_words = rng.choice(
            [w for w in FIFO_CHOICES if w >= burst_bytes // 4]
        )
        return Scenario(
            index=index,
            region=rng.choice(REGIONS),
            asp_kind=rng.choice(ASP_KINDS),
            asp_param=rng.randrange(16),
            freq_mhz=round(rng.uniform(80.0, 420.0), 1),
            temp_c=round(rng.uniform(25.0, 100.0), 1),
            fifo_words=fifo_words,
            burst_bytes=burst_bytes,
            irq_timeout_us=rng.choice(TIMEOUT_CHOICES),
            pad_bytes=rng.choice(PAD_CHOICES),
            ops=rng.choice((1, 1, 1, 2, 3)),
            use_recovery=rng.random() < 0.4,
            scrub_corrupt=rng.random() < 0.3,
            corrupt_offset=rng.randrange(1304 * 101),
        )


def _make_asp(kind: str, param: int) -> Asp:
    """Deterministic ASP from a scenario's (kind, knob) pair."""
    if kind == "passthrough":
        return PassthroughAsp()
    if kind == "fir":
        return FirFilterAsp([1 + (param + tap) % 7 for tap in range(3)])
    if kind == "matmul":
        return MatMulAsp(2 + param % 3)
    if kind == "crc32":
        return Crc32Asp()
    if kind == "sha256":
        return Sha256Asp()
    if kind == "vecscale":
        return VectorScaleAsp(1 + param % 9, param % 5)
    if kind == "aes":
        return Aes128Asp([(param * 0x9E3779B1 + word) & 0xFFFFFFFF for word in range(4)])
    raise ValueError(f"unknown ASP kind {kind!r}")


def _result_record(result) -> Dict[str, Any]:
    return {
        "region": result.region,
        "freq_mhz": result.freq_mhz,
        "interrupt_seen": result.interrupt_seen,
        "crc_valid": result.crc_valid,
        "latency_us": result.latency_us,
        "failure_modes": list(result.failure_modes),
    }


def run_scenario(scenario) -> Dict[str, Any]:
    """Execute one scenario under the invariant monitor.

    ``scenario`` may be a dict or a canonicalised tuple of ``(key,
    value)`` pairs (the form :class:`~repro.exec.SweepPoint` hands to
    point functions).  Returns a plain-data record; any invariant
    violation or crash lands in ``record["violations"]`` rather than
    raising, so the shrinker can re-run candidates cheaply.
    """
    sc = Scenario.from_mapping(scenario)
    config = PdrSystemConfig(
        die_temp_c=sc.temp_c,
        stream_fifo_words=sc.fifo_words,
        irq_timeout_us=sc.irq_timeout_us,
        pad_bitstreams_to=sc.pad_bytes or None,
        dma_burst_bytes=sc.burst_bytes,
    )
    # Template fork per config identity (byte-identical to a fresh
    # build; REPRO_SNAPSHOTS=0 falls back to direct construction).
    system = fork_system(config)
    monitor = InvariantMonitor(raise_on_violation=False).attach(system)
    asp = _make_asp(sc.asp_kind, sc.asp_param)
    start_index = REGIONS.index(sc.region)
    op_records: List[Dict[str, Any]] = []

    recoverer: Optional[ResilientReconfigurator] = None
    if sc.use_recovery:
        recoverer = ResilientReconfigurator(system)
        monitor.attach_governor(recoverer.governor)

    try:
        for op in range(sc.ops):
            region = REGIONS[(start_index + op) % len(REGIONS)]
            if recoverer is not None:
                outcome = recoverer.reconfigure(region, asp, sc.freq_mhz)
                result = system.results[-1]
                op_records.append(
                    {
                        "region": region,
                        "recovered": outcome.recovered,
                        "attempts": outcome.attempts_used,
                        "final_freq_mhz": outcome.final_freq_mhz,
                        "result": _result_record(result),
                    }
                )
            else:
                result = system.reconfigure(region, asp, sc.freq_mhz)
                op_records.append(_result_record(result))
            monitor.check_result(system, region, asp, result)
            monitor.check_quiescent(system)

            if sc.scrub_corrupt and result.succeeded:
                _scrub_corrupt_probe(system, monitor, region, asp, sc)
    except Exception as exc:  # a crash is itself a finding, not an abort
        monitor.violate("crash", f"{type(exc).__name__}: {exc}")
    finally:
        monitor.detach()

    return {
        "scenario": sc.to_mapping(),
        "ops": op_records,
        "succeeded_ops": sum(
            1
            for rec in op_records
            if rec.get("recovered") or (rec.get("interrupt_seen") and rec.get("crc_valid"))
        ),
        "checks": monitor.counts.checks,
        "violations": list(monitor.violations),
        "unhandled_failures": [
            process.name for process in system.sim.unhandled_failures
        ],
        "events_processed": system.sim.events_processed,
    }


def _scrub_corrupt_probe(
    system: PdrSystem, monitor: InvariantMonitor, region: str, asp: Asp, sc: Scenario
) -> None:
    """Corrupt one loaded config word; the scrubber MUST notice, and a
    golden re-write MUST scrub clean — the paper's detectability claim."""
    system.memory.corrupt_region_word(region, sc.corrupt_offset, flip_mask=0x1)
    scrub = system.sim.run_until(
        system.sim.process(
            system.scrubber.scrub_region_once(region), name="verify.scrub"
        )
    )
    monitor._count()
    if scrub.ok:
        monitor.violate(
            "scrub.detects_corruption",
            f"{region}: corrupted word {sc.corrupt_offset} passed read-back CRC",
        )
    golden = encode_asp_frames(system.layout.region_frame_count(region), asp)
    system.memory.write_region(region, golden)
    rescrub = system.sim.run_until(
        system.sim.process(
            system.scrubber.scrub_region_once(region), name="verify.rescrub"
        )
    )
    monitor._count()
    if not rescrub.ok:
        monitor.violate(
            "scrub.repair_clean",
            f"{region}: golden re-write still fails read-back CRC",
        )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

#: Categorical/structural fields collapsed toward the benign default, in
#: order of how much scenario complexity each removes.
_SHRINK_FIELDS = (
    "ops",
    "scrub_corrupt",
    "use_recovery",
    "asp_kind",
    "asp_param",
    "region",
    "fifo_words",
    "burst_bytes",
    "irq_timeout_us",
    "pad_bytes",
    "corrupt_offset",
)
#: Numeric fields bisected toward (target, tolerance).
_SHRINK_NUMERIC = (("freq_mhz", 100.0, 1.0), ("temp_c", 40.0, 1.0))


def shrink_scenario(
    scenario: Scenario,
    failing: Optional[Callable[[Scenario], bool]] = None,
    max_evals: int = 80,
) -> Tuple[Scenario, int]:
    """Reduce a violating scenario to a minimal reproducer.

    ``failing(candidate)`` must return True while the bug still
    reproduces; by default it re-runs :func:`run_scenario`.  Returns the
    smallest still-failing scenario found and the number of evaluations
    spent (bounded by ``max_evals``).
    """
    if failing is None:
        failing = lambda s: bool(run_scenario(s.to_mapping())["violations"])
    evals = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return failing(candidate)

    current = scenario
    benign = Scenario(index=scenario.index)
    for name in _SHRINK_FIELDS:
        default = getattr(benign, name)
        if getattr(current, name) == default:
            continue
        candidate = replace(current, **{name: default})
        if still_fails(candidate):
            current = candidate

    for name, target, tolerance in _SHRINK_NUMERIC:
        bad = getattr(current, name)  # known failing value
        if abs(bad - target) <= tolerance:
            continue
        if still_fails(replace(current, **{name: target})):
            current = replace(current, **{name: target})
            continue
        good = target  # known passing value
        while abs(bad - good) > tolerance and evals < max_evals:
            mid = round((bad + good) / 2.0, 1)
            if mid == bad or mid == good:
                break
            if still_fails(replace(current, **{name: mid})):
                bad = mid
            else:
                good = mid
        current = replace(current, **{name: bad})

    return current, evals


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Summary of one fuzz campaign."""

    seed: int
    cases: int
    checks: int = 0
    events_processed: int = 0
    succeeded_ops: int = 0
    total_ops: int = 0
    #: One entry per violating case: scenario, violation strings, the
    #: shrunk minimal scenario (when shrinking ran) and the replay command.
    findings: List[Dict[str, Any]] = field(default_factory=list)
    shrink_evals: int = 0
    #: ``(case index, process name)`` for every simulation process that
    #: died with an unhandled exception — quietly dead daemons are a
    #: robustness bug even when no invariant tripped.
    unhandled_failures: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def run_fuzz(
    seed: int = 1,
    cases: int = 50,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional[SweepRunner] = None,
) -> FuzzReport:
    """Run ``cases`` seeded scenarios; shrink and report any violation.

    The scenarios run through ``runner`` (serial when ``None``) and merge
    in case order; shrinking re-runs candidates in this process.
    """
    generator = ScenarioGenerator(seed)
    report = FuzzReport(seed=seed, cases=cases)
    scenarios = [generator.generate(index) for index in range(cases)]
    records = (runner or SweepRunner()).map(
        "fuzz",
        run_scenario,
        [{"scenario": scenario.to_mapping()} for scenario in scenarios],
        labels=[f"fuzz:{scenario.index}" for scenario in scenarios],
    )
    for scenario, record in zip(scenarios, records):
        report.checks += record["checks"]
        report.events_processed += record["events_processed"]
        report.succeeded_ops += record["succeeded_ops"]
        report.total_ops += len(record["ops"])
        for name in record["unhandled_failures"]:
            report.unhandled_failures.append((scenario.index, name))
        if record["violations"]:
            finding: Dict[str, Any] = {
                "scenario": scenario.to_mapping(),
                "violations": record["violations"],
                "repro": scenario.replay_command(),
            }
            if shrink:
                minimal, evals = shrink_scenario(scenario)
                report.shrink_evals += evals
                finding["shrunk"] = minimal.to_mapping()
                finding["repro"] = minimal.replay_command()
            report.findings.append(finding)
            if progress is not None:
                progress(f"case {scenario.index}: {record['violations'][0]}")
    return report


def format_report(report: FuzzReport) -> str:
    """Render a campaign summary: totals, dead processes, every finding
    with its (shrunk) replay command, and ``violations: 0`` when clean."""
    lines = [
        "Fuzz campaign (deterministic scenario fuzzing + invariant monitor)",
        "=" * 66,
        f"seed {report.seed}, {report.cases} case(s): "
        f"{report.total_ops} reconfiguration(s), "
        f"{report.succeeded_ops} fully succeeded",
        f"invariant checks: {report.checks}, "
        f"kernel events: {report.events_processed}",
    ]
    if report.unhandled_failures:
        lines.append(
            f"UNHANDLED FAILURES: {len(report.unhandled_failures)} process(es)"
        )
        for index, name in report.unhandled_failures:
            lines.append(f"  - case {index}: {name}")
    if report.ok:
        lines.append("violations: 0")
    else:
        lines.append(f"VIOLATIONS: {len(report.findings)} case(s)")
        for finding in report.findings:
            for violation in finding["violations"]:
                lines.append(f"  - {violation}")
            if "shrunk" in finding:
                lines.append(f"    minimal reproducer ({report.shrink_evals} shrink evals):")
            lines.append(f"    {finding['repro']}")
    return "\n".join(lines)
