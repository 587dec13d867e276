"""Perf-regression gate behind ``repro-pdr bench --check``.

The benchmark suite commits its measurements to the ``BENCH_*.json``
documents at the repo root (sweeps, chaos, fleet, dram).  This module
re-runs small fresh probes of the same workloads and diffs them against
those baselines:

* **simulation metrics** (per-point events, latency, availability,
  recovery rate, MTTR percentiles) are products of the deterministic
  kernel, so they gate with a *tight* tolerance — a regression here is a
  real behaviour change, not noise.  Per-point kernel event counts gate
  exactly, in both directions;
* **wall-clock** is advisory by default (a 1-core CI container is far
  too noisy to gate on) and only gates when the caller passes an
  explicit ``wall_tolerance``.

``inject_scale`` multiplies every fresh measurement in its
worse-direction before comparison — the CI self-test that proves the
gate actually fires (``--inject-scale 2.0`` must exit non-zero).

Exit codes: 0 all checks pass, 1 at least one regression, 2 baseline
missing/unreadable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Check",
    "DEFAULT_TOLERANCE",
    "load_baseline",
    "probe_chaos",
    "probe_dram",
    "probe_fleet",
    "probe_fleet_chaos",
    "probe_milestone",
    "probe_sweeps",
    "run_check",
]

#: Default fractional tolerance for deterministic simulation metrics.
DEFAULT_TOLERANCE = 0.02

#: Repo root when running from a source checkout (src/repro/experiments
#: is three levels below it); ``baseline_dir`` overrides for installs.
_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

BASELINE_FILES = {
    "sweeps": "BENCH_sweeps.json",
    "chaos": "BENCH_chaos.json",
    "fleet": "BENCH_fleet.json",
    "dram": "BENCH_dram.json",
}


@dataclass(frozen=True)
class Check:
    """One baseline-vs-fresh comparison."""

    suite: str
    metric: str
    baseline: float
    fresh: float
    tolerance: float
    #: Which direction is a regression: ``"higher"`` (latency, MTTR,
    #: wall), ``"lower"`` (availability, recovery rate) or ``"either"``
    #: (exact counts such as kernel events, where any drift is one).
    worse: str = "higher"
    #: Advisory checks are reported but never fail the gate.
    advisory: bool = False

    @property
    def delta(self) -> float:
        """Signed fractional change in the worse direction."""
        scale = max(abs(self.baseline), 1e-12)
        change = (self.fresh - self.baseline) / scale
        if self.worse == "either":
            return abs(change)
        return change if self.worse == "higher" else -change

    @property
    def regressed(self) -> bool:
        return not self.advisory and self.delta > self.tolerance

    def render(self) -> str:
        verdict = "REGRESSED" if self.regressed else (
            "advisory" if self.advisory else "ok"
        )
        if self.worse == "either":
            band = f"{self.fresh - self.baseline:+g}, exact"
        else:
            band = (
                f"{self.delta:+.1%} worse-direction, "
                f"tol {self.tolerance:.1%}"
            )
        return (
            f"{self.suite}.{self.metric}: baseline {self.baseline:g}, "
            f"fresh {self.fresh:g} ({band}) [{verdict}]"
        )


def load_baseline(suite: str, baseline_dir: Optional[str] = None) -> Dict[str, Any]:
    """Load a committed baseline document; raises ``FileNotFoundError``."""
    path = os.path.join(baseline_dir or _REPO_ROOT, BASELINE_FILES[suite])
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Fresh probes
# ---------------------------------------------------------------------------


def probe_milestone() -> Dict[str, float]:
    """Single-point timings for the milestone perf floors.

    Must run **before** any other probe in the process so the cold
    number is honest: ``cold_single_point_s`` is the very first
    ``reconfigure_point`` this interpreter executes (empty build/CRC
    caches, no snapshot templates), ``warm_single_point_s`` the best of
    three immediately after (steady-state campaign cost).
    """
    import time as _time

    from .points import asp_descriptor, reconfigure_point
    from .table1 import WORKLOAD_ASP

    workload = asp_descriptor(WORKLOAD_ASP)
    t0 = _time.perf_counter()
    reconfigure_point("RP1", 200.0, 25.0, workload)
    cold_s = _time.perf_counter() - t0
    warm_s = None
    events = None
    for _ in range(3):
        t0 = _time.perf_counter()
        reconfigure_point("RP1", 200.0, 25.0, workload)
        elapsed = _time.perf_counter() - t0
        if warm_s is None or elapsed < warm_s:
            warm_s = elapsed
    from ..exec import runner as _runner

    events = _runner._POINT_EVENTS  # noted by reconfigure_point
    return {
        "cold_single_point_s": cold_s,
        "warm_single_point_s": warm_s,
        "warm_events_per_s": (events or 0) / warm_s if warm_s else 0.0,
    }


def probe_sweeps(frequencies_mhz: Sequence[float]) -> Dict[str, Any]:
    """Re-run the benchmark sweep serially; per-point events + latency."""
    from ..exec import SweepRunner, SweepSpec
    from .points import asp_descriptor, reconfigure_point
    from .table1 import WORKLOAD_ASP

    workload = asp_descriptor(WORKLOAD_ASP)
    spec = SweepSpec.map(
        "bench-check",
        reconfigure_point,
        [
            dict(region="RP1", freq_mhz=freq, temp_c=40.0, workload=workload)
            for freq in frequencies_mhz
        ],
        labels=[f"bench@{freq:g}MHz" for freq in frequencies_mhz],
    )
    t0 = time.perf_counter()
    run = SweepRunner(jobs=1).run(spec)
    wall_s = time.perf_counter() - t0
    points: Dict[str, Dict[str, float]] = {}
    for stat, result in zip(run.stats, run.values):
        point: Dict[str, float] = {"events": float(stat.events)}
        if result.latency_us is not None:
            point["latency_us"] = float(result.latency_us)
        points[stat.label] = point
    return {"wall_s": wall_s, "points": points}


def probe_chaos(seed: int, cases: int) -> Dict[str, Any]:
    """Re-run the benchmark soak campaign; resilience + MTTR figures."""
    from ..chaos import run_soak

    t0 = time.perf_counter()
    report = run_soak(seed=seed, cases=cases)
    wall_s = time.perf_counter() - t0
    fresh: Dict[str, Any] = {
        "wall_s": wall_s,
        "availability_mean": report.availability_mean,
        "availability_min": report.availability_min,
        "recovery_rate": report.recovery_rate,
        "faults_injected": float(report.faults_injected),
        "faults_recovered": float(report.faults_recovered),
        "kernel_events": float(report.events_processed),
    }
    if report.mttr_p50_us is not None:
        fresh["mttr_p50_us"] = report.mttr_p50_us
    if report.mttr_p99_us is not None:
        fresh["mttr_p99_us"] = report.mttr_p99_us
    return fresh


def probe_fleet(campaign: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-run the benchmark fleet campaign; request-level SLO figures."""
    from ..fleet import FleetSpec, run_fleet

    known = {f.name for f in fields(FleetSpec)}
    spec = FleetSpec(**{k: v for k, v in campaign.items() if k in known})
    t0 = time.perf_counter()
    report = run_fleet(spec)
    wall_s = time.perf_counter() - t0
    slos = report.slos.to_mapping()
    return {
        "wall_s": wall_s,
        "offered": float(report.offered),
        "admitted": float(report.admitted),
        "coalesced": float(report.coalesced),
        "loads": float(report.loads),
        "p50_latency_us": slos["p50_latency_us"],
        "p99_latency_us": slos["p99_latency_us"],
        "mean_wait_us": slos["mean_wait_us"],
        "rejected_rate": slos["rejected_rate"],
        "failed_rate": slos["failed_rate"],
    }


def probe_fleet_chaos(campaign: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-run the degraded-fleet campaign; board-loss SLO figures.

    The chaos campaign exercises the health/failover layer (board kill,
    quarantine, circuit-breaker rejoin), so the graded metrics are the
    degraded-mode SLOs: availability under board loss, goodput, the
    failover latency penalty and the exhausted-request rate.
    """
    from ..fleet import FleetSpec, run_fleet

    known = {f.name for f in fields(FleetSpec)}
    spec = FleetSpec(**{k: v for k, v in campaign.items() if k in known})
    t0 = time.perf_counter()
    report = run_fleet(spec)
    wall_s = time.perf_counter() - t0
    slos = report.slos.to_mapping()
    return {
        "wall_s": wall_s,
        "availability": slos["availability"],
        "goodput_per_ms": slos["goodput_per_ms"],
        "failover_latency_penalty_us": slos["failover_latency_penalty_us"],
        "exhausted_rate": slos["exhausted_rate"],
        "failovers": float(slos["failovers"]),
        "p99_latency_us": slos["p99_latency_us"],
        "rounds": float(report.rounds),
    }


def probe_dram(campaign: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-run the benchmark contention campaign; memory-system figures.

    A reduced tenant-load grid (the baseline commits which points) at
    both page policies, summarised into the three numbers the memory
    system is accountable for: the open-page row-hit rate, the
    contention slowdown from zero to the heaviest swept tenant load,
    and the open- vs closed-page throughput ratio under contention.
    """
    from ..exec import SweepRunner
    from .contention import run_contention

    rates = [float(r) for r in campaign.get("rates_mb_s", [0.0, 1000.0])]
    policies = [str(p) for p in campaign.get("policies", ["open", "closed"])]
    t0 = time.perf_counter()
    records = run_contention(
        runner=SweepRunner(jobs=1),
        rates=rates,
        policies=policies,
        region=str(campaign.get("region", "RP1")),
        freq_mhz=float(campaign.get("freq_mhz", 200.0)),
        temp_c=float(campaign.get("temp_c", 40.0)),
    )
    wall_s = time.perf_counter() - t0
    by_key = {(r["page_policy"], r["tenant_rate_mb_s"]): r for r in records}
    lo, hi = min(rates), max(rates)
    open_base = by_key[("open", lo)]
    open_worst = by_key[("open", hi)]
    closed_worst = by_key[("closed", hi)]
    fresh: Dict[str, Any] = {
        "wall_s": wall_s,
        "open_uncontended_mb_s": open_base["throughput_mb_s"],
        "open_contended_mb_s": open_worst["throughput_mb_s"],
        "closed_contended_mb_s": closed_worst["throughput_mb_s"],
        "open_row_hit_rate": open_worst["row_hit_rate"],
        "contention_slowdown": (
            open_base["throughput_mb_s"] / open_worst["throughput_mb_s"]
        ),
        "open_vs_closed_ratio": (
            open_worst["throughput_mb_s"] / closed_worst["throughput_mb_s"]
        ),
        "kernel_events": float(sum(r["events"] for r in records)),
    }
    return fresh


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _scaled(value: float, worse: str, inject_scale: float) -> float:
    """Apply the self-test distortion in the metric's worse direction."""
    if inject_scale == 1.0:
        return value
    return value * inject_scale if worse == "higher" else value / inject_scale


def _check(
    checks: List[Check],
    suite: str,
    metric: str,
    baseline: Optional[float],
    fresh: Optional[float],
    tolerance: float,
    worse: str = "higher",
    advisory: bool = False,
    inject_scale: float = 1.0,
    skipped: Optional[List[str]] = None,
) -> None:
    """Append one comparison when both sides exist.

    A one-sided metric (older baseline predating it, or a measurement
    that legitimately has no value — e.g. the 320 MHz point's null
    latency) is recorded in ``skipped`` so the report says *which*
    comparisons never ran instead of silently thinning out.
    """
    if baseline is None or fresh is None:
        if skipped is not None:
            if baseline is None and fresh is None:
                side = "either side"
            else:
                side = "baseline" if baseline is None else "fresh probe"
            skipped.append(f"{suite}.{metric} (no value on {side})")
        return
    checks.append(
        Check(
            suite=suite,
            metric=metric,
            baseline=float(baseline),
            fresh=_scaled(float(fresh), worse, inject_scale),
            tolerance=tolerance,
            worse=worse,
            advisory=advisory,
        )
    )


def _compare_sweeps(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerance: float,
    wall_tolerance: Optional[float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    checks: List[Check] = []
    serial = baseline.get("runs", {}).get("serial", {})
    base_points = {
        point["label"]: point for point in serial.get("points", [])
    }
    for label, fresh_point in sorted(fresh["points"].items()):
        base_point = base_points.get(label, {})
        # Exact, both ways: a 2 % band once hid a dropped kernel event.
        _check(
            checks, "sweeps", f"{label}.events",
            base_point.get("events"), fresh_point.get("events"),
            0.0, worse="either", inject_scale=inject_scale,
            skipped=skipped,
        )
        _check(
            checks, "sweeps", f"{label}.latency_us",
            base_point.get("latency_us"), fresh_point.get("latency_us"),
            tolerance, worse="higher", inject_scale=inject_scale,
            skipped=skipped,
        )
    _check(
        checks, "sweeps", "wall_s",
        serial.get("wall_s"), fresh.get("wall_s"),
        wall_tolerance if wall_tolerance is not None else tolerance,
        worse="higher", advisory=wall_tolerance is None,
        inject_scale=inject_scale, skipped=skipped,
    )
    return checks


def _compare_milestone(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    """Gate the latest milestone's perf floors (when it declares any).

    Unlike the baseline-vs-fresh diffs, these compare against *absolute*
    floors committed with the milestone (``gate`` mapping), so the gate
    keeps enforcing the tentpole's targets even as the measured baseline
    drifts.  Wall-clock floors carry their own slack in the committed
    value; the tolerance here only absorbs CI jitter.
    """
    milestones = baseline.get("milestones") or []
    gate = (milestones[-1] if milestones else {}).get("gate") or {}
    checks: List[Check] = []
    _check(
        checks, "milestone", "cold_single_point_s",
        gate.get("cold_single_point_s_max"), fresh.get("cold_single_point_s"),
        tolerance=0.10, worse="higher", inject_scale=inject_scale,
        skipped=skipped,
    )
    _check(
        checks, "milestone", "warm_events_per_s",
        gate.get("warm_events_per_s_min"), fresh.get("warm_events_per_s"),
        tolerance=0.10, worse="lower", inject_scale=inject_scale,
        skipped=skipped,
    )
    return checks


def _compare_chaos(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerance: float,
    wall_tolerance: Optional[float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    checks: List[Check] = []
    availability = baseline.get("availability", {})
    mttr = baseline.get("mttr_us", {})
    faults = baseline.get("faults", {})
    spec = [
        ("availability_mean", availability.get("mean"), "lower"),
        ("availability_min", availability.get("min"), "lower"),
        ("recovery_rate", baseline.get("recovery_rate"), "lower"),
        ("mttr_p50_us", mttr.get("p50"), "higher"),
        ("mttr_p99_us", mttr.get("p99"), "higher"),
        ("faults_recovered", faults.get("recovered"), "lower"),
        ("kernel_events", baseline.get("kernel_events"), "higher"),
    ]
    for metric, base_value, worse in spec:
        _check(
            checks, "chaos", metric, base_value, fresh.get(metric),
            tolerance, worse=worse, inject_scale=inject_scale,
            skipped=skipped,
        )
    _check(
        checks, "chaos", "wall_s",
        baseline.get("soak_wall_s"), fresh.get("wall_s"),
        wall_tolerance if wall_tolerance is not None else tolerance,
        worse="higher", advisory=wall_tolerance is None,
        inject_scale=inject_scale, skipped=skipped,
    )
    return checks


def _compare_fleet(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerance: float,
    wall_tolerance: Optional[float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    checks: List[Check] = []
    requests = baseline.get("requests", {})
    slos = baseline.get("slos", {})
    spec = [
        ("offered", requests.get("offered"), "higher"),
        ("admitted", requests.get("admitted"), "lower"),
        ("coalesced", requests.get("coalesced"), "lower"),
        ("loads", requests.get("loads"), "higher"),
        ("p50_latency_us", slos.get("p50_latency_us"), "higher"),
        ("p99_latency_us", slos.get("p99_latency_us"), "higher"),
        ("mean_wait_us", slos.get("mean_wait_us"), "higher"),
        ("rejected_rate", slos.get("rejected_rate"), "higher"),
        ("failed_rate", slos.get("failed_rate"), "higher"),
    ]
    for metric, base_value, worse in spec:
        _check(
            checks, "fleet", metric, base_value, fresh.get(metric),
            tolerance, worse=worse, inject_scale=inject_scale,
            skipped=skipped,
        )
    _check(
        checks, "fleet", "wall_s",
        baseline.get("fleet_wall_s"), fresh.get("wall_s"),
        wall_tolerance if wall_tolerance is not None else tolerance,
        worse="higher", advisory=wall_tolerance is None,
        inject_scale=inject_scale, skipped=skipped,
    )
    return checks


def _compare_fleet_chaos(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerance: float,
    wall_tolerance: Optional[float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    checks: List[Check] = []
    slos = baseline.get("chaos_slos", {})
    spec = [
        ("chaos_availability", slos.get("availability"), "lower"),
        ("chaos_goodput_per_ms", slos.get("goodput_per_ms"), "lower"),
        (
            "chaos_failover_latency_penalty_us",
            slos.get("failover_latency_penalty_us"),
            "higher",
        ),
        ("chaos_exhausted_rate", slos.get("exhausted_rate"), "higher"),
        ("chaos_failovers", slos.get("failovers"), "higher"),
        ("chaos_p99_latency_us", slos.get("p99_latency_us"), "higher"),
        ("chaos_rounds", baseline.get("chaos_rounds"), "higher"),
    ]
    fresh_keys = {
        "chaos_availability": "availability",
        "chaos_goodput_per_ms": "goodput_per_ms",
        "chaos_failover_latency_penalty_us": "failover_latency_penalty_us",
        "chaos_exhausted_rate": "exhausted_rate",
        "chaos_failovers": "failovers",
        "chaos_p99_latency_us": "p99_latency_us",
        "chaos_rounds": "rounds",
    }
    for metric, base_value, worse in spec:
        _check(
            checks, "fleet", metric, base_value,
            fresh.get(fresh_keys[metric]), tolerance, worse=worse,
            inject_scale=inject_scale, skipped=skipped,
        )
    _check(
        checks, "fleet", "chaos_wall_s",
        baseline.get("fleet_chaos_wall_s"), fresh.get("wall_s"),
        wall_tolerance if wall_tolerance is not None else tolerance,
        worse="higher", advisory=wall_tolerance is None,
        inject_scale=inject_scale, skipped=skipped,
    )
    return checks


def _compare_dram(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerance: float,
    wall_tolerance: Optional[float],
    inject_scale: float,
    skipped: Optional[List[str]] = None,
) -> List[Check]:
    checks: List[Check] = []
    summary = baseline.get("summary", {})
    spec = [
        ("open_uncontended_mb_s", "lower"),
        ("open_contended_mb_s", "lower"),
        ("closed_contended_mb_s", "lower"),
        ("open_row_hit_rate", "lower"),
        ("contention_slowdown", "higher"),
        ("open_vs_closed_ratio", "lower"),
        ("kernel_events", "higher"),
    ]
    for metric, worse in spec:
        _check(
            checks, "dram", metric, summary.get(metric), fresh.get(metric),
            tolerance, worse=worse, inject_scale=inject_scale,
            skipped=skipped,
        )
    _check(
        checks, "dram", "wall_s",
        baseline.get("dram_wall_s"), fresh.get("wall_s"),
        wall_tolerance if wall_tolerance is not None else tolerance,
        worse="higher", advisory=wall_tolerance is None,
        inject_scale=inject_scale, skipped=skipped,
    )
    return checks


def run_check(
    suites: Sequence[str] = ("sweeps", "chaos", "fleet", "dram"),
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: Optional[float] = None,
    inject_scale: float = 1.0,
    baseline_dir: Optional[str] = None,
) -> Tuple[int, List[str]]:
    """Diff fresh probe runs against the committed baselines.

    Returns ``(exit_code, report_lines)``; the CLI prints the lines and
    exits with the code.
    """
    lines: List[str] = []
    checks: List[Check] = []
    skipped: List[str] = []
    for suite in suites:
        try:
            baseline = load_baseline(suite, baseline_dir)
        except (FileNotFoundError, json.JSONDecodeError) as exc:
            lines.append(f"{suite}: baseline unreadable ({exc})")
            return 2, lines
        if suite == "sweeps":
            # Milestone floors probe first: its cold measurement is only
            # honest while this process has never run a point.  Baselines
            # whose latest milestone declares no gate skip the probe.
            milestones = baseline.get("milestones") or []
            if (milestones[-1] if milestones else {}).get("gate"):
                checks += _compare_milestone(
                    baseline, probe_milestone(), inject_scale, skipped=skipped
                )
            freqs = baseline.get("sweep", {}).get(
                "frequencies_mhz", [100.0, 200.0, 320.0]
            )
            fresh = probe_sweeps(freqs)
            checks += _compare_sweeps(
                baseline, fresh, tolerance, wall_tolerance, inject_scale,
                skipped=skipped,
            )
        elif suite == "chaos":
            campaign = baseline.get("campaign", {})
            fresh = probe_chaos(
                int(campaign.get("seed", 1)), int(campaign.get("cases", 3))
            )
            checks += _compare_chaos(
                baseline, fresh, tolerance, wall_tolerance, inject_scale,
                skipped=skipped,
            )
        elif suite == "fleet":
            fresh = probe_fleet(baseline.get("campaign", {}))
            checks += _compare_fleet(
                baseline, fresh, tolerance, wall_tolerance, inject_scale,
                skipped=skipped,
            )
            # Baselines that predate the health/failover layer carry no
            # chaos campaign; the degraded-mode gate simply doesn't run.
            chaos_campaign = baseline.get("chaos_campaign")
            if chaos_campaign:
                chaos_fresh = probe_fleet_chaos(chaos_campaign)
                checks += _compare_fleet_chaos(
                    baseline, chaos_fresh, tolerance, wall_tolerance,
                    inject_scale, skipped=skipped,
                )
        elif suite == "dram":
            fresh = probe_dram(baseline.get("campaign", {}))
            checks += _compare_dram(
                baseline, fresh, tolerance, wall_tolerance, inject_scale,
                skipped=skipped,
            )
        else:
            lines.append(f"{suite}: unknown suite")
            return 2, lines

    regressions = [check for check in checks if check.regressed]
    lines += [check.render() for check in checks]
    for entry in skipped:
        lines.append(f"skipped: {entry}")
    lines.append(
        f"bench --check: {len(checks)} comparison(s), "
        f"{len(regressions)} regression(s), {len(skipped)} skipped"
        + (f" [inject-scale {inject_scale:g}]" if inject_scale != 1.0 else "")
    )
    return (1 if regressions else 0), lines
