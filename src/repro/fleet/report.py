"""Fleet SLO reporting.

A fleet campaign is graded at the *request* level: what matters to a
tenant is not one board's reconfiguration latency but how long their
request sat in a queue plus how long the fabric load took, and whether
the request was admitted at all.  :class:`FleetReport` folds the
replayed per-request outcomes into the service-level objectives the
ROADMAP names — p50/p99 end-to-end latency, rejected-request rate,
per-board utilisation — using the same nearest-rank percentile helper
as every other campaign rollup in the repo
(:func:`repro.analysis.stats.nearest_rank`).

Serialisation follows the house convention: :func:`render_json` is
canonical (sorted keys, trailing newline) so byte-comparing two runs is
a meaningful determinism check, and :func:`format_report` renders the
human summary the CLI prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..analysis.stats import nearest_rank

__all__ = [
    "BoardUsage",
    "FleetReport",
    "FleetSlos",
    "RequestOutcome",
    "TERMINAL_EXHAUSTED",
    "TERMINAL_SERVED",
    "format_report",
    "render_json",
]

SCHEMA = "repro.fleet/v1"


#: Terminal states an admitted request can reach (exactly one each).
TERMINAL_SERVED = "served"
TERMINAL_EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class RequestOutcome:
    """One admitted request's replayed fate.

    Every admitted request reaches exactly one terminal state:
    ``served`` (a board completed its load — possibly after failover) or
    ``exhausted`` (the retry budget ran out; ``wait_us``/``latency_us``
    are ``None`` and ``board`` is the last board that failed it, ``-1``
    if none ever started it).  Rejected requests never get an outcome —
    they are counted at admission.
    """

    index: int
    board: int
    #: Queue wait: admission to dispatch-group start (µs).
    wait_us: Optional[float]
    #: End-to-end: arrival to group completion (µs).
    latency_us: Optional[float]
    #: Served by a multi-job SG group or a coalesced load.
    batched: bool
    #: The serving load's post-load scrub verdict.
    ok: bool
    #: Service attempts consumed across boards (1 = no failover).
    attempts: int
    terminal: str

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "board": self.board,
            "wait_us": self.wait_us,
            "latency_us": self.latency_us,
            "batched": self.batched,
            "ok": self.ok,
            "attempts": self.attempts,
            "terminal": self.terminal,
        }


@dataclass(frozen=True)
class BoardUsage:
    """One board's share of the campaign."""

    board: int
    loads: int
    groups: int
    requests: int
    #: Time the fabric was actually loading/scrubbing (µs).
    busy_us: float
    #: When this board finished its last group (µs).
    span_us: float

    def utilisation(self, horizon_us: float) -> float:
        if horizon_us <= 0:
            return 0.0
        return round(self.busy_us / horizon_us, 4)

    def to_mapping(self, horizon_us: float) -> Dict[str, Any]:
        return {
            "board": self.board,
            "loads": self.loads,
            "groups": self.groups,
            "requests": self.requests,
            "busy_us": self.busy_us,
            "utilisation": self.utilisation(horizon_us),
        }


@dataclass(frozen=True)
class FleetSlos:
    """The headline service-level numbers."""

    p50_latency_us: Optional[float]
    p99_latency_us: Optional[float]
    p50_wait_us: Optional[float]
    p99_wait_us: Optional[float]
    mean_wait_us: Optional[float]
    rejected_rate: float
    #: Fraction of served requests whose load failed its scrub check.
    failed_rate: float
    #: Fraction of *offered* requests that reached ``served`` — the
    #: degraded-mode headline: rejections and exhausted retries both
    #: count against it, so board loss shows up as an availability dip.
    availability: float = 1.0
    #: Served requests per millisecond of campaign horizon.
    goodput_per_ms: float = 0.0
    #: Failover re-admissions actually executed across the campaign.
    failovers: int = 0
    #: Mean end-to-end latency of served requests that needed more than
    #: one attempt, minus the first-try mean — what a failover costs a
    #: tenant.  ``None`` until both populations exist.
    failover_latency_penalty_us: Optional[float] = None
    #: Fraction of offered requests whose retry budget ran out.
    exhausted_rate: float = 0.0

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "p50_latency_us": self.p50_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "p50_wait_us": self.p50_wait_us,
            "p99_wait_us": self.p99_wait_us,
            "mean_wait_us": self.mean_wait_us,
            "rejected_rate": self.rejected_rate,
            "failed_rate": self.failed_rate,
            "availability": self.availability,
            "goodput_per_ms": self.goodput_per_ms,
            "failovers": self.failovers,
            "failover_latency_penalty_us": self.failover_latency_penalty_us,
            "exhausted_rate": self.exhausted_rate,
        }

    def breaches(
        self,
        p99_target_us: Optional[float] = None,
        reject_target: Optional[float] = None,
        availability_target: Optional[float] = None,
    ) -> List[str]:
        """Human-readable SLO violations against the given targets."""
        out = []
        if (
            p99_target_us is not None
            and self.p99_latency_us is not None
            and self.p99_latency_us > p99_target_us
        ):
            out.append(
                f"p99 latency {self.p99_latency_us:.1f}us exceeds "
                f"target {p99_target_us:.1f}us"
            )
        if reject_target is not None and self.rejected_rate > reject_target:
            out.append(
                f"rejected rate {self.rejected_rate:.4f} exceeds "
                f"target {reject_target:.4f}"
            )
        if (
            availability_target is not None
            and self.availability < availability_target
        ):
            out.append(
                f"availability {self.availability:.4f} below "
                f"target {availability_target:.4f}"
            )
        return out


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 3)


@dataclass
class FleetReport:
    """The full graded outcome of one fleet campaign."""

    spec: Dict[str, Any]
    offered: int
    admitted: int
    rejected: int
    coalesced: int
    loads: int
    batches: int
    slos: FleetSlos
    boards: List[BoardUsage] = field(default_factory=list)
    outcomes: List[RequestOutcome] = field(default_factory=list)
    #: Shared denominator for utilisation: campaign duration or fleet
    #: makespan, whichever is longer (overload drains past the horizon).
    horizon_us: float = 0.0
    #: Execution rounds run (1 = no failover round was needed).
    rounds: int = 1
    #: Per-board health timelines (plain data from the health tracker).
    health: List[Dict[str, Any]] = field(default_factory=list)
    #: ``{"board": b, "processes": [...]}`` for boards whose simulation
    #: left dead processes behind (satellite of the chaos convention).
    unhandled: List[Dict[str, Any]] = field(default_factory=list)
    #: ``{"checks": n, "violations": [...]}`` when ``--verify`` ran.
    verify: Optional[Dict[str, Any]] = None

    @classmethod
    def build(
        cls,
        spec: Mapping[str, Any],
        offered: int,
        plan,
        outcomes: Sequence[RequestOutcome],
        boards: Sequence[BoardUsage],
        rounds: int,
        failovers: int,
        health: Sequence[Mapping[str, Any]],
        unhandled: Sequence[Mapping[str, Any]],
        verify: Optional[Mapping[str, Any]],
    ) -> "FleetReport":
        served = [
            outcome for outcome in outcomes
            if outcome.terminal == TERMINAL_SERVED
        ]
        exhausted = sum(
            1 for outcome in outcomes
            if outcome.terminal == TERMINAL_EXHAUSTED
        )
        latencies = [outcome.latency_us for outcome in served]
        waits = [outcome.wait_us for outcome in served]
        failed = sum(1 for outcome in served if not outcome.ok)
        duration_us = float(spec.get("duration_ms", 0.0)) * 1e3
        makespan_us = max((usage.span_us for usage in boards), default=0.0)
        horizon_us = round(max(duration_us, makespan_us), 3)
        first_try = [o.latency_us for o in served if o.attempts == 1]
        retried = [o.latency_us for o in served if o.attempts > 1]
        penalty = None
        if first_try and retried:
            penalty = round(
                sum(retried) / len(retried) - sum(first_try) / len(first_try),
                3,
            )
        slos = FleetSlos(
            p50_latency_us=_round_opt(nearest_rank(latencies, 50)),
            p99_latency_us=_round_opt(nearest_rank(latencies, 99)),
            p50_wait_us=_round_opt(nearest_rank(waits, 50)),
            p99_wait_us=_round_opt(nearest_rank(waits, 99)),
            mean_wait_us=(
                round(sum(waits) / len(waits), 3) if waits else None
            ),
            rejected_rate=(
                round(len(plan.rejected) / offered, 4) if offered else 0.0
            ),
            failed_rate=(
                round(failed / len(served), 4) if served else 0.0
            ),
            availability=(
                round(len(served) / offered, 4) if offered else 1.0
            ),
            goodput_per_ms=(
                round(len(served) / (horizon_us / 1e3), 4)
                if horizon_us > 0 else 0.0
            ),
            failovers=int(failovers),
            failover_latency_penalty_us=penalty,
            exhausted_rate=(
                round(exhausted / offered, 4) if offered else 0.0
            ),
        )
        return cls(
            spec=dict(spec),
            offered=offered,
            admitted=plan.admitted,
            rejected=len(plan.rejected),
            coalesced=plan.coalesced,
            loads=plan.loads,
            batches=sum(
                sum(1 for group in board_plan.groups if len(group) > 1)
                for board_plan in plan.boards
            ),
            slos=slos,
            boards=list(boards),
            outcomes=list(outcomes),
            horizon_us=horizon_us,
            rounds=int(rounds),
            health=[dict(entry) for entry in health],
            unhandled=[dict(entry) for entry in unhandled],
            verify=dict(verify) if verify is not None else None,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "spec": self.spec,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "loads": self.loads,
            "batches": self.batches,
            "horizon_us": self.horizon_us,
            "rounds": self.rounds,
            "slos": self.slos.to_mapping(),
            "boards": [
                usage.to_mapping(self.horizon_us) for usage in self.boards
            ],
            "outcomes": [outcome.to_mapping() for outcome in self.outcomes],
            "health": self.health,
            "unhandled": self.unhandled,
            "verify": self.verify,
        }


def render_json(report: FleetReport) -> str:
    """Canonical JSON: sorted keys, trailing newline — byte-comparable."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}"


def format_report(report: FleetReport) -> str:
    """The CLI's human summary of one fleet campaign."""
    spec = report.spec
    slos = report.slos
    lines = [
        f"# Fleet report — {spec.get('boards')} board(s), "
        f"seed {spec.get('seed')}, {spec.get('arrival')} arrivals "
        f"@ {spec.get('rate_per_ms')}/ms for {spec.get('duration_ms')} ms",
        "",
        f"requests: {report.offered} offered, {report.admitted} admitted, "
        f"{report.rejected} rejected ({slos.rejected_rate:.2%}), "
        f"{report.coalesced} coalesced",
        f"loads: {report.loads} fabric loads in "
        f"{report.batches} multi-job batch(es)",
        f"latency_us: p50 {_fmt(slos.p50_latency_us)} "
        f"p99 {_fmt(slos.p99_latency_us)}",
        f"queue_wait_us: p50 {_fmt(slos.p50_wait_us)} "
        f"p99 {_fmt(slos.p99_wait_us)} mean {_fmt(slos.mean_wait_us)}",
        f"failed_rate: {slos.failed_rate:.2%}",
        f"availability: {slos.availability:.2%} "
        f"(goodput {slos.goodput_per_ms:.3f} req/ms)",
    ]
    if report.rounds > 1 or slos.failovers or slos.exhausted_rate:
        lines.append(
            f"failover: {slos.failovers} re-admission(s) over "
            f"{report.rounds} round(s), latency penalty "
            f"{_fmt(slos.failover_latency_penalty_us)} us, "
            f"exhausted {slos.exhausted_rate:.2%}"
        )
    if report.verify is not None:
        lines.append(
            f"verify: {report.verify.get('checks', 0)} checks, "
            f"{len(report.verify.get('violations', []))} violation(s)"
        )
    if report.unhandled:
        names = "; ".join(
            f"board{entry['board']}: {', '.join(entry['processes'])}"
            for entry in report.unhandled
        )
        lines.append(f"unhandled failures: {names}")
    lines += [
        "",
        "| board | loads | groups | requests | busy_us | utilisation |",
        "|---|---|---|---|---|---|",
    ]
    for usage in report.boards:
        lines.append(
            f"| {usage.board} | {usage.loads} | {usage.groups} "
            f"| {usage.requests} | {usage.busy_us:.1f} "
            f"| {usage.utilisation(report.horizon_us):.1%} |"
        )
    if report.health:
        lines += [
            "",
            "| board | state | breaker | opens | timeline |",
            "|---|---|---|---|---|",
        ]
        for entry in report.health:
            timeline = " → ".join(
                f"{event['state']}@{event['t_us']:.0f}us({event['reason']})"
                for event in entry.get("events", [])
            ) or "healthy throughout"
            lines.append(
                f"| {entry['board']} | {entry['state']} "
                f"| {entry['breaker']} | {entry['opens']} | {timeline} |"
            )
    return "\n".join(lines) + "\n"
