"""Golden output E14/E16: the fleet-scale PDR service, calm and under chaos.

Runs a small seeded fleet campaign (4 boards, Poisson arrivals),
asserts the fleet layer's core guarantees (every request accounted for,
no scrub failures, batching active), then reruns the fleet under a
board-kill chaos storm (E16) and asserts the health/failover layer's
guarantees: request conservation, failover activity, and a quarantined
board rejoining through its half-open circuit-breaker probe.  Writes
both the calm and degraded-mode SLO figures to ``BENCH_fleet.json`` at
the repo root.  Every recorded value is simulated, so a rerun
reproduces the file byte for byte and
``git diff --exit-code -- 'BENCH_*.json'`` gates it.
"""

import json
import os

from repro.fleet import FleetSpec, run_fleet

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_fleet.json")

_SPEC = FleetSpec(boards=4, seed=1, duration_ms=20.0)

#: Seed 17 is the demonstration campaign from EXPERIMENTS E16: one board
#: dies permanently mid-run and another quarantines on consecutive
#: deadline breaches, then rejoins via a successful half-open probe.
_CHAOS_SPEC = FleetSpec(
    boards=4,
    seed=17,
    duration_ms=14.0,
    chaos=True,
    chaos_intensity=6,
    kill_boards=1,
)


def test_bench_fleet_service():
    report = run_fleet(_SPEC)

    # The fleet layer's core guarantees, even at benchmark scale.
    assert report.offered == report.admitted + report.rejected
    assert len(report.outcomes) == report.admitted
    assert report.slos.failed_rate == 0.0
    assert report.coalesced > 0  # the hot set actually coalesced
    assert report.slos.p99_latency_us is not None

    chaos_report = run_fleet(_CHAOS_SPEC)

    # The health/failover layer's guarantees: conservation under board
    # loss, actual failover traffic, and a breaker-probe rejoin.
    assert chaos_report.offered == chaos_report.admitted + chaos_report.rejected
    assert len(chaos_report.outcomes) == chaos_report.admitted
    assert chaos_report.slos.failovers > 0
    assert chaos_report.rounds > 1
    states = {entry["state"] for entry in chaos_report.health}
    assert "dead" in states  # the scheduled board kill landed
    reasons = {
        event["reason"]
        for entry in chaos_report.health
        for event in entry["events"]
    }
    assert "probe_ok_rejoined" in reasons  # quarantine → half-open → rejoin

    payload = {
        "generated_by": "benchmarks/test_bench_fleet.py",
        "campaign": _SPEC.to_mapping(),
        "requests": {
            "offered": report.offered,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "coalesced": report.coalesced,
            "loads": report.loads,
            "batches": report.batches,
        },
        "slos": report.slos.to_mapping(),
        "utilisation": {
            f"board{usage.board}": usage.utilisation(report.horizon_us)
            for usage in report.boards
        },
        "chaos_campaign": _CHAOS_SPEC.to_mapping(),
        "chaos_rounds": chaos_report.rounds,
        "chaos_slos": chaos_report.slos.to_mapping(),
        "chaos_board_states": {
            f"board{entry['board']}": entry["state"]
            for entry in chaos_report.health
        },
    }
    with open(_REPORT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
