"""Fleet execution properties: determinism, forking, batching value.

These are the acceptance properties of the fleet service: a campaign is
a pure function of its spec (pinned across commits, byte-identical for
any worker count, unchanged by snapshot forking), and batching actually
buys queue-wait reduction rather than just existing.  Replay stability
of every command is held by
``tests/experiments/test_determinism_contract.py``.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.exec import SweepRunner
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.report import render_json
from repro.snapshot import reset_templates

SPEC = FleetSpec(boards=2, seed=1, duration_ms=10.0)

#: The CLI tests' two campaigns (``tests/experiments/test_cli_fleet.py``).
CLI_SPEC = FleetSpec(boards=2, seed=1, duration_ms=8.0)
CLI_CHAOS_SPEC = replace(
    CLI_SPEC, chaos=True, chaos_intensity=3, kill_boards=1
)


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            CLI_SPEC,
            "617e65103ce33f9ae8572127aebf1161ff5b1f2efce6c613a1adfd9caa1bea8d",
        ),
        (
            CLI_CHAOS_SPEC,
            "c083a9e34ed50da01d5d8c0fb0ebb4ba9535b68b4902a1a0925c3c6517cbd30f",
        ),
    ],
    ids=["plain", "chaos"],
)
def test_report_bytes_pinned_across_commits(spec, digest):
    """Byte-identity across commits, not just across runs of one commit.

    A refactor of the fleet must reproduce these digests; update them only
    with an EXPERIMENTS entry that explains why the report changed.
    """
    report = render_json(run_fleet(spec))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_serial_vs_jobs2_byte_identity():
    serial = render_json(run_fleet(SPEC, runner=SweepRunner(jobs=1)))
    parallel = render_json(run_fleet(SPEC, runner=SweepRunner(jobs=2)))
    assert serial == parallel


def test_fork_vs_fresh_boards_byte_identity(monkeypatch):
    """Snapshot-forked boards are a pure accelerator for the fleet too."""
    outputs = {}
    for enabled in ("1", "0"):
        monkeypatch.setenv("REPRO_SNAPSHOTS", enabled)
        reset_templates()
        outputs[enabled] = render_json(run_fleet(SPEC))
    reset_templates()
    assert outputs["1"] == outputs["0"]


def test_batching_reduces_mean_queue_wait():
    """ISSUE acceptance: coalescing + SG dispatch measurably cuts wait."""
    on = run_fleet(replace(SPEC, seed=5, duration_ms=15.0))
    off = run_fleet(replace(SPEC, seed=5, duration_ms=15.0, batching=False))
    assert on.slos.mean_wait_us is not None
    assert off.slos.mean_wait_us is not None
    assert on.slos.mean_wait_us < off.slos.mean_wait_us
    # Fewer fabric loads served the same admitted traffic.
    assert on.loads < on.admitted


def test_report_accounts_for_every_request():
    report = run_fleet(SPEC)
    assert report.offered == report.admitted + report.rejected
    assert len(report.outcomes) == report.admitted
    assert [outcome.index for outcome in report.outcomes] == sorted(
        outcome.index for outcome in report.outcomes
    )
    for outcome in report.outcomes:
        assert outcome.wait_us >= 0.0
        assert outcome.latency_us >= outcome.wait_us
    assert sum(usage.requests for usage in report.boards) == report.admitted
    for usage in report.boards:
        assert 0.0 <= usage.utilisation(report.horizon_us) <= 1.0


def test_slo_breach_detection():
    report = run_fleet(SPEC)
    slos = report.slos
    assert slos.breaches() == []
    assert slos.breaches(p99_target_us=0.001)
    assert slos.breaches(reject_target=-1.0)


def test_verify_without_chaos_arms_no_fault_storm():
    """``verify`` only attaches the invariant monitor: the campaign itself
    must be the plain one, not a chaos storm in disguise."""
    plain = run_fleet(CLI_SPEC).to_dict()
    verified = run_fleet(replace(CLI_SPEC, verify=True)).to_dict()
    assert verified["verify"]["checks"] > 0
    assert verified["verify"]["violations"] == []
    assert "faults_injected" not in verified["spec"]
    assert verified["slos"]["p50_latency_us"] == 2453.635
    assert verified["slos"]["p99_latency_us"] == 5788.179
    verified["spec"]["verify"] = False
    verified["verify"] = None
    assert verified == plain
