"""Soak campaign acceptance tests.

The seeded campaign is the PR's headline claim: >= 50 faults across >= 4
taxonomy kinds, >= 95 % recovered, zero invariant violations, zero
silently-dead processes — and the whole thing byte-identical under
parallel execution.  Every command's serial, ``--jobs 2``, cached and
fresh-built reruns are held together by
``tests/experiments/test_determinism_contract.py``.
"""

import pytest

from repro.chaos import SoakSlos, format_report, run_soak
from repro.exec import SweepRunner

SEED = 1
CASES = 5


@pytest.fixture(scope="module")
def campaign():
    return run_soak(seed=SEED, cases=CASES)


def test_campaign_injects_the_advertised_fault_mass(campaign):
    assert campaign.faults_injected >= 50
    assert len(campaign.by_kind) >= 4
    assert campaign.seu_injected > 0


def test_campaign_meets_recovery_and_availability_slos(campaign):
    assert campaign.recovery_rate >= 0.95
    assert campaign.availability_mean >= SoakSlos().min_availability
    assert campaign.faults_recovered >= 0.95 * campaign.faults_injected
    assert not campaign.breaches
    assert campaign.ok


def test_campaign_is_clean_of_violations_and_dead_processes(campaign):
    assert campaign.findings == []
    assert campaign.unhandled == []
    assert campaign.checks > 0


def test_campaign_reports_mttr_percentiles(campaign):
    assert campaign.mttr_samples > 0
    assert campaign.mttr_p50_us is not None
    assert campaign.mttr_p50_us <= campaign.mttr_p90_us <= campaign.mttr_p99_us
    assert campaign.mttr_p99_us <= SoakSlos().max_mttr_p99_us


def test_report_has_no_wall_clock(campaign):
    text = format_report(campaign)
    assert "seed 1" in text
    assert "SLO breaches: 0" in text
    # CI byte-compares this output across runs: no wall-clock allowed.
    assert "wall" not in text and "seconds" not in text


def test_parallel_campaign_matches_serial():
    serial = run_soak(seed=SEED, cases=2, runner=SweepRunner(jobs=1))
    parallel = run_soak(seed=SEED, cases=2, runner=SweepRunner(jobs=2))
    assert format_report(serial) == format_report(parallel)
    assert serial.faults_injected == parallel.faults_injected
    assert serial.mttr_p99_us == parallel.mttr_p99_us


def test_slo_breach_detected():
    # An impossible availability floor must register as a breach.
    strict = run_soak(
        seed=SEED,
        cases=1,
        slos=SoakSlos(min_availability=1.0),
    )
    assert strict.breaches
    metric, observed, floor = strict.breaches[0]
    assert metric == "availability"
    assert observed < floor == 1.0
    assert not strict.ok
    assert "SLO BREACHES" in format_report(strict)
