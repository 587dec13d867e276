"""Tests for the ``repro-pdr bench --check`` regression gate."""

import json

import pytest

from repro.experiments import benchcheck
from repro.experiments.benchcheck import (
    Check,
    DEFAULT_TOLERANCE,
    load_baseline,
    run_check,
)


# -- Check math ----------------------------------------------------------------


def test_check_delta_is_signed_fraction_in_worse_direction():
    worse_higher = Check("s", "latency", baseline=100.0, fresh=110.0,
                         tolerance=0.02, worse="higher")
    assert worse_higher.delta == pytest.approx(0.10)
    assert worse_higher.regressed

    improved = Check("s", "latency", baseline=100.0, fresh=90.0,
                     tolerance=0.02, worse="higher")
    assert improved.delta == pytest.approx(-0.10)
    assert not improved.regressed

    worse_lower = Check("c", "availability", baseline=0.9, fresh=0.8,
                        tolerance=0.02, worse="lower")
    assert worse_lower.delta == pytest.approx((0.9 - 0.8) / 0.9)
    assert worse_lower.regressed


def test_check_within_tolerance_passes():
    check = Check("s", "events", baseline=1000.0, fresh=1019.0, tolerance=0.02)
    assert check.delta == pytest.approx(0.019)
    assert not check.regressed
    assert "[ok]" in check.render()


def test_advisory_check_never_fails_the_gate():
    check = Check("s", "wall_s", baseline=1.0, fresh=50.0,
                  tolerance=0.02, advisory=True)
    assert check.delta == pytest.approx(49.0)
    assert not check.regressed
    assert "[advisory]" in check.render()


def test_zero_baseline_does_not_divide_by_zero():
    check = Check("s", "faults", baseline=0.0, fresh=1.0, tolerance=0.02)
    assert check.delta > 0  # huge, but finite
    assert check.regressed


def test_scaled_distorts_in_the_worse_direction():
    assert benchcheck._scaled(100.0, "higher", 2.0) == 200.0
    assert benchcheck._scaled(0.9, "lower", 2.0) == pytest.approx(0.45)
    assert benchcheck._scaled(100.0, "higher", 1.0) == 100.0


# -- run_check exit codes ------------------------------------------------------


def _write_sweeps_baseline(path, events=7296.0, latency=677.025, wall=1.0):
    doc = {
        "sweep": {"frequencies_mhz": [200.0]},
        "runs": {
            "serial": {
                "wall_s": wall,
                "points": [
                    {
                        "label": "bench@200MHz",
                        "events": events,
                        "latency_us": latency,
                    }
                ],
            }
        },
    }
    (path / "BENCH_sweeps.json").write_text(json.dumps(doc))


def _fake_probe_sweeps(events=7296.0, latency=677.025, wall=2.0):
    def probe(frequencies_mhz):
        return {
            "wall_s": wall,
            "points": {
                f"bench@{freq:g}MHz": {"events": events, "latency_us": latency}
                for freq in frequencies_mhz
            },
        }

    return probe


def test_run_check_passes_matching_baseline(tmp_path, monkeypatch):
    _write_sweeps_baseline(tmp_path)
    monkeypatch.setattr(benchcheck, "probe_sweeps", _fake_probe_sweeps())
    code, lines = run_check(suites=("sweeps",), baseline_dir=str(tmp_path))
    assert code == 0
    assert any("0 regression(s)" in line for line in lines)
    # Wall-clock doubled but stays advisory by default.
    assert any("wall_s" in line and "advisory" in line for line in lines)


def test_run_check_flags_real_regression(tmp_path, monkeypatch):
    _write_sweeps_baseline(tmp_path, latency=677.025)
    monkeypatch.setattr(
        benchcheck, "probe_sweeps", _fake_probe_sweeps(latency=800.0)
    )
    code, lines = run_check(suites=("sweeps",), baseline_dir=str(tmp_path))
    assert code == 1
    assert any("latency_us" in line and "REGRESSED" in line for line in lines)


@pytest.mark.parametrize("drift", [-1.0, 1.0])
def test_run_check_one_event_drift_fails_the_gate(tmp_path, monkeypatch, drift):
    # Kernel event counts gate exactly, in both directions: a 2 % band
    # once let a dropped event per point (7297 -> 7296) pass unnoticed.
    _write_sweeps_baseline(tmp_path)
    monkeypatch.setattr(
        benchcheck, "probe_sweeps", _fake_probe_sweeps(events=7296.0 + drift)
    )
    code, lines = run_check(suites=("sweeps",), baseline_dir=str(tmp_path))
    assert code == 1
    assert any(
        "events" in line and "exact" in line and "REGRESSED" in line
        for line in lines
    )


def test_run_check_inject_scale_forces_failure(tmp_path, monkeypatch):
    _write_sweeps_baseline(tmp_path)
    monkeypatch.setattr(benchcheck, "probe_sweeps", _fake_probe_sweeps())
    code, lines = run_check(
        suites=("sweeps",), baseline_dir=str(tmp_path), inject_scale=2.0
    )
    assert code == 1
    assert any("inject-scale 2" in line for line in lines)


def test_run_check_wall_tolerance_opts_into_gating(tmp_path, monkeypatch):
    _write_sweeps_baseline(tmp_path, wall=1.0)
    monkeypatch.setattr(benchcheck, "probe_sweeps", _fake_probe_sweeps(wall=3.0))
    code, lines = run_check(
        suites=("sweeps",), baseline_dir=str(tmp_path), wall_tolerance=0.5
    )
    assert code == 1
    assert any("wall_s" in line and "REGRESSED" in line for line in lines)


def test_run_check_missing_baseline_exits_two(tmp_path):
    code, lines = run_check(suites=("sweeps",), baseline_dir=str(tmp_path))
    assert code == 2
    assert any("baseline unreadable" in line for line in lines)


def test_run_check_corrupt_baseline_exits_two(tmp_path):
    (tmp_path / "BENCH_sweeps.json").write_text("{not json")
    code, lines = run_check(suites=("sweeps",), baseline_dir=str(tmp_path))
    assert code == 2


def test_load_baseline_reads_committed_files():
    # The repo ships all four baselines; the default root resolves them.
    doc = load_baseline("sweeps")
    assert "runs" in doc
    doc = load_baseline("chaos")
    assert "availability" in doc
    doc = load_baseline("dram")
    assert "summary" in doc


def test_dram_baseline_gates_against_fresh_probe(tmp_path):
    """The dram suite end-to-end: a fresh reduced probe must match the
    committed summary within tolerance, and the inject-scale self-test
    must trip the gate."""
    code, lines = run_check(suites=("dram",))
    assert code == 0, lines
    assert any(line.startswith("dram.open_row_hit_rate") for line in lines)
    code, _ = run_check(suites=("dram",), inject_scale=2.0)
    assert code == 1


def test_probe_sweeps_matches_committed_baseline_shape():
    """One real (fast, single-point) probe: deterministic kernel figures."""
    fresh = benchcheck.probe_sweeps([200.0])
    point = fresh["points"]["bench@200MHz"]
    committed = {
        p["label"]: p for p in load_baseline("sweeps")["runs"]["serial"]["points"]
    }
    assert point["events"] == committed["bench@200MHz"]["events"]
    assert point["latency_us"] == pytest.approx(677.025, rel=0.05)
    assert fresh["wall_s"] > 0
