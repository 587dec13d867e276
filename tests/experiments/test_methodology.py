"""Tests for the generalised operating-point methodology."""

import pytest

from repro.experiments.methodology import (
    Characterization,
    OperatingPoint,
    characterize_block,
    characterize_pdr_system,
    format_report,
)
from repro.power import PowerModel


def test_operating_point_efficiency():
    point = OperatingPoint(freq_mhz=200.0, throughput_mb_s=780.0, power_w=1.3)
    assert point.ok
    assert point.efficiency_mb_j == pytest.approx(600.0)
    failed = OperatingPoint(freq_mhz=320.0, throughput_mb_s=None, power_w=1.5)
    assert not failed.ok
    assert failed.efficiency_mb_j is None


def test_characterize_block_with_synthetic_curve():
    """A block that is linear to 200 MHz then flat, failing past 300."""

    def measure(freq):
        if freq > 300:
            return None
        return min(4.0 * freq, 800.0)

    result = characterize_block(
        "synthetic", measure, PowerModel(), [100, 200, 250, 300, 350]
    )
    assert len(result.points) == 5
    assert len(result.working_points()) == 4
    assert result.max_working_frequency() == 300
    # Efficiency peaks where the curve flattens; the plateau means no
    # throughput headroom beyond the efficient point.
    assert result.best_efficiency().freq_mhz == 200
    assert result.best_throughput().throughput_mb_s == 800.0
    assert not result.headroom_worth_it()


def test_headroom_detection_when_scaling_continues():
    """A block whose throughput keeps creeping up past its efficiency
    peak rewards chasing frequency (worth-it verdict flips)."""

    def measure(freq):
        # Full rate to 200 MHz, then a half-rate tail: throughput still
        # grows, but slower than power.
        return 4.0 * min(freq, 200.0) + 0.5 * max(freq - 200.0, 0.0)

    result = characterize_block(
        "scaler", measure, PowerModel(), [100, 200, 300, 400]
    )
    assert result.best_efficiency().freq_mhz == 200
    assert result.best_throughput().freq_mhz == 400
    assert result.headroom_worth_it()


def test_no_working_points_raises():
    result = Characterization("dead", [
        OperatingPoint(100.0, None, 1.0),
    ])
    with pytest.raises(ValueError):
        result.best_efficiency()
    with pytest.raises(ValueError):
        result.best_throughput()
    with pytest.raises(ValueError):
        result.max_working_frequency()


def test_pdr_system_characterization_matches_table2():
    result = characterize_pdr_system(frequencies=(100, 200, 280, 310))
    # 310 MHz is not a working point (no completion interrupt).
    assert len(result.working_points()) == 3
    best = result.best_efficiency()
    assert best.freq_mhz == 200
    assert best.efficiency_mb_j == pytest.approx(599.0, rel=0.02)
    assert not result.headroom_worth_it()
    text = format_report(result)
    assert "200" in text
    assert "failed" in text
