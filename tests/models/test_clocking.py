"""Tests for the Clock Wizard (MMCM) and the per-RP clock manager."""

import pytest

from repro.clocking import ClockManager, ClockWizard, MmcmConstraints
from repro.sim import ClockDomain, Simulator


@pytest.fixture()
def wizard():
    sim = Simulator()
    domain = ClockDomain(sim, 100.0)
    return sim, domain, ClockWizard(sim, domain)


PAPER_FREQUENCIES = [100, 140, 180, 200, 240, 280, 310, 320, 360]


def test_paper_frequencies_exactly_synthesisable(wizard):
    _sim, _domain, wiz = wizard
    for freq in PAPER_FREQUENCIES:
        setting = wiz.best_setting(float(freq))
        assert setting.f_out_mhz == pytest.approx(freq, abs=1e-9), freq
        constraints = wiz.constraints
        assert constraints.vco_min_mhz <= setting.vco_mhz <= constraints.vco_max_mhz


def test_unsynthesisable_exact_request_quantised(wizard):
    _sim, _domain, wiz = wizard
    achieved = wiz.achievable_mhz(313.7)
    assert achieved == pytest.approx(313.7, rel=0.01)


def test_invalid_request_rejected(wizard):
    _sim, _domain, wiz = wizard
    with pytest.raises(ValueError):
        wiz.best_setting(0.0)


def test_program_waits_for_lock(wizard):
    sim, domain, wiz = wizard
    done = {}

    def driver(sim):
        achieved = yield wiz.program(200.0)
        done["f"] = achieved
        done["t"] = sim.now

    sim.process(driver(sim))
    sim.run()
    assert done["f"] == pytest.approx(200.0)
    assert done["t"] == pytest.approx(wiz.constraints.lock_time_us * 1e3)
    assert domain.freq_mhz == pytest.approx(200.0)
    assert wiz.locked
    assert wiz.reprogram_count == 1


def test_repeat_program_reuses_the_cached_search(wizard):
    """A second ``program`` at the same frequency takes its setting from
    the shared search memo, without a new search."""
    from repro.clocking import wizard as wizard_mod

    sim, _domain, wiz = wizard
    search = wizard_mod._best_setting
    search.cache_clear()
    wiz.program(240.0)
    sim.run()
    first = wiz.current_setting
    assert search.cache_info().misses == 1
    wiz.program(240.0)
    sim.run()
    assert wiz.current_setting == first
    assert wiz.current_setting is first
    info = search.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_lock_deasserts_during_reprogram(wizard):
    sim, _domain, wiz = wizard
    wiz.program(150.0)
    assert not wiz.locked
    sim.run()
    assert wiz.locked


def test_vco_legality_enforced():
    sim = Simulator()
    domain = ClockDomain(sim, 100.0)
    tight = MmcmConstraints(vco_min_mhz=1000.0, vco_max_mhz=1100.0)
    wizard = ClockWizard(sim, domain, constraints=tight)
    setting = wizard.best_setting(100.0)
    assert 1000.0 <= setting.vco_mhz <= 1100.0


# ------------------------------------------------------------ clock manager --
def test_manager_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClockManager(sim, outputs=0)


def test_manager_assignment_and_programming():
    sim = Simulator()
    manager = ClockManager(sim, outputs=5)
    domain = manager.assign("RP1", 0)
    assert manager.domain_of("RP1") is domain

    def driver(sim):
        yield manager.program(0, 250.0)

    sim.process(driver(sim))
    sim.run()
    assert manager.domain_of("RP1").freq_mhz == pytest.approx(250.0)


def test_manager_independent_outputs():
    sim = Simulator()
    manager = ClockManager(sim, outputs=2)
    manager.assign("A", 0)
    manager.assign("B", 1)

    def driver(sim):
        yield manager.program(0, 150.0)

    sim.process(driver(sim))
    sim.run()
    assert manager.domain_of("A").freq_mhz == pytest.approx(150.0)
    assert manager.domain_of("B").freq_mhz == pytest.approx(100.0)


def test_manager_unknown_consumer_and_index():
    sim = Simulator()
    manager = ClockManager(sim, outputs=2)
    with pytest.raises(KeyError):
        manager.domain_of("ghost")
    with pytest.raises(IndexError):
        manager.program(5, 100.0)
    with pytest.raises(IndexError):
        manager.assign("X", 9)
