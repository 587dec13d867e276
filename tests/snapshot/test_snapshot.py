"""Unit tests for the copy-on-write snapshot layer.

Covers the snapshot contract (untimed-only capture, config-matched
restore), template forking semantics, the ``REPRO_SNAPSHOTS`` kill
switch, and — most importantly — byte-identity of forked vs fresh-built
systems through a full timed reconfiguration.
"""

import pytest

from repro.core import PdrSystem, PdrSystemConfig
from repro.experiments.points import asp_descriptor
from repro.fabric import FirFilterAsp
from repro.snapshot import (
    SnapshotError,
    SystemSnapshot,
    fork_point_system,
    fork_system,
    reset_templates,
    snapshots_enabled,
    template_count,
    template_snapshot,
)

COEFFS = [3, -1, 4, 1, -5, 9, 2, 6]
WORKLOAD = asp_descriptor(FirFilterAsp(COEFFS))


@pytest.fixture(autouse=True)
def _clean_registry():
    reset_templates()
    yield
    reset_templates()


def _run(system):
    """One timed reconfiguration; returns everything that must match."""
    system.set_die_temperature(25.0)
    result = system.reconfigure("RP1", FirFilterAsp(COEFFS), 200.0)
    return (
        result.latency_us,
        result.crc_valid,
        system.sim.events_processed,
        system.sim.now,
        system.dram_controller.counts.row_hits,
        system.dram_controller.counts.row_misses,
    )


# -- snapshot contract -------------------------------------------------------

def test_capture_refuses_a_system_that_already_ran():
    system = PdrSystem()
    system.reconfigure("RP1", FirFilterAsp([1]), 100.0)
    with pytest.raises(SnapshotError):
        SystemSnapshot.capture(system)


def test_restore_refuses_mismatched_config():
    snapshot = SystemSnapshot.capture(PdrSystem())
    other = PdrSystem(PdrSystemConfig(die_temp_c=77.0))
    with pytest.raises(SnapshotError):
        snapshot.restore_into(other)


def test_fork_requires_a_snapshot():
    with pytest.raises(TypeError):
        PdrSystem.fork({"not": "a snapshot"})


def test_pristine_capture_elides_empty_state():
    snapshot = PdrSystem().snapshot()
    assert snapshot.memory_state is None
    assert snapshot.dram_state is None
    assert snapshot.bitstreams == ()
    assert snapshot.staged == ()


def test_staged_capture_carries_bitstream_and_dram_state():
    system = PdrSystem()
    bitstream = system.make_bitstream("RP1", FirFilterAsp([1]))
    addr = system.stage_bitstream(bitstream)
    snapshot = system.snapshot()
    assert snapshot.dram_state is not None
    assert len(snapshot.bitstreams) == 1
    assert snapshot.staged == ((0, addr),)

    fork = PdrSystem.fork(snapshot)
    # The fork resolves the same build to the same object and the same
    # already-staged address — no rebuild, no restage.
    again = fork.make_bitstream("RP1", FirFilterAsp([1]))
    assert again is bitstream
    assert fork.stage_bitstream(again) == addr
    assert fork.dram.load(addr, 16) == bitstream.to_bytes()[:16]


def test_fork_restores_scrubber_expected_crcs():
    system = PdrSystem()
    system.scrubber.set_expected_crc("RP1", 0xDEADBEEF)
    fork = PdrSystem.fork(system.snapshot())
    assert fork.scrubber.expected_regions() == ["RP1"]


# -- byte-identity -----------------------------------------------------------

def test_forked_run_matches_fresh_run_exactly():
    fresh = _run(PdrSystem())
    forked = _run(fork_point_system("RP1", WORKLOAD))
    assert forked == fresh
    # And a second fork of the now-cached template.
    assert _run(fork_point_system("RP1", WORKLOAD)) == fresh


def test_fork_with_config_overrides_matches_fresh():
    config = {"die_temp_c": 60.0, "dma_burst_bytes": 512}
    fresh = _run(PdrSystem(PdrSystemConfig(**config)))
    assert _run(fork_system(config)) == fresh


# -- template registry -------------------------------------------------------

def test_templates_are_keyed_by_content_identity():
    fork_system({"die_temp_c": 40.0})
    fork_system({"die_temp_c": 40.0})
    assert template_count() == 1
    fork_system({"die_temp_c": 41.0})
    assert template_count() == 2


def test_template_snapshot_is_reused():
    first = template_snapshot({"die_temp_c": 40.0})
    second = template_snapshot({"die_temp_c": 40.0})
    assert first is second


def test_env_switch_disables_forking(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
    assert not snapshots_enabled()
    fork_system(None)
    fork_point_system("RP1", WORKLOAD)
    assert template_count() == 0  # no templates built while disabled
    monkeypatch.setenv("REPRO_SNAPSHOTS", "1")
    assert snapshots_enabled()


def test_disabled_forking_still_byte_identical(monkeypatch):
    fresh = _run(PdrSystem())
    monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
    assert _run(fork_point_system("RP1", WORKLOAD)) == fresh
