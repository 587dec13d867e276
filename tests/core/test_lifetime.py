"""A finished system is freed by reference counting.

A run must leave no reference cycle through device state.  With the
cyclic collector off, dropping the last reference to a system frees it
at once, together with its 4.46 MB configuration-memory slab, its staged
DRAM and its metrics.  A cycle anywhere on that graph would keep all of
it alive until the next full collection (DESIGN §18).
"""

import gc
import weakref

import pytest

from repro.core import PdrSystem
from repro.experiments.points import asp_descriptor, reconfigure_point
from repro.fabric import FirFilterAsp
from repro.fleet import FleetSpec, run_fleet
from repro.snapshot import fork_system


def _parts(system):
    return {
        "system": system,
        "memory": system.memory,
        "dram": system.dram,
        "dram_controller": system.dram_controller,
        "icap": system.icap,
        "metrics": system.metrics,
    }


@pytest.fixture
def built(monkeypatch):
    """Weak references to the parts of every ``PdrSystem`` built while
    the test runs, with the cyclic collector off."""
    refs = []
    init = PdrSystem.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append({name: weakref.ref(part) for name, part in _parts(self).items()})

    monkeypatch.setattr(PdrSystem, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _alive(refs):
    return [
        (index, name)
        for index, parts in enumerate(refs)
        for name, ref in parts.items()
        if ref() is not None
    ]


@pytest.mark.parametrize(
    "freq_mhz, temp_c",
    # A good load, a CRC failure, and the missing completion interrupt
    # (IRQ timeout, DMA soft reset and ICAP abort).
    [(200.0, 40.0), (320.0, 40.0), (310.0, 100.0)],
)
def test_table1_point_frees_its_system(built, freq_mhz, temp_c):
    workload = asp_descriptor(FirFilterAsp([1, 2, 3, 4]))
    result = reconfigure_point("RP1", freq_mhz, temp_c, workload)
    assert result.requested_freq_mhz == freq_mhz
    assert built
    assert _alive(built) == []


def test_forked_load_of_fresh_content_frees_its_system(built):
    system = fork_system()
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP2", FirFilterAsp([61, 17, 5, 29, 3]), 200.0)
    assert result.succeeded
    del system
    assert built
    assert _alive(built) == []


def test_plain_fleet_frees_every_board(built):
    report = run_fleet(FleetSpec(boards=2, seed=1, duration_ms=4.0))
    assert report.loads > 0
    assert len(built) >= 2
    assert _alive(built) == []
