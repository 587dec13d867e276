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
from repro.obs import TELEMETRY_BOOK
from repro.sram_pr import SramPrSystem


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
    system = PdrSystem()
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP2", FirFilterAsp([61, 17, 5, 29, 3]), 200.0)
    assert result.succeeded
    del system
    assert built
    assert _alive(built) == []


def test_batch_that_loses_its_interrupt_frees_its_system(built):
    # The chain's IRQ timeout, DMA soft reset and ICAP abort leave no
    # cycle behind.
    system = PdrSystem()
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 310.0
    )
    assert not batch.load.interrupt_seen
    del system
    assert built
    assert _alive(built) == []


def test_plain_fleet_frees_every_board(built):
    report = run_fleet(FleetSpec(boards=2, seed=1, duration_ms=4.0))
    assert report.loads > 0
    assert len(built) >= 2
    assert _alive(built) == []


def test_chaos_fleet_with_a_killed_board_frees_every_board(built):
    # The killed board stops with chaos faults still scheduled; disarming
    # its injector must end their delivery processes too.
    report = run_fleet(
        FleetSpec(
            boards=4,
            seed=17,
            duration_ms=14.0,
            chaos=True,
            chaos_intensity=6,
            kill_boards=1,
        )
    )
    assert report.loads > 0
    assert len(built) >= 4
    assert _alive(built) == []


def test_captured_system_is_freed_while_the_book_keeps_its_counts(built):
    # The book keeps a captured system's registry for export after the
    # run; the registry holds the devices' count records, never a device.
    with TELEMETRY_BOOK.capture():
        system = PdrSystem()
        system.set_die_temperature(40.0)
        result = system.reconfigure("RP1", FirFilterAsp([1, 2, 3, 4]), 200.0)
    assert result.succeeded
    del system
    assert len(built) == 1
    assert [name for _index, name in _alive(built)] == ["metrics"]
    (_label, registry), = TELEMETRY_BOOK.registries
    assert registry.get("dma.bytes_moved").value == 528760.0
    assert registry.to_dict()["dma.bytes_moved"] == {
        "type": "counter",
        "value": 528760.0,
    }


def test_captured_sram_pr_system_is_freed_while_the_book_keeps_its_counts():
    enabled = gc.isenabled()
    gc.disable()
    try:
        with TELEMETRY_BOOK.capture():
            system = SramPrSystem()
            result = system.reconfigure("RP1", FirFilterAsp([1, 2, 3]))
        refs = [weakref.ref(system), weakref.ref(system.memory)]
        del system
        assert result.crc_valid
        assert [ref() for ref in refs] == [None, None]
        (_label, registry), = TELEMETRY_BOOK.registries
        assert registry.get("sram_pr.reconfigures").value == 1.0
    finally:
        if enabled:
            gc.enable()
