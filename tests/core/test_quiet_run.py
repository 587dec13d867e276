"""A quiet DMA buffer runs inside its first kernel entry, as the chain would.

When the HP port's master has the memory path to itself and nothing
else is scheduled before a buffer must end, the DMA runs the buffer's
bursts inside the entry that issues its first one
(``AxiDmaEngine._run_buffer``).  The callback chain stays the reference:
arming fault hooks that inject nothing forces every burst onto it, and
each case below compares the two paths value for value — results,
exported metrics with the kernel statistics, DDR and crossbar ledgers,
row outcomes, port bytes, ICAP and stream counts, the configuration
memory and the simulated clock.
"""

import hashlib

import pytest

from repro.axi import AxiHpPort, AxiInterconnect, AxiStream, AxiTrafficGenerator
from repro.bitstream import make_z7020_layout
from repro.core import PdrSystem, PdrSystemConfig
from repro.dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    MM2S_DMACR,
    MM2S_LENGTH,
    MM2S_SA,
)
from repro.dram import BankDramController, DdrTiming, DramDevice
from repro.experiments.calibration import PAPER_TABLE1
from repro.fabric import Aes128Asp, ConfigMemory, FirFilterAsp, VectorScaleAsp
from repro.fleet import FleetSpec, run_fleet
from repro.icap import IcapController
from repro.obs import MetricsRegistry
from repro.sim import ClockDomain, Simulator
from repro.verify import InvariantMonitor

from ..axi.test_burst_fast_path import _arm_noop_fault_hooks

_TEMPS_C = (40.0, 60.0, 80.0, 100.0)
_ASP = FirFilterAsp([1, 2, 3, 4])
_BATCH = [("RP1", FirFilterAsp([1, 2, 3, 4])), ("RP2", FirFilterAsp([9, 8, 7, 6]))]


def _system(chain, temp_c=40.0, **config):
    system = PdrSystem(PdrSystemConfig(**config))
    system.set_die_temperature(temp_c)
    if chain:
        _arm_noop_fault_hooks(system)
    return system


def _counts(system):
    """The datapath's counts at this instant."""
    stream = system.stream
    return {
        "now": system.sim.now,
        "dma": dict(vars(system.dma.counts)),
        "ddr": dict(vars(system.dram_controller.counts)),
        "stream": dict(vars(stream.counts)),
        "stream_ledgers": (
            stream.stat_granted_words,
            stream.stat_released_words,
            stream.stat_queued_words,
            stream.stat_consumed_words,
            stream.stat_pushed_bursts,
            stream.stat_taken_bursts,
            stream.free_words,
        ),
        "icap": dict(vars(system.icap.counts)),
        "port_bytes": system.hp0.bytes_transferred,
    }


def _observed(system, results):
    sim = system.sim
    controller = system.dram_controller
    memory = system.memory
    seen = _counts(system)
    seen.update(
        results=results,
        metrics=system.metrics.to_dict(),
        kernel=(sim.events_processed, sim.heap_high_water, sim.processes_spawned),
        ddr_ledgers={m: dict(vars(ledger)) for m, ledger in controller.masters.items()},
        crossbar_ledgers={
            m: dict(vars(ledger)) for m, ledger in system.interconnect.masters.items()
        },
        rows=(
            controller.counts.row_hits,
            controller.counts.row_misses,
            controller.counts.row_conflicts,
        ),
        busy_ns=controller.busy_ns,
        slab=hashlib.sha256(
            memory.read_frames_packed(0, memory.total_frames)
        ).hexdigest(),
    )
    return seen


def _both_paths(run):
    """``run(system)`` on a system left to the quiet run and on one forced
    onto the chain; returns both observations."""
    return [run(chain) for chain in (False, True)]


# -- identity: the run against the chain ---------------------------------------
@pytest.mark.parametrize("temp_c", _TEMPS_C)
def test_table1_grid_matches_the_chain(temp_c):
    """Every Table-I frequency at this temperature: good loads, the
    310 MHz hangs and the corrupted loads above it."""
    for freq_mhz in sorted(PAPER_TABLE1):

        def run(chain):
            system = _system(chain, temp_c)
            result = system.reconfigure("RP1", _ASP, freq_mhz)
            return _observed(system, [result])

        quiet, chain = _both_paths(run)
        assert quiet == chain, f"{freq_mhz:g} MHz @ {temp_c:g} C"


def test_sg_batch_matches_the_chain():
    def run(chain):
        system = _system(chain)
        return _observed(system, system.reconfigure_batch(_BATCH, 200.0))

    quiet, chain = _both_paths(run)
    assert quiet == chain


def test_telemetry_off_load_matches_the_chain():
    def run(chain):
        system = _system(chain, telemetry=False)
        return _observed(system, [system.reconfigure("RP1", _ASP, 200.0)])

    quiet, chain = _both_paths(run)
    assert quiet == chain


@pytest.mark.parametrize(
    "region, asp",
    [
        ("RP1", FirFilterAsp([7, -3, 12, 5, -9, 1, 0, 4])),
        ("RP2", Aes128Asp([0x01234567, 0x89ABCDEF, 0x0F1E2D3C, 0x4B5A6978])),
        ("RP3", VectorScaleAsp(371, 9)),
        ("RP4", FirFilterAsp([2, 4, 8, 16, 32, 64, 128, 256])),
    ],
)
def test_fresh_content_load_matches_the_chain(region, asp):
    """A content-sized bitstream of never-seen content: its last burst
    is short."""

    def run(chain):
        system = _system(chain)
        bitstream = system.make_bitstream(region, asp, pad_to=None)
        return _observed(system, [system.reconfigure(region, asp, 200.0, bitstream)])

    quiet, chain = _both_paths(run)
    assert quiet == chain


# -- the run is taken -------------------------------------------------------------
def _pushed(system, load):
    """Heap entries pushed while ``load(system)`` runs."""
    before = system.sim._sequence
    load(system)
    return system.sim._sequence - before


def test_quiet_loads_push_few_heap_entries():
    """A Table-I load and a two-region SG batch each run their buffers
    inside one entry; the chain pushes five entries per burst."""
    table1 = lambda system: system.reconfigure("RP1", _ASP, 200.0)  # noqa: E731
    batch = lambda system: system.reconfigure_batch(_BATCH, 200.0)  # noqa: E731
    quiet = _system(chain=False)
    assert _pushed(quiet, table1) < 200
    assert _pushed(quiet, batch) < 200
    chain = _system(chain=True)
    assert _pushed(chain, table1) > 5 * 517
    assert _pushed(chain, batch) > 2 * 5 * 517


def test_every_fleet_knee_buffer_takes_the_quiet_run(monkeypatch):
    """A finished load leaves nothing of its own on the heap, so no later
    buffer of the seed-1 knee campaign meets a stray entry in its window."""
    outcomes = []
    run_buffer = AxiDmaEngine._run_buffer

    def counted(engine):
        outcomes.append(run_buffer(engine))
        return outcomes[-1]

    monkeypatch.setattr(AxiDmaEngine, "_run_buffer", counted)
    run_fleet(FleetSpec(boards=4, seed=1, duration_ms=20.0, rate_per_ms=4.0))
    assert len(outcomes) == 61
    assert all(outcomes)


# -- the run's boundaries ------------------------------------------------------------
def test_bounded_run_inside_a_load_stops_with_the_chains_counts():
    """``run(until=)`` inside a 200 MHz load stops there on both paths:
    the buffer does not fit before the bound, so it runs on the chain."""

    def run(chain):
        system = _system(chain)
        sim = system.sim
        process = sim.process(system.reconfigure_process("RP1", _ASP, 200.0))
        sim.run(until=400e3)
        mid = _counts(system)
        result = sim.run_until(process)
        return mid, _observed(system, [result])

    (quiet_mid, quiet_end), (chain_mid, chain_end) = _both_paths(run)
    assert quiet_mid == chain_mid
    assert quiet_mid["now"] == 400e3
    assert quiet_mid["icap"]["words_consumed"] == 67_840
    assert quiet_end == chain_end


def test_foreign_entry_inside_a_load_reads_the_chains_counts():
    """An entry due 330 us into the run's window sees the datapath
    exactly as the chain leaves it there."""

    def run(chain):
        system = _system(chain)
        seen = []
        system.sim.call_later(330e3, lambda: seen.append(_counts(system)))
        result = system.reconfigure("RP1", _ASP, 200.0)
        return seen, _observed(system, [result])

    (quiet_seen, quiet_end), (chain_seen, chain_end) = _both_paths(run)
    assert quiet_seen == chain_seen
    [mid] = quiet_seen
    assert 0 < mid["icap"]["words_consumed"] < quiet_end["icap"]["words_consumed"]
    assert quiet_end == chain_end


def _tied_transfer(chain):
    """A transfer whose every drain ends in the instant the next burst
    leaves the port.

    Every delay is a whole number of ns: a 125 MHz clock (8 ns), a
    642 ns forward path, closed-page DDR misses (302 ns) at 4 bytes/ns
    (256 ns per KiB), refresh off, and a 1 byte/ns port (a 768 ns tail).
    The memory path then takes 80 + 642 + 558 + 768 = 2048 ns per burst,
    as long as the ICAP's drain of 256 words, so drain k and the
    streaming of burst k + 1 fall due together: the drain was queued
    first and runs first.
    """
    sim = Simulator()
    metrics = MetricsRegistry(now_fn=lambda: sim.now)
    dram = DramDevice(timing=DdrTiming(peak_bytes_per_ns=4.0))
    controller = BankDramController(
        sim, dram, metrics=metrics, page_policy="closed", refresh_mode="off"
    )
    interconnect = AxiInterconnect(
        sim, controller, forward_latency_ns=642.0, metrics=metrics
    )
    if chain:
        interconnect.fault_stall_ns = lambda: 0.0
    port = AxiHpPort(sim, interconnect, clock_mhz=125.0)
    clock = ClockDomain(sim, 125.0)
    stream = AxiStream(sim, fifo_words=1024, metrics=metrics)
    dma = AxiDmaEngine(sim, clock, port, stream, metrics=metrics)
    icap = IcapController(
        sim, clock, ConfigMemory(make_z7020_layout()), stream, metrics=metrics
    )
    stages = []
    carried, finish_burst = port.carried, icap.finish_burst

    def streamed(request):
        stages.append((sim.now, "streamed"))
        carried(request)

    def drained(burst):
        stages.append((sim.now, "drained"))
        return finish_burst(burst)

    port.carried, icap.finish_burst = streamed, drained
    bursts = 12
    dram.store(0x1000, b"\x20\x00\x00\x00" * 256 * bursts)  # NOOP words
    icap.begin_transfer()
    dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
    dma.reg_write(MM2S_SA, 0x1000)
    dma.reg_write(MM2S_LENGTH, 1024 * bursts)
    before = sim._sequence
    sim.run_until(dma.ioc_irq.wait_assert())
    return {
        "stages": stages,
        "metrics": metrics.to_dict(),
        "kernel": (sim.events_processed, sim.heap_high_water),
        "now": sim.now,
    }, sim._sequence - before


def test_same_instant_drain_and_burst_keep_the_heaps_order():
    (quiet, quiet_pushed), (chain, chain_pushed) = _both_paths(_tied_transfer)
    assert quiet == chain
    # The run pushed the completion interrupt's wake-up alone; the chain
    # pushed every stage but the first command gap's, and the wake-up.
    assert (quiet_pushed, chain_pushed) == (1, 5 * 12)
    stages = quiet["stages"]
    ties = [
        when
        for (when, stage), (after, then) in zip(stages, stages[1:])
        if when == after and (stage, then) == ("drained", "streamed")
    ]
    assert len(ties) == 11


def _tenant(system):
    AxiTrafficGenerator(
        system.sim, system.interconnect, master="tenant", rate_mb_s=100.0
    ).start()


def _monitor(system):
    InvariantMonitor().attach(system)


def _busy_waiter(system):
    system.icap.busy.wait_for(True)


def _engine_refresh(system):
    pass


@pytest.mark.parametrize(
    "setup, config",
    [
        (_tenant, {}),
        (_monitor, {}),
        (_busy_waiter, {}),
        (_engine_refresh, {"dram_refresh_mode": "engine"}),
    ],
    ids=["second-master", "invariant-monitor", "busy-waiter", "engine-refresh"],
)
def test_unquiet_buffers_stay_on_the_chain(setup, config):
    system = _system(chain=False, **config)
    setup(system)
    pushed = _pushed(system, lambda s: s.reconfigure("RP1", _ASP, 200.0))
    assert pushed > 5 * 517
