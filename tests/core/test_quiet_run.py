"""A quiet DMA buffer runs inside its first kernel entry, as the chain would.

When the HP port's master has the memory path to itself, the DMA runs
the buffer's stages inside the entry that issues its first burst, each
while it is the kernel's next entry, and hands the rest to the chain
when one is not (``AxiDmaEngine._run_buffer``).  The callback chain
stays the reference: a ``_run_buffer`` that declines forces every burst
onto it, and each case below compares the two paths value for value —
results, exported metrics with the kernel statistics, DDR and crossbar
ledgers, row outcomes, port bytes, ICAP and stream counts, the
configuration memory and the simulated clock.
"""

import hashlib

import pytest

from repro.axi import (
    AxiHpPort,
    AxiInterconnect,
    AxiSlaveError,
    AxiStream,
    AxiTrafficGenerator,
)
from repro.bitstream import make_z7020_layout
from repro.chaos import ChaosInjector
from repro.chaos.faults import Fault, FaultPlan
from repro.core import PdrSystem, PdrSystemConfig
from repro.dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RESET,
    DMACR_RS,
    MM2S_DMACR,
    MM2S_LENGTH,
    MM2S_SA,
)
from repro.dram import BankDramController, DdrTiming, DramDevice
from repro.experiments.calibration import PAPER_TABLE1
from repro.fabric import (
    Aes128Asp,
    ConfigMemory,
    FirFilterAsp,
    VectorScaleAsp,
)
from repro.fleet import FleetSpec, run_fleet
from repro.icap import IcapController
from repro.obs import MetricsRegistry
from repro.sim import ClockDomain, Simulator
from repro.verify import InvariantMonitor

from ..axi.test_burst_fast_path import _arm_noop_fault_hooks

_TEMPS_C = (40.0, 60.0, 80.0, 100.0)
_ASP = FirFilterAsp([1, 2, 3, 4])
_BATCH = [("RP1", FirFilterAsp([1, 2, 3, 4])), ("RP2", FirFilterAsp([9, 8, 7, 6]))]


def _force_the_chain(dma):
    """Decline the quiet run, so every burst takes the chain."""
    dma._run_buffer = lambda: False


def _system(chain, temp_c=40.0, **config):
    system = PdrSystem(PdrSystemConfig(**config))
    system.set_die_temperature(temp_c)
    if chain:
        _force_the_chain(system.dma)
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


def test_seventeen_loads_on_one_system_match_the_chain():
    """17 loads at 200 MHz on one system observe 17 x 517 = 8,789 values
    in each per-burst histogram, past two doublings of the 4,096-sample
    reservoir, and integrate every gauge across the loads."""

    def run(chain):
        system = _system(chain)
        results = [system.reconfigure("RP1", _ASP, 200.0) for _ in range(17)]
        return _observed(system, results)

    quiet, chain = _both_paths(run)
    assert quiet["metrics"]["ddrc.service_us"]["count"] == 17 * 517
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
    """Entries the kernel queues while ``load(system)`` runs, not counting
    the held stages a handoff queues."""
    return _counting_pushes(system.sim, lambda: load(system))


def _counting_pushes(sim, run):
    pushes = [0]
    enqueue = sim._enqueue

    def counted(delay, entry):
        pushes[0] += 1
        enqueue(delay, entry)

    sim._enqueue = counted
    try:
        run()
    finally:
        del sim._enqueue
    return pushes[0]


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
    """A finished load leaves nothing of its own on the heap, so every
    buffer of the seed-1 knee campaign runs whole in place: none meets a
    stray entry in its window and hands off to the chain."""
    outcomes, handed_off = [], []
    run_buffer, queue_held = AxiDmaEngine._run_buffer, Simulator.queue_held

    def counted(engine):
        outcomes.append(run_buffer(engine))
        return outcomes[-1]

    def recorded(sim, *entry):
        handed_off.append(entry)
        queue_held(sim, *entry)

    monkeypatch.setattr(AxiDmaEngine, "_run_buffer", counted)
    monkeypatch.setattr(Simulator, "queue_held", recorded)
    run_fleet(FleetSpec(boards=4, seed=1, duration_ms=20.0, rate_per_ms=4.0))
    assert len(outcomes) == 61
    assert all(outcomes)
    assert handed_off == []


# -- the run's boundaries ------------------------------------------------------------
def test_bounded_run_inside_a_load_stops_with_the_chains_counts():
    """``run(until=)`` inside a 200 MHz load stops there on both paths:
    the run hands the stages past the bound to the chain."""

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
    """An entry due 330 us into the load sees the datapath exactly as the
    chain leaves it there: the run hands off before it."""

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


class _StageRecorder:
    """Watches a stream and its ICAP as an invariant monitor does, noting
    when a burst reaches the stream ("streamed") and when one leaves the
    ICAP ("drained").  The chain calls it from each operation and the
    run after each stage, so both read the order the stages ran in."""

    def __init__(self, sim, stages):
        self.sim = sim
        self.stages = stages
        self.pushed = 0

    def on_stream_op(self, stream):
        if stream.stat_pushed_bursts > self.pushed:
            self.pushed = stream.stat_pushed_bursts
            self.stages.append((self.sim.now, "streamed"))

    def on_icap_words(self, icap, words):
        self.stages.append((self.sim.now, "drained"))


def _tied_transfer(chain, fifo_words=1024, foreign=None, watch=False):
    """A transfer whose every drain ends in the instant the next burst
    leaves the port.

    Every delay is a whole number of ns: a 125 MHz clock (8 ns), a
    642 ns forward path, closed-page DDR misses (302 ns) at 4 bytes/ns
    (256 ns per KiB), refresh off, and a 1 byte/ns port (a 768 ns tail).
    The memory path then takes 80 + 642 + 558 + 768 = 2048 ns per burst,
    as long as the ICAP's drain of 256 words, so drain k and the
    streaming of burst k + 1 fall due together: the drain was queued
    first and runs first.  Burst k issues at 80 + 2048 k ns, is in DDR
    service from 642 to 1200 ns after that and leaves the port 1968 ns
    after it.

    ``foreign`` is ``(at_ns, act)``: ``act(dma, controller, stages)``
    runs as an entry of its own at ``at_ns``, and the simulation then
    runs until the heap drains instead of to the completion interrupt.
    With ``watch``, a :class:`_StageRecorder` watches the stream and the
    ICAP, so the run settles the stream after every stage that touched
    it and checks each drain where it happens.
    """
    sim = Simulator()
    metrics = MetricsRegistry(clock=sim)
    dram = DramDevice(timing=DdrTiming(peak_bytes_per_ns=4.0))
    controller = BankDramController(
        sim, dram, metrics=metrics, page_policy="closed", refresh_mode="off"
    )
    interconnect = AxiInterconnect(
        sim, controller, forward_latency_ns=642.0, metrics=metrics
    )
    port = AxiHpPort(sim, interconnect, clock_mhz=125.0)
    clock = ClockDomain(sim, 125.0)
    stream = AxiStream(sim, fifo_words=fifo_words, metrics=metrics)
    dma = AxiDmaEngine(sim, clock, port, stream, metrics=metrics)
    if chain:
        _force_the_chain(dma)
    icap = IcapController(
        sim, clock, ConfigMemory(make_z7020_layout()), stream, metrics=metrics
    )
    stages = []
    if watch:
        stream.monitor = icap.monitor = _StageRecorder(sim, stages)
    if foreign is not None:
        at_ns, act = foreign
        sim.call_later(at_ns, act, dma, controller, stages)
    bursts = 12
    dram.store(0x1000, b"\x20\x00\x00\x00" * 256 * bursts)  # NOOP words
    icap.begin_transfer()
    dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
    dma.reg_write(MM2S_SA, 0x1000)
    dma.reg_write(MM2S_LENGTH, 1024 * bursts)
    if foreign is None:
        wait = dma.ioc_irq.wait_assert()
        pushed = _counting_pushes(sim, lambda: sim.run_until(wait))
    else:
        pushed = _counting_pushes(sim, sim.run)
    return {
        "stages": stages,
        "metrics": metrics.to_dict(),
        "kernel": (sim.events_processed, sim.heap_high_water),
        "now": sim.now,
        "stream": (
            stream.free_words,
            stream.stat_granted_words,
            stream.stat_released_words,
            stream.queued_bursts,
        ),
    }, pushed


def _small_transfers(
    chain, length, fifo_words, burst, cmd_cycles, freq_mhz, policy, refresh
):
    """Two back-to-back transfers of ``length`` bytes on a hand-built
    datapath of the given geometry, unwatched and then watched."""
    seen = []
    for watch in (False, True):
        sim = Simulator()
        metrics = MetricsRegistry(clock=sim)
        dram = DramDevice()
        controller = BankDramController(
            sim, dram, metrics=metrics, page_policy=policy, refresh_mode=refresh
        )
        interconnect = AxiInterconnect(sim, controller, metrics=metrics)
        port = AxiHpPort(sim, interconnect)
        clock = ClockDomain(sim, freq_mhz)
        stream = AxiStream(sim, fifo_words=fifo_words, metrics=metrics)
        dma = AxiDmaEngine(
            sim,
            clock,
            port,
            stream,
            max_burst_bytes=burst,
            cmd_overhead_cycles=cmd_cycles,
            metrics=metrics,
        )
        if chain:
            _force_the_chain(dma)
        icap = IcapController(
            sim, clock, ConfigMemory(make_z7020_layout()), stream, metrics=metrics
        )
        if watch:
            monitor = InvariantMonitor()
            stream.monitor = icap.monitor = controller.monitor = monitor
        dram.store(0x3000, b"\x20\x00\x00\x00" * (length // 4))  # NOOP words
        icap.begin_transfer()
        dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
        dma.reg_write(MM2S_SA, 0x3000)
        for _ in range(2):
            dma.reg_write(MM2S_LENGTH, length)
            sim.run_until(dma.ioc_irq.wait_assert())
            dma.ioc_irq.deassert()
        seen.append(
            (
                metrics.to_dict(),
                (sim.events_processed, sim.heap_high_water, sim.now),
                controller.busy_ns,
                port.bytes_transferred,
                monitor.counts.checks if watch else None,
            )
        )
    return seen


@pytest.mark.parametrize(
    "length, fifo_words, burst, cmd_cycles, freq_mhz, policy, refresh",
    [
        (4, 256, 1024, 10, 200.0, "open", "lazy"),
        (1028, 300, 1024, 0, 100.0, "closed", "engine"),
        (9000, 300, 64, 10, 333.0, "open", "off"),
        (9000, 1024, 64, 0, 200.0, "closed", "lazy"),
        (3 * 1024 + 8, 256, 1024, 10, 333.0, "open", "engine"),
    ],
)
def test_small_geometries_match_the_chain(
    length, fifo_words, burst, cmd_cycles, freq_mhz, policy, refresh
):
    """One-word and short-tailed buffers, 64-byte bursts, FIFOs that are
    not a whole number of bursts, no command gap, the closed page and
    every refresh mode: the run matches the chain, watched or not."""
    geometry = (length, fifo_words, burst, cmd_cycles, freq_mhz, policy, refresh)
    quiet, chain = _both_paths(lambda chain: _small_transfers(chain, *geometry))
    assert quiet == chain


def test_same_instant_drain_and_burst_keep_the_heaps_order():
    for watch in (False, True):
        (quiet, quiet_pushed), (chain, chain_pushed) = _both_paths(
            lambda chain: _tied_transfer(chain, watch=watch)
        )
        assert quiet == chain, f"watch={watch}"
        # The run pushed the completion interrupt's wake-up alone; the
        # chain pushed every stage but the first command gap's, and the
        # wake-up.
        assert (quiet_pushed, chain_pushed) == (1, 5 * 12)
    # The watched transfer's stage order, the last one compared.
    stages = quiet["stages"]
    ties = [
        when
        for (when, stage), (after, then) in zip(stages, stages[1:])
        if when == after and (stage, then) == ("drained", "streamed")
    ]
    assert len(ties) == 11


def _cpu_read(dma, controller, stages):
    done = controller.read(0x90000, 64, master="cpu")
    done.callbacks.append(lambda _event: stages.append((dma.sim.now, "cpu")))


def _soft_reset(dma, controller, stages):
    dma.reg_write(MM2S_DMACR, DMACR_RESET)


@pytest.mark.parametrize(
    "fifo_words, foreign",
    [
        # Burst 3 is in DDR service: the bus stays held for it.
        (1024, (7000.0, _cpu_read)),
        # A one-burst FIFO: the DMA waits for room, its grant queued.
        (256, (3000.0, _soft_reset)),
        # The ICAP waits for the next burst, which is in DDR service.
        (256, (5000.0, _soft_reset)),
    ],
    ids=["second-master-in-service", "reset-awaiting-room", "reset-in-service"],
)
def test_handoff_leaves_the_chains_state(fifo_words, foreign):
    """A foreign entry inside the buffer meets the lane, the bus, the
    stream's taker and the FIFO grant as the chain holds them, whether a
    monitor watches the buffer or not."""
    for watch in (False, True):
        (quiet, quiet_pushed), (chain, chain_pushed) = _both_paths(
            lambda chain: _tied_transfer(chain, fifo_words, foreign, watch)
        )
        assert quiet == chain, f"watch={watch}"
        assert quiet_pushed < chain_pushed


def _tenant(system):
    AxiTrafficGenerator(
        system.sim, system.interconnect, master="tenant", rate_mb_s=100.0
    ).start()


@pytest.mark.parametrize("setup", [_tenant], ids=["second-master"])
def test_unquiet_buffers_stay_on_the_chain(setup):
    system = _system(chain=False)
    setup(system)
    pushed = _pushed(system, lambda s: s.reconfigure("RP1", _ASP, 200.0))
    assert pushed > 5 * 517


# -- hooks, faults and watchers: the run against the chain ---------------------
def _idle_hooks(system):
    _arm_noop_fault_hooks(system)
    system.icap.fault_lockup_cycles = lambda: 0


def _nth_call(n, fault, idle):
    """A hook that returns ``fault`` on its ``n``-th call, else ``idle``."""
    calls = [0]

    def hook(*_args):
        calls[0] += 1
        return fault if calls[0] == n else idle

    return hook


def _slverr(system):
    system.interconnect.fault_error = _nth_call(
        200, AxiSlaveError("SLVERR on the 200th burst"), None
    )


def _first_slverr(system):
    system.interconnect.fault_error = _nth_call(
        1, AxiSlaveError("SLVERR on the first burst"), None
    )


def _lockup(system):
    system.icap.fault_lockup_cycles = _nth_call(100, 20_000, 0)


def _chaos_inside_the_buffer(system):
    ChaosInjector(
        system,
        FaultPlan(
            fault_seed=0,
            horizon_us=700.0,
            faults=(
                Fault(
                    "dram_latency", 300.0, (("extra_ns", 900.0), ("window_us", 120.0))
                ),
                Fault("axi_stall", 450.0, (("stall_ns", 2000.0), ("window_us", 80.0))),
            ),
        ),
    ).arm()


def _busy_waiter(system):
    system.icap.busy.wait_for(True)


def _monitor(system):
    InvariantMonitor().attach(system)


def _nothing(system):
    pass


# Stages the run takes in place, at least: five per burst it carries
# whole (every burst's but the first one's issue, which is the run's own
# entry), or burst 1's forward path, service and streaming tail before
# its first word reaches the ICAP and wakes the waiter.
_WHOLE_BUFFER = 5 * 517 - 1


@pytest.mark.parametrize(
    "setup, config, in_place",
    [
        (_idle_hooks, {}, _WHOLE_BUFFER),
        (_slverr, {}, 5 * 199 - 1),
        # The DDR controller never sees the port: no ledger is made.
        (_first_slverr, {}, 1),
        (_lockup, {}, 5 * 99 - 1),
        # 190 bursts leave the port before the delivery at 300 us.
        (_chaos_inside_the_buffer, {}, 5 * 190 - 1),
        (_nothing, {"dram_refresh_mode": "engine"}, _WHOLE_BUFFER),
        (_busy_waiter, {}, 3),
        (_monitor, {}, _WHOLE_BUFFER),
    ],
    ids=[
        "idle-hooks",
        "slverr",
        "first-slverr",
        "icap-lockup",
        "chaos-delivery",
        "engine-refresh",
        "busy-waiter",
        "invariant-monitor",
    ],
)
def test_faults_and_watchers_match_the_chain(setup, config, in_place):
    """Each load starts on the run and matches the chain, whether the run
    finishes the buffer or hands it off at an SLVERR, a lock-up, a
    delivery's entry or a waiter's wake-up.  An invariant monitor leaves
    the buffer whole on the run, and its check count, exported with the
    metrics, matches the chain's.  Every stage the run takes in place is
    a heap entry the chain queues and the run does not."""
    seen, pushed = [], []
    for chain in (False, True):
        system = _system(chain, **config)
        setup(system)
        results = []
        pushed.append(
            _pushed(
                system,
                lambda s: results.append(s.reconfigure("RP1", _ASP, 200.0)),
            )
        )
        seen.append(_observed(system, results))
    quiet, chain = seen
    assert quiet == chain
    assert pushed[1] - pushed[0] >= in_place
