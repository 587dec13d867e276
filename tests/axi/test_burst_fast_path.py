"""Burst timing on the memory path, pinned to recorded values.

Every burst crosses the HP port, its master's crossbar lane and the DDR
multiplexer.  The values below were recorded from the process-based
memory path (a port transaction process behind the crossbar lane and
DDR server daemons), which drew every time from the same accounting
helpers.  They pin the contended same-instant order: which request the
multiplexer picks when masters meet, how long each one waited, and when
each burst completed.
"""

import hashlib

import pytest

from repro.axi import (
    AxiHpPort,
    AxiInterconnect,
    AxiSlaveError,
    AxiStream,
    StreamBurst,
)
from repro.bitstream import make_z7020_layout
from repro.core import PdrSystem, PdrSystemConfig
from repro.dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    MM2S_DMACR,
    MM2S_LENGTH,
    MM2S_SA,
    S2mmDmaEngine,
)
from repro.dram import BankDramController, BankTiming, DramDevice
from repro.fabric import ConfigMemory, FirFilterAsp
from repro.icap import IcapController
from repro.sim import ClockDomain, Simulator

#: Kernel statistics, left out of the pinned digests.
_KERNEL_PROBES = (
    "sim.events_processed",
    "sim.heap_high_water",
    "sim.processes_spawned",
)


def _observed(system, results):
    metrics = system.metrics.to_dict()
    for name in _KERNEL_PROBES:
        metrics.pop(name, None)
    counts = system.dram_controller.counts
    return {
        "results": results,
        "now": system.sim.now,
        "metrics": metrics,
        "ledgers": {
            master: _ledger(ledger)
            for master, ledger in system.dram_controller.masters.items()
        },
        "rows": (counts.row_hits, counts.row_misses, counts.row_conflicts),
        "port_bytes": system.hp0.bytes_transferred,
    }


def _ledger(ledger):
    return {
        "requests": ledger.requests,
        "bytes": ledger.bytes,
        "wait_ns": ledger.wait_ns,
    }


def _digest(observed):
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def _system(**config):
    system = PdrSystem(PdrSystemConfig(**config))
    system.set_die_temperature(40.0)
    return system


def _two_loads(system, freq_mhz=200.0):
    return [
        system.reconfigure("RP1", FirFilterAsp([1, 2, 3, 4]), freq_mhz),
        system.reconfigure("RP2", FirFilterAsp([5, 6, 7, 8]), freq_mhz),
    ]


def _arm_noop_fault_hooks(system):
    system.interconnect.fault_stall_ns = lambda: 0.0
    system.interconnect.fault_error = lambda kind, addr, size: None
    system.dram_controller.fault_latency_ns = lambda request: 0.0
    system.dram_controller.fault_read_tamper = lambda request, data: data


# -- whole loads ---------------------------------------------------------------
#: ``(sim.now, digest of _observed)`` after two loads, per frequency.
_SINGLE_LOADS = {
    100.0: (
        5698110.666666667,
        "9525e3a83c5253b5ba727eb480d8000687056936ddde6f94b35f6292c0e2ef32",
    ),
    200.0: (
        2927717.333333321,
        "3198b167da8e111318ac00f41ff9d7f95b80797a8d9b171661262717b8e99154",
    ),
    320.0: (41024862.5, "8c0a99dd2b8389dfef51170a649f1b2a34c263bc1d84794adf3e54e8e3a3ccb1"),
}


@pytest.mark.parametrize("freq_mhz", sorted(_SINGLE_LOADS))
def test_single_loads_match_reference(freq_mhz):
    system = _system()
    seen = _observed(system, _two_loads(system, freq_mhz))
    assert (seen["now"], _digest(seen)) == _SINGLE_LOADS[freq_mhz]


_SG_BATCH = (2877320.0, "f9c9d3bb26c2330f2da71e75526ae8da15b0903bc50462802677d7fbbacef782")


def test_sg_batch_matches_reference():
    system = _system()
    jobs = [
        ("RP1", FirFilterAsp([1, 2, 3, 4])),
        ("RP2", FirFilterAsp([9, 8, 7, 6])),
    ]
    seen = _observed(system, system.reconfigure_batch(jobs, 200.0))
    assert (seen["now"], _digest(seen)) == _SG_BATCH


_TELEMETRY_OFF = (2927717.333333321, "65af054d0998fe97626603c5e24813d447f67af5bcb1818365633020986cbf32")


def test_telemetry_off_matches_reference():
    system = _system(telemetry=False)
    seen = _observed(system, _two_loads(system))
    assert (seen["now"], _digest(seen)) == _TELEMETRY_OFF
    # The stall accounting behind ``device_us`` ran with no probes.
    assert system.stream.counts.backpressure_ns > 0.0


def test_noop_fault_hooks_move_nothing():
    """Armed hooks that return no fault run the same kernel entries."""
    runs = []
    for armed in (False, True):
        system = _system()
        if armed:
            _arm_noop_fault_hooks(system)
        seen = _observed(system, _two_loads(system))
        sim = system.sim
        runs.append(
            (seen, sim.events_processed, sim.processes_spawned, sim.heap_high_water)
        )
    assert runs[0] == runs[1]


def _transfer_entries(bursts):
    """Kernel entries for a DMA transfer of ``bursts`` 1 KiB bursts of
    NOOP words into the ICAP, with the memory path to itself."""
    sim = Simulator()
    dram = DramDevice()
    port = AxiHpPort(sim, AxiInterconnect(sim, BankDramController(sim, dram)))
    clock = ClockDomain(sim, 200.0)
    stream = AxiStream(sim, fifo_words=1024)
    dma = AxiDmaEngine(sim, clock, port, stream)
    icap = IcapController(sim, clock, ConfigMemory(make_z7020_layout()), stream)
    dram.store(0x1000, b"\x20\x00\x00\x00" * 256 * bursts)
    icap.begin_transfer()
    dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
    dma.reg_write(MM2S_SA, 0x1000)
    dma.reg_write(MM2S_LENGTH, 1024 * bursts)
    sim.run_until(dma.ioc_irq.wait_assert())
    return sim.events_processed


def test_uncontended_burst_costs_five_entries():
    # Command gap, crossbar forward, DDR service, port streaming tail and
    # ICAP drain: one kernel entry each.
    assert _transfer_entries(12) - _transfer_entries(8) == 5 * 4


# -- late arrivals -------------------------------------------------------------
def _rig(page_policy="open", trp_ns=0.0):
    sim = Simulator()
    controller = BankDramController(
        sim, DramDevice(), page_policy=page_policy, timing=BankTiming(trp_ns=trp_ns)
    )
    interconnect = AxiInterconnect(sim, controller)
    return sim, interconnect, controller


def _accounts(sim, interconnect, controller):
    return {
        "queue_wait_ns": controller.counts.queue_wait_ns,
        "ledgers": {m: _ledger(l) for m, l in controller.masters.items()},
        "axi_wait": {m: l.wait_ns for m, l in interconnect.masters.items()},
        "axi_bytes": {m: l.bytes for m, l in interconnect.masters.items()},
        "busy_ns": controller.busy_ns,
        "now": sim.now,
    }


def _late_arrival_run(arrivals):
    """hp0 registers with one read, then issues a second read at 2 us;
    ``arrivals`` are ``(delay after it, master, addr, via)`` reads issued
    while it is in flight."""
    sim, interconnect, controller = _rig()
    port = AxiHpPort(sim, interconnect, name="hp0")
    done = {}

    def read(name, event):
        value = yield event
        done[name] = (sim.now, value)

    def hp0():
        yield port.read(0x0, 1024)
        yield sim.timeout(2000.0 - sim.now)
        yield sim.process(read("hp0", port.read(0x10000, 1024)))

    def late(delay, master, addr, via):
        yield sim.timeout(2000.0 + delay)
        source = interconnect if via == "crossbar" else controller
        event = source.read(addr, 1024, master=master)
        yield sim.process(read(f"{master}@{delay}", event))

    sim.process(hp0())
    for arrival in arrivals:
        sim.process(late(*arrival))
    sim.run()
    seen = _accounts(sim, interconnect, controller)
    seen["done"] = {name: when for name, (when, _data) in done.items()}
    seen["port_bytes"] = port.bytes_transferred
    return seen


_LATE_ARRIVALS = {
    "second-master": {
        "queue_wait_ns": 492.1500938086301,
        "ledgers": {
            "hp0": {"requests": 2, "bytes": 2048, "wait_ns": 0.0},
            "cpu": {"requests": 2, "bytes": 2048, "wait_ns": 492.1500938086301},
        },
        "axi_wait": {"hp0": 0.0, "cpu": 944.3001876172602},
        "axi_bytes": {"hp0": 2048, "cpu": 2048},
        "busy_ns": 2168.6003752345205,
        "now": 3946.4502814258904,
        "done": {
            "cpu@50.0": 3244.3001876172602,
            "hp0": 3315.333333333333,
            "cpu@300.0": 3946.4502814258904,
        },
        "port_bytes": 2048,
    },
    "same-master": {
        "queue_wait_ns": 0.0,
        "ledgers": {"hp0": {"requests": 3, "bytes": 3072, "wait_ns": 0.0}},
        "axi_wait": {"hp0": 602.1500938086301},
        "axi_bytes": {"hp0": 3072},
        "busy_ns": 1626.4502814258906,
        "now": 3404.3001876172602,
        "done": {"hp0": 3315.333333333333, "hp0@100.0": 3404.3001876172602},
        "port_bytes": 2048,
    },
    "direct-to-controller": {
        "queue_wait_ns": 422.1500938086301,
        "ledgers": {
            "hp0": {"requests": 2, "bytes": 2048, "wait_ns": 422.1500938086301},
            "dma2": {"requests": 1, "bytes": 1024, "wait_ns": 0.0},
        },
        "axi_wait": {"hp0": 0.0},
        "axi_bytes": {"hp0": 2048},
        "busy_ns": 1626.4502814258906,
        "now": 3737.483427141963,
        "done": {"dma2@40.0": 2582.15009380863, "hp0": 3737.483427141963},
        "port_bytes": 2048,
    },
}


#: ``(delay after hp0's second read, master, addr, via)`` per case.
_ARRIVALS = {
    # A second master's first read inside hp0's forward window (the
    # burst is forwarded 2000..2160 ns), another inside its DDR service
    # (2160..~2600 ns): both queue behind hp0's burst.
    "second-master": [
        (50.0, "cpu", 0x40000, "crossbar"),
        (300.0, "cpu", 0x50000, "crossbar"),
    ],
    # hp0's own follow-up read queues behind it in the lane.
    "same-master": [(100.0, "hp0", 0x20000, "crossbar")],
    # A master reaching the multiplexer directly inside the forward
    # window takes the bus first: hp0's burst queues behind it.
    "direct-to-controller": [(40.0, "dma2", 0x60000, "controller")],
}


@pytest.mark.parametrize("case", list(_ARRIVALS))
def test_late_arrivals_queue_exactly_as_behind_the_daemons(case):
    seen = _late_arrival_run(_ARRIVALS[case])
    assert seen == _LATE_ARRIVALS[case]
    # The late arrivals really waited, at the multiplexer or in the lane.
    assert seen["queue_wait_ns"] + sum(seen["axi_wait"].values()) > 0.0


# -- contended cases -----------------------------------------------------------
_SAME_INSTANT = {
    "queue_wait_ns": 2172.2251407129465,
    "ledgers": {
        "a": {"requests": 2, "bytes": 512, "wait_ns": 0.0},
        "b": {"requests": 2, "bytes": 512, "wait_ns": 724.0750469043155},
        "c": {"requests": 2, "bytes": 512, "wait_ns": 1448.150093808631},
    },
    "axi_wait": {"a": 0.0, "b": 0.0, "c": 0.0},
    "axi_bytes": {"a": 512, "b": 512, "c": 512},
    "busy_ns": 2172.2251407129465,
    "now": 6246.112570356474,
    "order": [
        ("a", 522.0375234521575),
        ("b", 884.0750469043151),
        ("c", 1246.1125703564726),
        ("a", 5522.037523452158),
        ("b", 5884.075046904316),
        ("c", 6246.112570356474),
    ],
}


def test_masters_meeting_in_one_instant_take_round_robin_turns():
    """Three masters reach the multiplexer in one instant, in the reverse
    of the order they first registered in: the round-robin pointer, not
    arrival order, decides who goes first."""
    sim, interconnect, controller = _rig()
    order = []

    def master(name, start, addr):
        yield sim.timeout(start)
        yield interconnect.read(addr, 256, master=name)
        order.append((name, sim.now))

    for start, names in ((0.0, "abc"), (5000.0, "cba")):
        for name in names:
            addr = 0x10000 * (ord(name) - ord("a") + 1) + int(start)
            sim.process(master(name, start, addr))
    sim.run()
    seen = _accounts(sim, interconnect, controller)
    seen["order"] = order
    assert seen == _SAME_INSTANT
    assert [name for name, _ in order] == list("abcabc")


_SLVERR_QUEUED = {
    "queue_wait_ns": 207.00938086303938,
    "ledgers": {
        "cpu": {"requests": 1, "bytes": 64, "wait_ns": 0.0},
        "hp0": {"requests": 2, "bytes": 2048, "wait_ns": 207.00938086303938},
    },
    "axi_wait": {"hp0": 1229.1594746716696, "cpu": 0.0},
    "axi_bytes": {"hp0": 2048, "cpu": 64},
    "busy_ns": 1301.3095684803,
    "now": 1771.3095684803,
    "outcomes": {
        4096: ("SLVERR @0x1000", 260.0),
        "cpu": ("ok", 627.0093808630394),
        5120: ("ok", 1169.1594746716696),
        6144: ("ok", 1771.3095684803),
    },
    "transactions": {"hp0": 3, "cpu": 1},
}


def test_slverr_fails_one_burst_and_serves_the_two_behind_it():
    sim, interconnect, controller = _rig()
    interconnect.fault_error = lambda kind, addr, size: (
        AxiSlaveError(f"SLVERR @{addr:#x}") if addr == 0x1000 else None
    )
    outcomes = {}

    def issue(name, event):
        try:
            yield event
            outcomes[name] = ("ok", sim.now)
        except AxiSlaveError as exc:
            outcomes[name] = (str(exc), sim.now)

    def burst_of_three():
        yield sim.timeout(100.0)
        for addr in (0x1000, 0x1400, 0x1800):
            sim.process(issue(addr, interconnect.read(addr, 1024, master="hp0")))

    def other():
        yield sim.timeout(150.0)
        yield sim.process(issue("cpu", interconnect.read(0x9000, 64, master="cpu")))

    sim.process(burst_of_three())
    sim.process(other())
    sim.run()
    seen = _accounts(sim, interconnect, controller)
    seen["outcomes"] = outcomes
    seen["transactions"] = {
        m: l.transactions for m, l in interconnect.masters.items()
    }
    assert seen == _SLVERR_QUEUED
    assert outcomes[0x1000][0] == "SLVERR @0x1000"


def _s2mm_beside_mm2s(page_policy):
    """An MM2S transfer on hp0 while an S2MM engine on hp1 writes to
    another row of the same bank, with a distinct precharge time."""
    sim, interconnect, controller = _rig(page_policy, trp_ns=100.0)
    device = controller.device
    clock = ClockDomain(sim, 200.0)
    source = AxiStream(sim, fifo_words=512, name="mm2s")
    sink = AxiStream(sim, fifo_words=512, name="s2mm")
    mm2s = AxiDmaEngine(
        sim, clock, AxiHpPort(sim, interconnect, name="hp0"), source
    )
    s2mm = S2mmDmaEngine(
        sim, clock, AxiHpPort(sim, interconnect, name="hp1"), sink
    )
    device.store(0x0, bytes(range(256)) * 32)
    popped = []

    def consumer():
        while True:
            burst = yield source.pop()
            popped.append(sim.now)
            yield clock.wait_cycles(burst.word_count)
            source.release(burst.word_count)
            if burst.last:
                return

    def producer():
        for index in range(8):
            yield sink.reserve(256)
            yield clock.wait_cycles(64)
            sink.push(StreamBurst(words=[index] * 256, last=index == 7))

    s2mm.arm(0x10000, 8192)
    mm2s.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
    mm2s.reg_write(MM2S_SA, 0x0)
    sim.process(consumer())
    sim.process(producer())
    mm2s_done = mm2s.ioc_irq.wait_assert()
    s2mm_done = s2mm.ioc_irq.wait_assert()

    def both_done():
        yield mm2s_done
        yield s2mm_done

    mm2s.reg_write(MM2S_LENGTH, 8192)
    sim.run_until(sim.process(both_done()))
    seen = _accounts(sim, interconnect, controller)
    seen["popped"] = popped
    counts = controller.counts
    seen["rows"] = (counts.row_hits, counts.row_misses, counts.row_conflicts)
    seen["landed"] = hashlib.sha256(device.load(0x10000, 8192)).hexdigest()
    return seen


_S2MM_BESIDE_MM2S = {
    "open": {
        "queue_wait_ns": 370.0000000000002,
        "ledgers": {
            "hp0": {"requests": 8, "bytes": 8192, "wait_ns": 370.0000000000002},
            "hp1": {"requests": 8, "bytes": 8192, "wait_ns": 0.0},
        },
        "axi_wait": {"hp0": 0.0, "hp1": 0.0},
        "axi_bytes": {"hp0": 8192, "hp1": 8192},
        "busy_ns": 10334.401500938084,
        "now": 13272.666666666668,
        "popped": [
            1365.3333333333335,
            3040.6666666666665,
            4506.0,
            5971.333333333333,
            7436.666666666666,
            8902.0,
            10527.333333333334,
            11992.666666666668,
        ],
        "rows": (0, 1, 15),
        "landed": "04a4b19ad3de4369fcfad917bb133241184dfec31844af97d849bee29a7a163f",
    },
    "closed": {
        "queue_wait_ns": 270.0000000000002,
        "ledgers": {
            "hp0": {"requests": 8, "bytes": 8192, "wait_ns": 270.0000000000002},
            "hp1": {"requests": 8, "bytes": 8192, "wait_ns": 0.0},
        },
        "axi_wait": {"hp0": 0.0, "hp1": 0.0},
        "axi_bytes": {"hp0": 8192, "hp1": 8192},
        "busy_ns": 8834.401500938084,
        "now": 12472.666666666668,
        "popped": [
            1365.3333333333335,
            2840.6666666666665,
            4206.0,
            5571.333333333333,
            6936.666666666666,
            8302.0,
            9827.333333333334,
            11192.666666666668,
        ],
        "rows": (0, 16, 0),
        "landed": "04a4b19ad3de4369fcfad917bb133241184dfec31844af97d849bee29a7a163f",
    },
}


@pytest.mark.parametrize("page_policy", ["open", "closed"])
def test_s2mm_writes_interleave_with_dma_reads(page_policy):
    seen = _s2mm_beside_mm2s(page_policy)
    assert seen == _S2MM_BESIDE_MM2S[page_policy]
    assert seen["ledgers"]["hp0"]["bytes"] == seen["ledgers"]["hp1"]["bytes"] == 8192
