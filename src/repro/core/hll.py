"""The HLL acceleration framework (paper Fig. 1).

Four reconfigurable partitions, each with its own DMA/HP port for data
and its own programmable clock (CLK 1–5 via the Clock Manager), all
reconfigured through the single shared ICAP.  The framework schedules ASP
requests onto partitions: a request whose ASP is already resident runs
immediately; otherwise the least-recently-used partition is reconfigured
first — paying the PDR latency the paper works to minimise.

This is where the headline result becomes an application-level number:
with the ICAP over-clocked to 200 MHz, an ASP swap costs ~0.68 ms instead
of ~1.33 ms, which directly shrinks the makespan of ASP-miss-heavy
workloads (see ``examples/asp_switching.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..axi import AxiHpPort
from ..clocking import ClockManager
from ..fabric import Asp
from ..sim import Channel

from .pdr_system import PdrSystem
from .results import ReconfigResult
from .rp_channel import RpDataChannel
from .rp_regs import RpControlInterface

__all__ = ["AspRequest", "JobResult", "HllFramework"]


@dataclass(frozen=True)
class AspRequest:
    """One compute job: which ASP, its input words, desired RP clock."""

    asp: Asp
    input_words: Sequence[int]
    rp_clock_mhz: float = 100.0
    label: str = ""

    def asp_key(self) -> tuple:
        return (self.asp.kind, tuple(self.asp.params()))


@dataclass
class JobResult:
    """Timing breakdown of one executed job."""

    label: str
    region: str
    hit: bool
    output_words: List[int]
    reconfig: Optional[ReconfigResult]
    reconfig_us: float
    data_in_us: float
    compute_us: float
    data_out_us: float

    @property
    def total_us(self) -> float:
        return self.reconfig_us + self.data_in_us + self.compute_us + self.data_out_us


class HllFramework:
    """ASP scheduler over a :class:`PdrSystem`'s four partitions."""

    def __init__(self, icap_freq_mhz: float = 200.0):
        self.system = PdrSystem()
        self.icap_freq_mhz = icap_freq_mhz
        self.clock_manager = ClockManager(self.system.sim, outputs=5)
        self.region_names: List[str] = sorted(self.system.regions)
        #: Per-partition data plumbing (Fig. 1: one HP port + DMA pair per
        #: RP, all sharing the PS interconnect and DDR controller) and the
        #: GP-port AXI-Lite control window with its data-ready interrupt.
        self.channels: Dict[str, RpDataChannel] = {}
        self.controls: Dict[str, RpControlInterface] = {}
        from ..sim import ClockDomain

        gp_clock = ClockDomain(self.system.sim, 100.0, name="gp_bus")
        for index, name in enumerate(self.region_names):
            rp_clock = self.clock_manager.assign(name, index)
            hp_port = AxiHpPort(
                self.system.sim, self.system.interconnect, name=f"hp{index}"
            )
            control = RpControlInterface(
                self.system.sim, gp_clock, self.system.regions[name]
            )
            self.controls[name] = control
            self.system.gic.connect(f"{name}_ready", control.data_ready_irq)
            self.channels[name] = RpDataChannel(
                self.system.sim,
                hp_port,
                rp_clock,
                self.system.regions[name],
                control=control,
                metrics=self.system.metrics,
            )
        self._job_buffer_cursor = 0x1800_0000
        #: region -> key of the ASP currently resident (None = blank).
        self._resident: Dict[str, Optional[tuple]] = {
            name: None for name in self.region_names
        }
        self._lru: List[str] = list(self.region_names)
        self._icap_lock = Channel(self.system.sim, capacity=1, name="icap_lock")
        self._icap_lock.try_put(object())  # one token: the single ICAP
        self.jobs_run = 0
        self.hits = 0
        self.misses = 0
        self.total_reconfig_us = 0.0

    # -- residency -----------------------------------------------------------
    def resident_asps(self) -> Dict[str, Optional[tuple]]:
        """Snapshot of which ASP key each partition currently holds."""
        return dict(self._resident)

    def find_region_with(self, request: AspRequest) -> Optional[str]:
        """The region currently holding the request's ASP, if any."""
        key = request.asp_key()
        for name, resident in self._resident.items():
            if resident == key:
                return name
        return None

    def _touch(self, region: str) -> None:
        self._lru.remove(region)
        self._lru.append(region)

    def _victim(self) -> str:
        # Prefer a blank region; otherwise evict the least recently used.
        for name in self._lru:
            if self._resident[name] is None:
                return name
        return self._lru[0]

    # -- execution -----------------------------------------------------------
    def run_job(self, request: AspRequest) -> JobResult:
        """Execute one ASP request (blocking in simulation time)."""
        process = self.system.sim.process(
            self._job_sequence(request), name=f"hll.job:{request.label}"
        )
        result: JobResult = self.system.sim.run_until(process)
        self.jobs_run += 1
        if result.hit:
            self.hits += 1
        else:
            self.misses += 1
        self.total_reconfig_us += result.reconfig_us
        return result

    def run_jobs(self, requests: Sequence[AspRequest]) -> List[JobResult]:
        """Execute requests in order, returning their results."""
        return [self.run_job(request) for request in requests]

    # -- internals ----------------------------------------------------------
    def _job_sequence(self, request: AspRequest):
        sim = self.system.sim
        region = self.find_region_with(request)
        hit = region is not None
        reconfig_result: Optional[ReconfigResult] = None
        reconfig_us = 0.0

        if region is None:
            region = self._victim()
            token = yield self._icap_lock.get()  # serialise on the one ICAP
            started = sim.now
            reconfig_result = yield sim.process(
                self.system.reconfigure_process(
                    region, request.asp, self.icap_freq_mhz
                ),
                name=f"hll.reconfig:{region}",
            )
            yield self._icap_lock.put(token)
            reconfig_us = (sim.now - started) / 1e3
            if not reconfig_result.succeeded:
                raise RuntimeError(
                    f"reconfiguration of {region} failed at "
                    f"{self.icap_freq_mhz} MHz: {reconfig_result.summary()}"
                )
            self._resident[region] = request.asp_key()
        self._touch(region)

        # Program the RP's own clock if it differs from the request.
        rp_clock = self.clock_manager.domain_of(region)
        if abs(rp_clock.freq_mhz - request.rp_clock_mhz) > 1e-9:
            index = self.region_names.index(region)
            yield self.clock_manager.program(index, request.rp_clock_mhz)

        # Run the job through the partition's real data channel:
        # DRAM -> MM2S -> ASP -> S2MM -> DRAM, timed by the DES.
        in_addr, out_addr = self._allocate_buffers(request)
        output, (data_in_us, compute_us, data_out_us) = yield sim.process(
            self.channels[region].run_job(
                list(request.input_words), in_addr, out_addr
            ),
            name=f"hll.data:{region}",
        )

        return JobResult(
            label=request.label,
            region=region,
            hit=hit,
            output_words=output,
            reconfig=reconfig_result,
            reconfig_us=reconfig_us,
            data_in_us=data_in_us,
            compute_us=compute_us,
            data_out_us=data_out_us,
        )

    def _allocate_buffers(self, request: AspRequest) -> tuple:
        """Bump-allocate DRAM job buffers (in, out) above the bitstreams."""
        in_size = len(request.input_words) * 4
        out_size = max(in_size * 4, 4096)  # generous result head-room
        in_addr = self._job_buffer_cursor
        out_addr = (in_addr + in_size + 0xFFF) & ~0xFFF
        self._job_buffer_cursor = (out_addr + out_size + 0xFFF) & ~0xFFF
        return in_addr, out_addr

    # -- reporting -----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.hits / self.jobs_run if self.jobs_run else 0.0
