"""The assembled §VI proposed partial-reconfiguration environment (Fig. 7).

DRAM → (PS Scheduler) → SRAM ⇄ (Memory Controller)
                         │
             (PR Controller + Bitstream Decompressor)
                         │
                 enhanced ICAP @ 550 MHz → Configuration Memory

Compared to the Fig. 2 system, the DRAM/interconnect/DMA bottleneck moves
off the critical path: the bitstream is staged into the SRAM *before*
activation (overlapping useful work), and the activation itself streams
at the SRAM's 1 237.5 MB/s — the paper's theoretical estimate — or even
faster when the image is compressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..axi import AxiHpPort, AxiInterconnect
from ..bitstream import (
    Bitstream,
    BitstreamBuilder,
    compress_words,
    crc32c_words,
    make_z7020_layout,
)
from ..dram import BankDramController, DramDevice
from ..fabric import Asp, ConfigMemory, RpRegion, encode_asp_frames
from ..obs import TELEMETRY_BOOK, MetricsRegistry
from ..sim import ClockDomain, Simulator

from .memctrl import SramMemoryController
from .pr_controller import ActivationResult, PrController
from .scheduler import PendingBitstream, PsScheduler
from .sram import QdrSram

__all__ = ["SramPrResult", "SramPrSystem"]

#: The paper's §VI estimate: 550 MHz · 36 bit / 2 = 1237.5 MB/s.
THEORETICAL_THROUGHPUT_MB_S = 550.0 * 36.0 / 2.0 / 8.0 * 1e-0  # = 1237.5


@dataclass
class SramPrResult:
    """End-to-end outcome of one preload + activate cycle."""

    region: str
    preload_us: float
    activation: ActivationResult
    crc_valid: bool

    @property
    def activation_latency_us(self) -> float:
        return self.activation.latency_us

    @property
    def throughput_mb_s(self) -> float:
        return self.activation.throughput_mb_s


class SramPrSystem:
    """The proposed environment as a runnable system."""

    def __init__(self) -> None:
        self.sim = Simulator()
        sim = self.sim

        #: Shared telemetry registry (same naming scheme as PdrSystem).
        self.metrics = MetricsRegistry(now_fn=lambda: sim.now, name="sram_pr_system")

        self.layout = make_z7020_layout()
        self.memory = ConfigMemory(self.layout)
        self.regions: Dict[str, RpRegion] = {
            name: RpRegion(self.memory, name) for name in self.layout.regions
        }
        self.builder = BitstreamBuilder(self.layout)

        self.dram = DramDevice()
        self.dram_controller = BankDramController(
            sim, self.dram, metrics=self.metrics
        )
        self.interconnect = AxiInterconnect(
            sim, self.dram_controller, metrics=self.metrics
        )
        self.hp_port = AxiHpPort(sim, self.interconnect, name="hp_sched")

        self.sram = QdrSram(sim)
        self.memctrl = SramMemoryController(sim, self.sram)
        self.icap_clock = ClockDomain(sim, 550.0, name="icap550")
        self.pr_controller = PrController(
            sim, self.memctrl, self.memory, icap_clock=self.icap_clock
        )
        self.scheduler = PsScheduler(sim, self.memctrl, self.hp_port)

        self._staging_cursor = 0x1000_0000
        self.results: List[SramPrResult] = []

        # Probes close over what they read, never over ``self``: the
        # telemetry capture keeps the registry after the system is gone.
        metrics = self.metrics
        icap_clock = self.icap_clock
        metrics.probe("sim.events_processed", lambda: sim.events_processed)
        metrics.probe("sim.heap_high_water", lambda: sim.heap_high_water)
        metrics.probe("sim.processes_spawned", lambda: sim.processes_spawned)
        metrics.probe("icap550.freq_mhz", lambda: icap_clock.freq_mhz)
        self.counts = metrics.counts("sram_pr", reconfigures=0)
        self._m_preload_us = metrics.histogram("sram_pr.preload_us")
        self._m_activation_us = metrics.histogram("sram_pr.activation_us")
        TELEMETRY_BOOK.register(metrics, "sram_pr_system")

    # -- image preparation ----------------------------------------------------
    def prepare_image(
        self, region: str, asp: Asp, compress: bool = True
    ) -> PendingBitstream:
        """Build a partial bitstream, optionally compress it, stage in DRAM."""
        frames = encode_asp_frames(self.layout.region_frame_count(region), asp)
        bitstream = self.builder.build_partial(region, frames)
        words = bitstream.words
        if compress:
            words = compress_words(words)
        data = b"".join(w.to_bytes(4, "big") for w in words)
        addr = self._staging_cursor
        self._staging_cursor += (len(data) + 0xFFF) & ~0xFFF
        self.dram.store(addr, data)
        return PendingBitstream(
            name=bitstream.description,
            region=region,
            dram_addr=addr,
            word_count=len(words),
            compressed=compress,
            region_crc=crc32c_words(w for frame in frames for w in frame),
        )

    # -- paper workflow -----------------------------------------------------------
    def reconfigure(
        self, region: str, asp: Asp, compress: bool = True
    ) -> SramPrResult:
        """Preload then activate, blocking in simulation time.

        For the latency-hiding variant (preload overlapped with useful
        work) drive :attr:`scheduler` / :attr:`pr_controller` directly —
        see ``examples/proposed_sram_pr.py``.
        """
        pending = self.prepare_image(region, asp, compress=compress)
        self.scheduler.enqueue(pending)

        def sequence():
            t0 = self.sim.now
            yield self.sim.process(self.scheduler.preload_next(), name="preload")
            preload_us = (self.sim.now - t0) / 1e3
            activation = yield self.sim.process(
                self.pr_controller.activate(), name="activate"
            )
            crc_valid = (
                crc32c_words(self.memory.iter_region_words(region))
                == pending.region_crc
            )
            return SramPrResult(
                region=region,
                preload_us=preload_us,
                activation=activation,
                crc_valid=crc_valid,
            )

        process = self.sim.process(sequence(), name=f"sram_pr:{region}")
        result: SramPrResult = self.sim.run_until(process)
        self.results.append(result)
        self.counts.reconfigures += 1
        self._m_preload_us.observe(result.preload_us)
        self._m_activation_us.observe(result.activation_latency_us)
        return result

    def run_asp(self, region: str, words: List[int]) -> List[int]:
        """Execute the currently configured ASP of ``region`` functionally."""
        return self.regions[region].compute(words)
