"""Per-partition data channel (paper Fig. 1).

Each reconfigurable partition owns an HP port and a DMA pair: an MM2S
engine streams job input from DRAM into the partition, the ASP datapath
consumes it at one word per RP-clock cycle, and an S2MM engine returns
the results to DRAM.  This is the PL plumbing that makes the Fig. 1
framework's job timing a measured quantity rather than an estimate: bus
contention between partitions, RP clock pacing and memory latency all
come out of the same discrete-event models as the reconfiguration path.

The channel is store-and-forward (the ASP sees its whole input before
producing output — a matmul or AES block has to anyway), so a job's
wall time decomposes exactly into data-in + compute + data-out.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..axi.ports import AxiHpPort
from ..axi.stream import AxiStream, StreamBurst
from ..obs import MetricsRegistry
from ..dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    MM2S_DMACR,
    MM2S_LENGTH,
    MM2S_SA,
    S2mmDmaEngine,
)
from ..fabric.region import RpRegion
from ..sim import ClockDomain, Simulator

__all__ = ["RpDataChannel"]

#: Words per output burst pushed by the ASP datapath.
_OUT_BURST_WORDS = 256


class RpDataChannel:
    """DRAM → MM2S → ASP → S2MM → DRAM, all in the RP's clock domain."""

    #: Extra pipeline fill/drain cycles charged per compute phase.
    COMPUTE_FIXED_CYCLES = 64

    def __init__(
        self,
        sim: Simulator,
        hp_port: AxiHpPort,
        rp_clock: ClockDomain,
        region: RpRegion,
        name: str = "",
        control=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.hp_port = hp_port
        self.rp_clock = rp_clock
        self.region = region
        self.name = name or f"rpchan.{region.name}"
        #: Optional :class:`~repro.core.rp_regs.RpControlInterface` that
        #: mirrors busy state and pulses data-ready on job completion.
        self.control = control
        self.in_stream = AxiStream(
            sim, fifo_words=512, name=f"{self.name}.in", metrics=metrics
        )
        self.out_stream = AxiStream(
            sim, fifo_words=512, name=f"{self.name}.out", metrics=metrics
        )
        self.mm2s = AxiDmaEngine(
            sim,
            rp_clock,
            hp_port,
            self.in_stream,
            name=f"{self.name}.mm2s",
            metrics=metrics,
        )
        self.s2mm = S2mmDmaEngine(
            sim,
            rp_clock,
            hp_port,
            self.out_stream,
            name=f"{self.name}.s2mm",
            metrics=metrics,
        )
        self.jobs_completed = 0

    def run_job(
        self, input_words: List[int], in_addr: int, out_addr: int
    ):
        """Execute one job (process generator).

        Stages ``input_words`` at ``in_addr``, streams them through the
        partition's ASP, lands the results at ``out_addr`` and returns
        ``(output_words, (data_in_us, compute_us, data_out_us))``.
        """
        if not input_words:
            raise ValueError("job needs at least one input word")
        dram = self.hp_port.interconnect.controller.device
        in_bytes = struct.pack(f">{len(input_words)}I", *input_words)
        dram.store(in_addr, in_bytes)
        if self.control is not None:
            self.control.set_busy(True)

        # ---- data in: DRAM -> RP input buffer -----------------------------
        t0 = self.sim.now
        collected: List[int] = []
        self.mm2s.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
        self.mm2s.reg_write(MM2S_SA, in_addr)
        self.mm2s.reg_write(MM2S_LENGTH, len(in_bytes))
        while True:
            burst = yield self.in_stream.pop()
            # The ASP ingests one word per RP-clock cycle.
            yield self.rp_clock.wait_cycles(burst.word_count)
            collected.extend(burst.words)
            self.in_stream.release(burst.word_count)
            if burst.last:
                break
        data_in_us = (self.sim.now - t0) / 1e3

        # ---- compute: the configured ASP transforms the block --------------
        t1 = self.sim.now
        output = self.region.compute(collected[: len(input_words)])
        yield self.rp_clock.wait_cycles(self.COMPUTE_FIXED_CYCLES)
        compute_us = (self.sim.now - t1) / 1e3

        # ---- data out: RP -> S2MM -> DRAM ----------------------------------
        if not output:
            self.jobs_completed += 1
            self._signal_done()
            return [], (data_in_us, compute_us, 0.0)
        t2 = self.sim.now
        out_bytes_max = max(len(output) * 4, 4)
        self.s2mm.arm(out_addr, out_bytes_max)
        cursor = 0
        while cursor < len(output):
            chunk = output[cursor : cursor + _OUT_BURST_WORDS]
            yield self.out_stream.reserve(len(chunk))
            yield self.rp_clock.wait_cycles(len(chunk))
            cursor += len(chunk)
            self.out_stream.push(
                StreamBurst(words=chunk, last=cursor >= len(output))
            )
        yield self.s2mm.ioc_irq.wait_assert()
        data_out_us = (self.sim.now - t2) / 1e3

        # Results really are in DRAM now — read them back from there.
        landed = dram.load(out_addr, len(output) * 4)
        output_from_dram = list(struct.unpack(f">{len(output)}I", landed))
        self.jobs_completed += 1
        self._signal_done()
        return output_from_dram, (data_in_us, compute_us, data_out_us)

    def _signal_done(self) -> None:
        if self.control is not None:
            self.control.set_busy(False)
            self.control.signal_data_ready()
