"""The over-clocked PDR system (paper Fig. 2) — the core contribution.

Assembles the full hardware/software stack:

* PS side: DRAM + controller, AXI interconnect, global timer, GIC,
  PCAP, the test firmware's control sequence;
* PL static part: Clock Wizard (over-clock domain), AXI DMA, AXI4-Stream
  link, ICAP controller, CRC read-back scrubber;
* PL dynamic part: four reconfigurable partitions on the Z-7020 layout;
* bench: thermal model + heat gun + XADC sensor, power model + board
  current sense, switches/buttons/OLED/SD card.

The public entry point is :meth:`PdrSystem.reconfigure` — build a partial
bitstream for an ASP, stage it in DRAM and run the paper's measurement
sequence, returning a :class:`~repro.core.results.ReconfigResult` with
the same observables as the paper's Table I rows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..axi import AxiHpPort, AxiInterconnect, AxiStream
from ..bitstream import Bitstream, BitstreamBuilder, crc32c_packed, make_z7020_layout
from ..bitstream.device import FRAME_BYTES
from ..board import OledDisplay, PushButtons, SdCard, SwitchBank
from ..clocking import ClockWizard
from ..crccheck import CrcScrubber
from ..dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RESET,
    DMACR_RS,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
    SgDescriptor,
    write_descriptor_chain,
)
from ..dram import BankDramController, BankTiming, DramDevice
from ..fabric import Asp, ConfigMemory, RpRegion, encode_asp_packed
from ..icap import IcapController
from ..obs import TELEMETRY_BOOK, MetricsRegistry, NullMetricsRegistry, SpanRecorder
from ..obs.profile import attribute_devices, critical_path as _critical_path
from ..power import CurrentSense, PowerModel, PowerSupply
from ..ps import GlobalTimer, InterruptController, Pcap
from ..sim import ClockDomain, Simulator, Tracer
from ..thermal import HeatGun, TemperatureSensor, ThermalModel
from ..timing import (
    FailureMode,
    PDR_CONTROL_PATH,
    PDR_DATA_PATH,
    default_timing_model,
    make_word_corruptor,
)

from .results import BatchReconfigResult, ReconfigResult

__all__ = ["PdrSystemConfig", "PdrSystem"]

#: Reference partial-bitstream size: the byte count consistent with every
#: row of the paper's Table I (size = throughput x latency); see DESIGN.md.
TABLE1_BITSTREAM_BYTES = 528_760

#: Where bitstreams are staged in DRAM.
BITSTREAM_BASE_ADDR = 0x1000_0000

#: Where a batch's SG descriptor chain is laid out (below the staging area).
SG_CHAIN_BASE_ADDR = 0x0F00_0000

#: Nominal PL clock out of reset (MHz).
NOMINAL_FREQ_MHZ = 100.0

#: Sentinel: :meth:`PdrSystem.make_bitstream` pads to the system config's
#: ``pad_bitstreams_to`` unless the caller overrides per build (the fleet
#: layer serves mixed-size requests from one system).
_PAD_FROM_CONFIG = object()


@dataclass
class PdrSystemConfig:
    """Tunable parameters of the assembled system."""

    #: Die temperature pin for bench-style experiments (°C).
    die_temp_c: float = 40.0
    #: Stream FIFO depth between DMA and ICAP, in 32-bit words.
    stream_fifo_words: int = 1024
    #: Driver software overhead before the DMA starts (cache maintenance,
    #: descriptor setup) in microseconds.  Calibrated against Table I.
    firmware_setup_us: float = 1.9
    #: Firmware's give-up timeout waiting for the completion interrupt.
    irq_timeout_us: float = 20_000.0
    #: Pad generated bitstreams to the Table I reference size.
    pad_bitstreams_to: Optional[int] = TABLE1_BITSTREAM_BYTES
    #: DMA memory-side read burst size (bytes) — ablation A1 varies this.
    dma_burst_bytes: int = 1024
    #: DMA command-issue overhead per burst, in over-clock cycles.
    dma_cmd_overhead_cycles: int = 10
    #: Compile the telemetry probes out: metrics become shared no-ops and
    #: the tracer stops retaining records.  Phase spans (and therefore
    #: ``ReconfigResult.phase_us``/``critical_path``) survive — they are
    #: part of the result contract, not the instrumentation.  perfbench's
    #: ``obs.overhead_ratio`` measures this flag's worth.
    telemetry: bool = True
    #: Row-buffer policy for the bank model: ``"open"`` keeps rows open
    #: (sequential streams hit), ``"closed"`` auto-precharges every access.
    dram_page_policy: str = "open"
    #: Refresh accounting: ``"lazy"`` (refreshes in idle gaps are free,
    #: at most one tRFC per busy period), ``"engine"``
    #: (deterministic tREFI/tRFC bus-stealing engine) or ``"off"``.
    dram_refresh_mode: str = "lazy"
    #: DDR precharge time tRP (ns).  0 by default (precharge folded into
    #: activate); the other command timings are :class:`BankTiming`'s.
    dram_trp_ns: float = 0.0


class PdrSystem:
    """The assembled Fig. 2 architecture."""

    #: Process-wide memo of built partial bitstreams, shared across system
    #: instances.  A build is a pure function of the key (the floorplan is
    #: the fixed Z-7020 layout) and the result is treated as read-only, so
    #: fresh-system-per-point sweeps need not rebuild identical bitstreams.
    #: Bounded LRU so unbounded workload sweeps cannot grow it forever.
    _BUILD_CACHE: "OrderedDict[tuple, Bitstream]" = OrderedDict()
    _BUILD_CACHE_MAX = 128

    def __init__(self, config: Optional[PdrSystemConfig] = None):
        self.config = config or PdrSystemConfig()
        self.sim = Simulator()
        sim = self.sim

        #: Shared telemetry: every component namespaces its count record,
        #: gauges and histograms into this registry (``component.metric``).
        #: With ``config.telemetry=False`` the probes are compiled out —
        #: the same wiring lands on shared no-op metrics instead, and the
        #: count records still count but are not exported.
        if self.config.telemetry:
            self.metrics = MetricsRegistry(now_fn=lambda: sim.now, name="pdr_system")
        else:
            self.metrics = NullMetricsRegistry(name="pdr_system")

        # ---- fabric ---------------------------------------------------------
        self.layout = make_z7020_layout()
        self.memory = ConfigMemory(self.layout)
        self.regions: Dict[str, RpRegion] = {
            name: RpRegion(self.memory, name) for name in self.layout.regions
        }
        self.builder = BitstreamBuilder(self.layout)

        # ---- PS memory system ---------------------------------------------
        cfg = self.config
        self.dram = DramDevice()
        self.dram_controller = BankDramController(
            sim,
            self.dram,
            metrics=self.metrics,
            timing=BankTiming(trp_ns=cfg.dram_trp_ns),
            page_policy=cfg.dram_page_policy,
            refresh_mode=cfg.dram_refresh_mode,
        )
        self.interconnect = AxiInterconnect(
            sim, self.dram_controller, metrics=self.metrics
        )
        self.hp0 = AxiHpPort(sim, self.interconnect, name="hp0")

        # ---- over-clock domain + transfer path ------------------------------
        self.overclock = ClockDomain(sim, NOMINAL_FREQ_MHZ, name="overclock")
        self.clock_wizard = ClockWizard(sim, self.overclock, name="clk_wiz")
        self.stream = AxiStream(
            sim,
            fifo_words=self.config.stream_fifo_words,
            name="dma2icap",
            metrics=self.metrics,
        )
        self.dma = AxiDmaEngine(
            sim,
            self.overclock,
            self.hp0,
            self.stream,
            max_burst_bytes=self.config.dma_burst_bytes,
            cmd_overhead_cycles=self.config.dma_cmd_overhead_cycles,
            metrics=self.metrics,
        )
        self.icap = IcapController(
            sim, self.overclock, self.memory, self.stream, metrics=self.metrics
        )
        self.scrubber = CrcScrubber(
            sim,
            self.overclock,
            self.memory,
            busy_gate=self.icap.busy,
            metrics=self.metrics,
        )

        # ---- PS software-visible blocks --------------------------------------
        self.timer = GlobalTimer(sim)
        self.gic = InterruptController(sim)
        self.gic.connect("dma_ioc", self.dma.ioc_irq)
        self.gic.connect("crc_error", self.scrubber.error_irq)
        self.gic.connect("icap_error", self.icap.error_irq)
        self.pcap = Pcap(sim, self.memory)

        # ---- bench: thermal + power ------------------------------------------
        # The sources and probes below close over the component they read,
        # never over ``self``: a closure over the system held by one of its
        # own parts is a reference cycle that outlives the run.
        overclock = self.overclock
        power_model = self.power_model = PowerModel()
        thermal = self.thermal = ThermalModel(
            sim,
            power_source=lambda: power_model.pdr_power_w(overclock.freq_mhz, 40.0),
        )
        self.heat_gun = HeatGun(thermal)
        self.temp_sensor = TemperatureSensor(thermal)
        self.current_sense = CurrentSense(
            power_model,
            freq_source=lambda: overclock.freq_mhz,
            temp_source=lambda: thermal.temperature_c,
        )
        #: Board supply state: brownouts clamp the usable over-clock.
        self.supply = PowerSupply(now_fn=lambda: sim.now)
        self.thermal.pin_temperature(self.config.die_temp_c)

        # ---- board I/O -------------------------------------------------------
        self.oled = OledDisplay()
        self.switches = SwitchBank()
        self.buttons = PushButtons()
        self.sdcard = SdCard(sim)

        # ---- timing / failure model -----------------------------------------
        self.timing = default_timing_model()

        #: Firmware/system event trace (bounded ring buffer); retention
        #: follows the telemetry flag (emission is lazy, so a disabled
        #: tracer costs one boolean check per emit).
        self.trace = Tracer()
        self.trace.enabled = self.config.telemetry
        self._staging_cursor = BITSTREAM_BASE_ADDR
        self._bitstream_cache: Dict[tuple, Bitstream] = {}
        self._staged_addrs: Dict[int, int] = {}
        self.results: List[ReconfigResult] = []
        #: Number of firmware reconfiguration sequences currently in
        #: flight (clock program → transfer → post-transfer scrub).  The
        #: chaos layer gates SEU delivery on this being zero: an upset
        #: during an active sequence is indistinguishable from transfer
        #: corruption and belongs to the retry ladder, not the scrubber.
        self.firmware_active = 0

        # ---- telemetry: probes, bench series, firmware counts ---------------
        metrics = self.metrics
        metrics.probe("sim.events_processed", lambda: sim.events_processed)
        metrics.probe("sim.heap_high_water", lambda: sim.heap_high_water)
        metrics.probe("sim.processes_spawned", lambda: sim.processes_spawned)
        metrics.probe("overclock.freq_mhz", lambda: overclock.freq_mhz)
        metrics.probe("bench.die_temp_c", lambda: thermal.temperature_c)
        self._temp_series = metrics.series("bench.temp_c")
        self._power_series = metrics.series("bench.board_power_w")
        self.fw_counts = metrics.counts("fw", reconfigures=0, irq_timeouts=0)
        self._m_latency_us = metrics.histogram("fw.latency_us")
        self.power_counts = metrics.counts("power", brownout_clamps=0)
        if self.config.telemetry:
            TELEMETRY_BOOK.register(metrics, "pdr_system")
            TELEMETRY_BOOK.register_tracer(self.trace, "pdr_system")

    # ------------------------------------------------------------------ bench --
    def set_die_temperature(self, temp_c: float) -> None:
        """Pin the die temperature (the paper's stabilised heat-gun steps).

        Setpoints above the self-heating floor go through the heat-gun
        actuator (as on the bench); colder setpoints — unreachable with a
        heat gun — fall back to a direct pin for what-if experiments.
        """
        try:
            self.heat_gun.hold_die_at(temp_c)
        except ValueError:
            self.thermal.pin_temperature(temp_c)

    @property
    def die_temp_c(self) -> float:
        return self.thermal.temperature_c

    # --------------------------------------------------------------- bitstreams --
    def make_bitstream(
        self,
        region: str,
        asp: Asp,
        description: str = "",
        pad_to=_PAD_FROM_CONFIG,
    ) -> Bitstream:
        """Build a partial bitstream configuring ``region`` as ``asp``.

        Builds are deterministic and memoised per (region, ASP, padding);
        treat the returned object as read-only (use
        :meth:`Bitstream.corrupted` for fault-injection variants).
        ``pad_to`` overrides the config's ``pad_bitstreams_to`` for this
        build only (``None`` = content-sized) — request-level workloads
        mix bitstream sizes on one system this way.
        """
        if pad_to is _PAD_FROM_CONFIG:
            pad_to = self.config.pad_bitstreams_to
        cache_key = (
            region,
            asp.kind,
            tuple(asp.params()),
            pad_to,
            description,
        )
        cached = self._bitstream_cache.get(cache_key)
        if cached is not None:
            # Promote in the shared LRU too: a system whose instance cache
            # keeps answering must not let the shared entry age to the
            # cold end and evict while it is the hottest build in the
            # process (promote-on-hit previously only ran on the
            # shared-lookup path).
            if cache_key in PdrSystem._BUILD_CACHE:
                PdrSystem._BUILD_CACHE.move_to_end(cache_key)
            return cached
        shared = PdrSystem._BUILD_CACHE.get(cache_key)
        if shared is not None:
            PdrSystem._BUILD_CACHE.move_to_end(cache_key)
            # Pin in the instance cache too, so identity within this
            # system survives a later LRU eviction.
            self._bitstream_cache[cache_key] = shared
            return shared
        frame_count = self.layout.region_frame_count(region)
        packed_frames = encode_asp_packed(frame_count, asp)
        bitstream = self.builder.build_partial(
            region,
            pad_to_bytes=pad_to,
            description=description or f"{asp.name} for {region}",
            frame_data_packed=packed_frames,
        )
        # Golden CRC of the region content after a correct load, used by
        # the read-back scrubber.  Folded over the same 32-frame chunks
        # the scrubber's batched read-back produces, so the fold here
        # pre-warms the content cache the scrub pass will hit.
        chunk_bytes = 32 * FRAME_BYTES
        bitstream.meta["region_crc"] = crc32c_packed(
            packed_frames[offset : offset + chunk_bytes]
            for offset in range(0, len(packed_frames), chunk_bytes)
        )
        self._bitstream_cache[cache_key] = bitstream
        PdrSystem._BUILD_CACHE[cache_key] = bitstream
        PdrSystem._BUILD_CACHE.move_to_end(cache_key)
        while len(PdrSystem._BUILD_CACHE) > PdrSystem._BUILD_CACHE_MAX:
            PdrSystem._BUILD_CACHE.popitem(last=False)
        return bitstream

    def stage_bitstream(self, bitstream: Bitstream, addr: Optional[int] = None) -> int:
        """Place a bitstream in DRAM; returns its address.

        Untimed (bench provisioning).  The boot-from-SD example stages
        through the timed SD-card path instead.
        """
        if addr is None:
            staged = self._staged_addrs.get(id(bitstream))
            if staged is not None:
                return staged  # already resident in DRAM
            addr = self._staging_cursor
            self._staging_cursor += (bitstream.size_bytes + 0xFFF) & ~0xFFF
            self._staged_addrs[id(bitstream)] = addr
        self.dram.store(addr, bitstream.to_bytes())
        return addr

    # ------------------------------------------------------------- main entry --
    def reconfigure(
        self,
        region: str,
        asp: Asp,
        freq_mhz: float,
        bitstream: Optional[Bitstream] = None,
        attempt: int = 0,
    ) -> ReconfigResult:
        """Run one complete over-clocked PDR measurement.

        Blocks (in simulation time) until the firmware sequence finishes
        and returns the Table-I-style result record.  ``attempt`` is the
        retry index of a recovery loop (0 = first try); it salts the
        fault injector so a retry does not replay bit-identical
        corruption.
        """
        if region not in self.regions:
            raise KeyError(f"unknown region {region!r}")
        process = self.sim.process(
            self.reconfigure_process(region, asp, freq_mhz, bitstream, attempt),
            name=f"fw.reconfigure:{region}",
        )
        result: ReconfigResult = self.sim.run_until(process)
        self.results.append(result)
        return result

    def reconfigure_process(
        self,
        region: str,
        asp: Asp,
        freq_mhz: float,
        bitstream: Optional[Bitstream] = None,
        attempt: int = 0,
    ):
        """The reconfiguration sequence as a raw process generator.

        For callers that are themselves simulation processes (e.g. the
        HLL framework's job scheduler); :meth:`reconfigure` is the
        blocking convenience wrapper around the same sequence.
        """
        if bitstream is None:
            bitstream = self.make_bitstream(region, asp)
        addr = self.stage_bitstream(bitstream)
        return self._firmware_sequence(
            region, [(region, bitstream, addr)], freq_mhz, attempt
        )

    # ------------------------------------------------------------ fault hooks --
    def abort_transfer(self):
        """Reset the DMA engine and abort the in-flight ICAP transfer.

        Process generator; the recovery path for a missing completion
        interrupt.  Returns once the engine is verifiably idle and the
        stream between DMA and ICAP is quiesced — raising instead of
        returning if the hardware will not settle, because retrying on
        top of a still-draining transfer corrupts the next load.
        """
        self.dma.reg_write(MM2S_DMACR, DMACR_RESET)
        # The reset halts the engine at once; firmware still gives it a
        # couple of cycles to unwind before quiescing the ICAP.
        yield self.overclock.wait_cycles(2)
        yield self.sim.process(self.icap.abort(), name="fw.icap_abort")
        if not self.dma.idle:
            raise RuntimeError("DMA engine not idle after abort")
        if self.icap.busy.value:
            raise RuntimeError("ICAP still busy after abort")
        self.trace.emit(self.sim.now, "fw", "DMA reset + ICAP abort complete")

    def run_asp(self, region: str, words: List[int]) -> List[int]:
        """Execute the currently configured ASP of ``region`` functionally."""
        return self.regions[region].compute(words)

    # ------------------------------------------------------ batch (SG) mode --
    def reconfigure_batch(
        self, jobs: List[tuple], freq_mhz: float
    ) -> BatchReconfigResult:
        """Reconfigure several partitions back-to-back via SG descriptors.

        ``jobs`` is a list of ``(region, asp)`` pairs — or
        ``(region, asp, pad_to)`` triples to override the bitstream
        padding per job (the fleet layer batches mixed-size requests).
        A scatter-gather descriptor chain in DRAM points at each staged
        bitstream; the DMA walks the chain with no software between
        transfers, so the per-transfer driver overhead is paid once for
        the whole batch.  The chain runs through the same firmware
        sequence as :meth:`reconfigure`, with one read-back scrub per
        region.
        """
        if not jobs:
            raise ValueError("batch needs at least one (region, asp) job")
        loads = []
        descriptors = []
        for job in jobs:
            region, asp = job[0], job[1]
            pad_to = job[2] if len(job) > 2 else _PAD_FROM_CONFIG
            if region not in self.regions:
                raise KeyError(f"unknown region {region!r}")
            bitstream = self.make_bitstream(region, asp, pad_to=pad_to)
            addr = self.stage_bitstream(bitstream)
            loads.append((region, bitstream, addr))
            descriptors.append(SgDescriptor(addr, bitstream.size_bytes))
        head = write_descriptor_chain(self.dram, SG_CHAIN_BASE_ADDR, descriptors)
        label = "+".join(region for region, _b, _a in loads)
        process = self.sim.process(
            self._firmware_sequence(label, loads, freq_mhz, head=head),
            name=f"fw.reconfigure_batch:{label}",
        )
        batch: BatchReconfigResult = self.sim.run_until(process)
        self.results.append(batch.load)
        return batch

    # ---------------------------------------------------------------- firmware --
    def _gate_clock(self, freq_mhz: float, target: str) -> float:
        """The clock request the supply allows for a load of ``target``.

        A browned-out rail cannot hold timing at the full over-clock, so
        firmware clamps the request to the ceiling, counts the clamp and
        traces it.
        """
        gated_mhz = self.supply.gate_mhz(freq_mhz)
        if gated_mhz < freq_mhz:
            self.power_counts.brownout_clamps += 1
            self.trace.emit(
                self.sim.now,
                "fw",
                f"brownout: {freq_mhz:g} MHz request clamped to "
                f"{gated_mhz:g} MHz for {target}",
            )
        return gated_mhz

    def _firmware_sequence(self, label, loads, freq_mhz, attempt=0, head=None):
        """The paper's C test program, as a simulation process.

        ``loads`` lists ``(region, bitstream, addr)`` for every staged
        bitstream and ``label`` names them (the region, or the regions
        joined with ``+``).  With no ``head`` the one load runs in
        direct register mode (SA/LENGTH) and the process returns its
        :class:`ReconfigResult`; with ``head`` the DMA walks the SG
        descriptor chain there and the process returns a
        :class:`BatchReconfigResult`.

        Every firmware phase runs inside a :class:`SpanRecorder` span, so
        the result carries a per-phase latency breakdown and the registry
        accumulates ``fw.phase.*_us`` histograms across reconfigurations.
        """
        spans = SpanRecorder(
            now_fn=lambda: self.sim.now,
            tracer=self.trace,
            source="fw",
            metrics=self.metrics,
            metrics_prefix="fw.phase.",
        )
        self.fw_counts.reconfigures += 1
        self.firmware_active += 1
        try:
            result, region_valid = yield from self._firmware_sequence_body(
                label, loads, freq_mhz, attempt, head, spans
            )
        finally:
            self.firmware_active -= 1
        if head is None:
            return result
        return BatchReconfigResult(load=result, region_valid=region_valid)

    def _firmware_sequence_body(self, label, loads, freq_mhz, attempt, head, spans):
        config = self.config
        with spans.span("reconfigure", region=label, freq_mhz=freq_mhz):
            # 1. Program the Clock Wizard and wait for MMCM lock.
            gated_mhz = self._gate_clock(freq_mhz, label)
            with spans.span("clock_lock"):
                achieved = yield self.clock_wizard.program(gated_mhz)
            self.trace.emit(
                self.sim.now, "fw", f"clock locked at {achieved:g} MHz for {label}"
            )
            self._temp_series.sample(self.thermal.temperature_c)

            # 2. Ask the "silicon" what breaks at this operating point.
            temp_c = self.thermal.temperature_c
            failure_modes = []
            control_ok = self.timing.ok(PDR_CONTROL_PATH, achieved, temp_c)
            data_ok = self.timing.ok(PDR_DATA_PATH, achieved, temp_c)
            self.dma.suppress_completion_irq = not control_ok
            if not control_ok:
                failure_modes.append(FailureMode.CONTROL_HANG)
            if not data_ok:
                fmax = self.timing.path(PDR_DATA_PATH).fmax_mhz(temp_c)
                self.icap.word_corruptor = make_word_corruptor(
                    achieved, fmax, temp_c, region=label, attempt=attempt
                )
                failure_modes.append(FailureMode.DATA_CORRUPT)
            else:
                self.icap.word_corruptor = None

            # 3. Timestamp, then driver setup: the paper's C-timer wraps the
            #    whole transfer call, cache maintenance included.
            start_ticks = self.timer.read_ticks()
            with spans.span("driver_setup"):
                yield self.sim.timeout(config.firmware_setup_us * 1e3)

            # FIFO backpressure accumulated during the transfer window is
            # consumer-bound time (the ICAP draining slower than the DMA
            # fills); the critical-path extractor re-attributes it.
            stall_before_ns = self.stream.counts.backpressure_ns
            with spans.span("dma_transfer"):
                # 4. Arm the ICAP and start the DMA: one buffer by its
                #    registers, or the descriptor chain at ``head``.
                self.icap.begin_transfer()
                self.dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
                if head is None:
                    [(_region, bitstream, addr)] = loads
                    self.dma.reg_write(MM2S_SA, addr)
                    self.dma.reg_write(MM2S_LENGTH, bitstream.size_bytes)
                else:
                    self.dma.start_chain(head)

                # 5. Wait for the completion interrupt (or give up).
                irq_event = self.dma.ioc_irq.wait_assert()
                timeout_event = self.sim.timeout(config.irq_timeout_us * 1e3)
                fired = yield self.sim.any_of([irq_event, timeout_event])
                interrupt_seen = irq_event in fired
                self.trace.emit(
                    self.sim.now,
                    "fw",
                    "completion interrupt received" if interrupt_seen
                    else "TIMEOUT waiting for completion interrupt",
                )
                latency_us: Optional[float] = None
                if interrupt_seen:
                    latency_us = self.timer.elapsed_us(start_ticks)
                    self.dma.reg_write(MM2S_DMASR, DMASR_IOC_IRQ)  # ack (W1C)
            if interrupt_seen:
                self._m_latency_us.observe(latency_us)
            else:
                self.fw_counts.irq_timeouts += 1
                # A timed-out transfer may still be in flight: left alone
                # it keeps draining into the ICAP and can bleed into the
                # next reconfiguration.  Halt the engine and quiesce the
                # ICAP before touching the fabric again.
                with spans.span("fault_abort"):
                    yield from self.abort_transfer()

            # Let the ICAP finish draining whatever the DMA pushed: the
            # phase ends 16 over-clock cycles after the ICAP went idle
            # (an SG chain's last status write-back already covers them).
            with spans.span("icap_drain"):
                yield self.icap.busy.wait_for(False)
                settle_ns = (
                    self.icap.idle_since_ns
                    + self.overclock.cycles_to_ns(16)
                    - self.sim.now
                )
                if settle_ns > 0:
                    yield self.sim.timeout(settle_ns)

            # 6. Read-back CRC check of every freshly configured region.
            region_valid = {}
            with spans.span("scrub"):
                for region, bitstream, _addr in loads:
                    self.scrubber.set_expected_crc(region, bitstream.meta["region_crc"])
                    scrub = yield self.sim.process(
                        self.scrubber.scrub_region_once(region), name="fw.scrub"
                    )
                    region_valid[region] = scrub.ok
            for region, valid in region_valid.items():
                self.trace.emit(
                    self.sim.now,
                    "fw",
                    f"read-back CRC for {region}: {'valid' if valid else 'NOT VALID'}",
                )
            crc_valid = all(region_valid.values())

            # 7. Report on the OLED, sample power, return the record.
            # The sampled board power can quantise below the idle
            # baseline at low operating points; a transfer never has
            # negative power draw, so clamp at zero.
            board_power = self.current_sense.read_board_power_w()
            pdr_power = max(0.0, board_power - self.power_model.params.p0_board_w)
            self._power_series.sample(board_power)
            self._temp_series.sample(self.thermal.temperature_c)
        phase_us = spans.breakdown_us(parent="reconfigure")
        stall_us = max(0.0, self.stream.counts.backpressure_ns - stall_before_ns) / 1e3
        device_us = attribute_devices(phase_us, stall_us)
        result = ReconfigResult(
            region=label,
            requested_freq_mhz=freq_mhz,
            freq_mhz=achieved,
            bitstream_bytes=sum(b.size_bytes for _r, b, _a in loads),
            temp_c=temp_c,
            interrupt_seen=interrupt_seen,
            crc_valid=crc_valid,
            latency_us=latency_us,
            latency_unavailable_reason=(
                None if interrupt_seen else "no completion interrupt"
            ),
            pdr_power_w=pdr_power,
            board_power_w=board_power,
            failure_modes=failure_modes,
            phase_us=phase_us,
            critical_path=_critical_path(phase_us, stall_us),
            device_us={name: round(us, 3) for name, us in device_us.items()},
        )
        self._update_oled(result)
        return result, region_valid

    def _update_oled(self, result: ReconfigResult) -> None:
        self.oled.write_line(0, f"FREQ {result.freq_mhz:6.1f} MHz")
        self.oled.write_line(1, f"TEMP {self.temp_sensor.read_celsius():5.1f} C")
        if result.latency_us is not None:
            self.oled.write_line(2, f"XFER {result.latency_us:8.1f} us")
        else:
            self.oled.write_line(2, "XFER   no interrupt")
        self.oled.write_line(3, f"CRC  {'valid' if result.crc_valid else 'NOT VALID'}")
