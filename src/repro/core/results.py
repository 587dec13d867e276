"""Result records returned by the PDR systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["BatchReconfigResult", "PHASES", "ReconfigResult", "TIMED_PHASES"]

#: Canonical firmware phase order (matches the spans recorded by
#: :meth:`repro.core.pdr_system.PdrSystem._firmware_sequence`).
#: ``fault_abort`` only appears when the completion interrupt timed out
#: and the firmware had to reset the DMA and abort the ICAP transfer.
PHASES = (
    "clock_lock",
    "driver_setup",
    "dma_transfer",
    "fault_abort",
    "icap_drain",
    "scrub",
)

#: Phases inside the paper's C-timer window: the timer starts right
#: before driver setup and stops when the completion interrupt arrives,
#: so these (and only these) must sum to ``latency_us``.
TIMED_PHASES = ("driver_setup", "dma_transfer")


@dataclass
class ReconfigResult:
    """Outcome of one partial-reconfiguration attempt.

    Mirrors what the paper's test firmware can observe: the C-timer
    latency (absent when the completion interrupt never fires), the
    off-line computed throughput, the read-back CRC verdict, and the
    power/temperature operating point.
    """

    region: str
    requested_freq_mhz: float
    freq_mhz: float                     #: actually synthesised clock
    bitstream_bytes: int
    temp_c: float
    interrupt_seen: bool
    crc_valid: bool
    latency_us: Optional[float] = None  #: None when no completion interrupt
    #: Why ``latency_us`` is ``None`` (e.g. ``"no completion interrupt"``):
    #: the C-timer window never closed, so there is no number to report —
    #: a reason, not a zero.  ``None`` whenever ``latency_us`` is set.
    latency_unavailable_reason: Optional[str] = None
    pdr_power_w: float = 0.0
    board_power_w: float = 0.0
    failure_modes: List[str] = field(default_factory=list)
    #: Per-phase latency breakdown (phase name -> µs), recorded as spans
    #: by the firmware sequence.  See :data:`PHASES` for the order and
    #: :data:`TIMED_PHASES` for the subset covered by ``latency_us``.
    phase_us: Dict[str, float] = field(default_factory=dict)
    #: The device that owned the largest share of this reconfiguration's
    #: simulation time (``clock_wizard``/``cpu``/``dma``/``icap``/
    #: ``scrubber``), extracted by
    #: :func:`repro.obs.profile.critical_path` from the phase spans plus
    #: the DMA→ICAP FIFO backpressure accounting.
    critical_path: Optional[str] = None
    #: Per-device share of the reconfiguration (device -> µs); the
    #: breakdown :attr:`critical_path` is the argmax of.
    device_us: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_mb_s(self) -> Optional[float]:
        """Off-line throughput: size / latency (the paper's method)."""
        if self.latency_us is None or self.latency_us <= 0:
            return None
        return self.bitstream_bytes / self.latency_us  # B/us == MB/s

    @property
    def energy_mj(self) -> Optional[float]:
        """PDR energy of the transfer in millijoules."""
        if self.latency_us is None:
            return None
        return self.pdr_power_w * self.latency_us / 1e3

    @property
    def power_efficiency_mb_per_j(self) -> Optional[float]:
        """Table II's performance-per-watt figure."""
        throughput = self.throughput_mb_s
        if throughput is None or self.pdr_power_w <= 0:
            return None
        return throughput / self.pdr_power_w

    @property
    def succeeded(self) -> bool:
        """Full success: interrupt arrived and read-back CRC matches."""
        return self.interrupt_seen and self.crc_valid

    @property
    def timed_phase_sum_us(self) -> Optional[float]:
        """Sum of the phases inside the C-timer window.

        Equals ``latency_us`` (to float rounding) when the transfer
        completed — the invariant the observability tests assert.
        """
        if not any(name in self.phase_us for name in TIMED_PHASES):
            return None
        return sum(self.phase_us.get(name, 0.0) for name in TIMED_PHASES)

    def phase_breakdown(self) -> str:
        """One-line human-readable rendering of the phase spans."""
        if not self.phase_us:
            return "no phase data"
        ordered = [name for name in PHASES if name in self.phase_us]
        ordered += [name for name in self.phase_us if name not in PHASES]
        return ", ".join(f"{name} {self.phase_us[name]:.1f}us" for name in ordered)

    def summary(self) -> str:
        latency = (
            f"{self.latency_us:9.1f} us" if self.latency_us is not None
            else "  N/A (no interrupt)"
        )
        throughput = (
            f"{self.throughput_mb_s:7.2f} MB/s" if self.throughput_mb_s is not None
            else "    N/A"
        )
        crc = "valid" if self.crc_valid else "NOT VALID"
        return (
            f"{self.region} @ {self.freq_mhz:6.1f} MHz, {self.temp_c:5.1f} C: "
            f"latency {latency}, throughput {throughput}, CRC {crc}"
        )


@dataclass
class BatchReconfigResult:
    """Outcome of a scatter-gather batch of reconfigurations.

    ``load`` is the whole chain as one firmware load: its ``region``
    joins the chain's regions with ``+``, ``bitstream_bytes`` counts
    every buffer, ``latency_us`` is the C-timer window up to the chain's
    one completion interrupt, and ``crc_valid`` holds when every region
    read back valid.
    """

    load: ReconfigResult
    #: region -> read-back CRC verdict after the whole chain.
    region_valid: Dict[str, bool] = field(default_factory=dict)
