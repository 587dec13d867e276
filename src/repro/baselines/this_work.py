"""Adapter exposing *this work* (the Fig. 2 DES system) behind the
baseline-controller interface, so Table III and the §V scaling
comparison exercise identical code paths for every design."""

from __future__ import annotations

from ..core import PdrSystem
from ..fabric import FirFilterAsp

from .base import BaselineResult, ReconfigController, TransferOutcome

__all__ = ["ThisWorkController"]


class ThisWorkController(ReconfigController):
    design = "This work"
    platform = "Zynq-7000"
    year = 2017
    has_crc_check = True
    nominal_mhz = 100.0

    def __init__(self):
        #: The full discrete-event system; shared across transfers so the
        #: clock wizard, DRAM state etc. persist as on the real bench.
        self.system = PdrSystem()
        self._asp = FirFilterAsp([1, 2, 3, 4])

    def transfer(self, bitstream_bytes: int, freq_mhz: float) -> BaselineResult:
        if bitstream_bytes <= 0 or freq_mhz <= 0:
            raise ValueError("bitstream size and frequency must be positive")
        # The DES system transfers its reference-size bitstream; other
        # sizes scale the measured latency's transfer component.
        result = self.system.reconfigure("RP1", self._asp, freq_mhz)
        if not result.interrupt_seen:
            outcome = (
                TransferOutcome.OK if result.crc_valid else TransferOutcome.FAILED
            )
            if outcome is TransferOutcome.FAILED:
                return self._result(
                    requested_mhz=freq_mhz,
                    effective_mhz=result.freq_mhz,
                    bitstream_bytes=bitstream_bytes,
                    outcome=TransferOutcome.FAILED,
                    notes=["CRC read-back flagged the corrupted load"],
                )
            return self._result(
                requested_mhz=freq_mhz,
                effective_mhz=result.freq_mhz,
                bitstream_bytes=bitstream_bytes,
                outcome=TransferOutcome.FAILED,
                notes=["no completion interrupt (control path past fmax)"],
            )
        scale = bitstream_bytes / result.bitstream_bytes
        latency_us = result.latency_us * scale
        return self._result(
            requested_mhz=freq_mhz,
            effective_mhz=result.freq_mhz,
            bitstream_bytes=bitstream_bytes,
            outcome=TransferOutcome.OK,
            latency_us=latency_us,
        )

    def max_working_mhz(self) -> float:
        return 280.0  # highest Table I frequency with a completion interrupt

    def table3_operating_point(self) -> float:
        return 280.0
