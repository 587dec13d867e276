"""Power model of the Zynq SoC during PDR (paper §IV-B, Fig. 6, Table II).

The paper measures board power with current-sense headers and reports

    P_PDR = P(f, T) − P0,     P0 = 2.2 W (board idle, PL unprogrammed, 40 °C)

and observes (Fig. 6) that the dynamic component is linear in frequency
with a temperature-independent slope, while the static component grows
super-linearly with temperature.  We model exactly that structure:

    P_PDR(f, T) = P_PS + P_leak(40 °C) · e^{β (T − 40)} + k_dyn · f

Coefficients are calibrated once against Table II (40 °C column):
slope k_dyn = 1.667 mW/MHz from the 100→280 MHz span, intercept
P_PS + P_leak(40) = 0.973 W split into the active-PS share and the PL
design's leakage.  β = 0.019/°C reproduces Fig. 6's upward fan
(≈ +0.47 W of leakage from 40 °C to 100 °C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["PowerModelParams", "PowerModel", "PowerSupply"]


@dataclass(frozen=True)
class PowerModelParams:
    """Calibrated coefficients (see module docstring)."""

    #: Whole-board idle power at 40 °C, PS idle, PL unprogrammed [W].
    p0_board_w: float = 2.2
    #: PS running the control program (CPU active, OCM/DDR traffic) [W].
    p_ps_active_w: float = 0.75
    #: PL design static/leakage power at 40 °C [W].
    p_leak_40c_w: float = 0.223
    #: Exponential leakage growth per °C.
    beta_per_c: float = 0.019
    #: Dynamic power slope [W per MHz] of the over-clocked PDR logic.
    k_dyn_w_per_mhz: float = 1.667e-3


class PowerModel:
    """Evaluates P_PDR, board power and power efficiency."""

    def __init__(self, params: PowerModelParams = PowerModelParams()):
        self.params = params

    # -- components ----------------------------------------------------------
    def dynamic_power_w(self, freq_mhz: float) -> float:
        """CV²f switching power of the PDR clock domain."""
        if freq_mhz < 0:
            raise ValueError("frequency cannot be negative")
        return self.params.k_dyn_w_per_mhz * freq_mhz

    def static_power_w(self, temp_c: float) -> float:
        """PL leakage: exponential in die temperature."""
        return self.params.p_leak_40c_w * math.exp(
            self.params.beta_per_c * (temp_c - 40.0)
        )

    # -- paper quantities ------------------------------------------------------
    def pdr_power_w(self, freq_mhz: float, temp_c: float) -> float:
        """P_PDR = P(f,T) − P0: the Zynq-only PDR power of Fig. 6."""
        return (
            self.params.p_ps_active_w
            + self.static_power_w(temp_c)
            + self.dynamic_power_w(freq_mhz)
        )

    def board_power_w(self, freq_mhz: float, temp_c: float) -> float:
        """What the current-sense headers read during a PDR run."""
        return self.params.p0_board_w + self.pdr_power_w(freq_mhz, temp_c)

    def power_efficiency_mb_per_j(
        self, throughput_mb_s: float, freq_mhz: float, temp_c: float
    ) -> float:
        """Performance-per-watt: throughput / P_PDR  [MB/J] (Table II)."""
        if throughput_mb_s < 0:
            raise ValueError("throughput cannot be negative")
        return throughput_mb_s / self.pdr_power_w(freq_mhz, temp_c)


class PowerSupply:
    """Board supply state: brownouts clamp the usable over-clock.

    A voltage droop does not stop the design, but the timing margin at a
    reduced rail no longer supports the full over-clock — firmware must
    gate any requested ICAP frequency to the brownout ceiling while the
    droop lasts.  Time comes from an injected clock's ``now`` (the
    simulator) so the supply stays a plain-data model.
    """

    def __init__(self, clock):
        self._clock = clock
        #: (ceiling_mhz, expires_ns) windows, most recent last.
        self._windows: List[Tuple[float, float]] = []
        self.brownouts = 0

    def brownout(self, ceiling_mhz: float, duration_ns: float) -> None:
        """Start a droop limiting the over-clock to ``ceiling_mhz``."""
        if ceiling_mhz <= 0:
            raise ValueError("brownout ceiling must be positive")
        if duration_ns <= 0:
            raise ValueError("brownout duration must be positive")
        self._windows.append((ceiling_mhz, self._clock.now + duration_ns))
        self.brownouts += 1

    @property
    def browned_out(self) -> bool:
        now = self._clock.now
        return any(expires > now for _, expires in self._windows)

    def ceiling_mhz(self) -> float:
        """The tightest active ceiling, or +inf when the rail is healthy."""
        now = self._clock.now
        self._windows = [w for w in self._windows if w[1] > now]
        if not self._windows:
            return math.inf
        return min(ceiling for ceiling, _ in self._windows)

    def gate_mhz(self, requested_mhz: float) -> float:
        """Clamp a requested frequency to the active brownout ceiling."""
        return min(requested_mhz, self.ceiling_mhz())
