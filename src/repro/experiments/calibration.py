"""Paper reference data and the calibration constants of this reproduction.

Every experiment harness compares its measured rows against the values
printed in the paper; those published values live here, verbatim.

The *mechanistic* calibration constants (what makes the simulator land on
these numbers) are owned by the component models themselves; this module
documents where each one lives so the mapping is auditable:

====================================  =======================================
constant                              defined in
====================================  =======================================
bitstream size 528 760 B              ``repro.core.pdr_system.TABLE1_BITSTREAM_BYTES``
ICAP/stream rate 4 B/cycle            ``repro.icap.controller`` (1 word/cycle)
DMA burst 1 KiB, cmd gap 10 cycles    ``repro.dma.engine.AxiDmaEngine``
HP port 64 bit @ 150 MHz              ``repro.axi.ports.AxiHpPort``
interconnect forward 160 ns           ``repro.axi.interconnect.AxiInterconnect``
DDR row hit/miss 202/302 ns           ``repro.dram.bank.BankTiming`` (tCAS, tRCD)
driver setup 1.9 µs                   ``repro.core.pdr_system.PdrSystemConfig``
control path fmax(40°C) 305 MHz       ``repro.timing.model.default_timing_model``
data path fmax(40°C) 315 MHz          ``repro.timing.model.default_timing_model``
thermal derate 3.0e-4 /°C             ``repro.timing.model.CriticalPath``
power: 0.973 W + 1.667 mW/MHz, β=.019 ``repro.power.model.PowerModelParams``
SRAM port 1 237.5 MB/s                ``repro.sram_pr.sram.QdrSram``
====================================  =======================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_FIG5_KNEE_MHZ",
    "PAPER_MAX_THROUGHPUT_MB_S",
    "PAPER_STRESS_FAILURES",
    "PAPER_STRESS_TEMPS_C",
    "PAPER_STRESS_FREQS_MHZ",
    "PAPER_SEC6_THEORETICAL_MB_S",
    "PAPER_P0_W",
    "Table1Row",
]

#: Table I: (freq MHz) -> (latency µs or None, throughput MB/s or None,
#: crc_valid).  "N/A no interrupt" rows carry None.
Table1Row = Tuple[Optional[float], Optional[float], bool]
PAPER_TABLE1: Dict[float, Table1Row] = {
    100.0: (1325.60, 399.06, True),
    140.0: (947.40, 558.12, True),
    180.0: (737.50, 716.96, True),
    200.0: (676.30, 781.84, True),
    240.0: (671.90, 786.96, True),
    280.0: (669.20, 790.14, True),
    310.0: (None, None, True),
    320.0: (None, None, False),
    360.0: (None, None, False),
}

#: Table II (40 °C): freq -> (P_PDR W, throughput MB/s, efficiency MB/J).
PAPER_TABLE2: Dict[float, Tuple[float, float, float]] = {
    100.0: (1.14, 399.06, 351.0),
    140.0: (1.23, 558.12, 453.0),
    180.0: (1.28, 716.96, 560.0),
    200.0: (1.30, 781.84, 599.0),
    240.0: (1.36, 786.96, 577.0),
    280.0: (1.44, 790.14, 550.0),
}

#: Table III: design -> (platform, ICAP MHz, throughput MB/s).
PAPER_TABLE3: Dict[str, Tuple[str, float, float]] = {
    "VF-2012": ("Virtex-6", 210.0, 839.0),
    "HP-2011": ("Virtex-5", 133.0, 419.0),
    "HKT-2011": ("Virtex-5", 550.0, 2200.0),
    "This work": ("Zynq-7000", 280.0, 790.0),
}

#: Fig. 5: "the throughput increases linearly until about 200 MHz when
#: the curve flattens".
PAPER_FIG5_KNEE_MHZ = 200.0
PAPER_MAX_THROUGHPUT_MB_S = 790.14

#: §IV-A: stress grid and its single failing cell.
PAPER_STRESS_TEMPS_C: List[float] = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
PAPER_STRESS_FREQS_MHZ: List[float] = [100.0, 140.0, 180.0, 200.0, 240.0, 280.0, 310.0]
PAPER_STRESS_FAILURES: List[Tuple[float, float]] = [(310.0, 100.0)]

#: §VI: 550 MHz · 36 bit / 2 = 1237.5 MB/s.
PAPER_SEC6_THEORETICAL_MB_S = 1237.5

#: §IV-B: board idle baseline.
PAPER_P0_W = 2.2
