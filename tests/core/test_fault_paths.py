"""Regression tests for the firmware failure paths.

Covers the PR's bugfixes: the IRQ-timeout path must actually halt the
DMA and abort the ICAP transfer (previously the engines were left
running), and the measured PDR power can never go negative.
"""

import pytest

from repro.core import PdrSystem, PdrSystemConfig
from repro.fabric import FirFilterAsp
from repro.timing import FailureMode

WORKLOAD = FirFilterAsp([7, 2])


class TestIrqTimeoutAbort:
    def test_engines_quiescent_after_timeout(self):
        # 320 MHz at 40 C suppresses the completion interrupt.
        system = PdrSystem()
        result = system.reconfigure("RP2", WORKLOAD, 320.0)
        assert not result.interrupt_seen
        assert system.dma.idle
        assert not system.icap.busy.value
        assert system.dma.counts.resets == 1
        assert system.icap.counts.aborts == 1

    def test_fault_abort_phase_recorded(self):
        system = PdrSystem()
        result = system.reconfigure("RP2", WORKLOAD, 320.0)
        assert "fault_abort" in result.phase_us
        assert result.phase_us["fault_abort"] >= 0.0
        ok = system.reconfigure("RP2", WORKLOAD, 100.0)
        assert "fault_abort" not in ok.phase_us

    def test_midflight_abort_with_short_timeout(self):
        # A timeout much shorter than the transfer kills the DMA while
        # words are genuinely in flight; the abort must still drain the
        # stream and leave both engines idle.
        config = PdrSystemConfig(irq_timeout_us=100.0)
        system = PdrSystem(config=config)
        result = system.reconfigure("RP2", WORKLOAD, 100.0)
        assert not result.interrupt_seen
        assert system.dma.idle
        assert not system.icap.busy.value

    def test_system_usable_after_timeout(self):
        # The whole point of the abort: the next transfer starts clean.
        system = PdrSystem()
        failed = system.reconfigure("RP2", WORKLOAD, 320.0)
        assert not failed.succeeded
        retried = system.reconfigure("RP2", WORKLOAD, 100.0)
        assert retried.succeeded
        assert system.run_asp("RP2", [1, 0]) == [7, 2]

    def test_back_to_back_timeouts_do_not_wedge(self):
        system = PdrSystem()
        for _ in range(3):
            result = system.reconfigure("RP2", WORKLOAD, 320.0)
            assert not result.interrupt_seen
            assert system.dma.idle
        assert system.dma.counts.resets == 3


class TestPdrPowerClamp:
    def test_reconfig_result_power_never_negative(self):
        system = PdrSystem()
        for freq in (100.0, 280.0, 320.0):
            result = system.reconfigure("RP2", WORKLOAD, freq)
            assert result.pdr_power_w >= 0.0

    def test_meter_quantisation_cannot_go_negative(self):
        # Banker's rounding can push the quantised board sample below
        # the P0 baseline: board = 2.25 W at 0.5 W resolution reads
        # round(4.5) = 4 ticks = 2.0 W, i.e. 0.2 W *below* P0 = 2.2 W.
        from repro.power import CurrentSense, PowerModel, PowerModelParams

        params = PowerModelParams(
            p_ps_active_w=0.05, p_leak_40c_w=0.0, k_dyn_w_per_mhz=0.0
        )
        sense = CurrentSense(
            PowerModel(params),
            freq_source=lambda: 100.0,
            temp_source=lambda: 40.0,
            resolution_w=0.5,
        )
        assert sense.read_board_power_w() == pytest.approx(2.0)
        assert sense.read_pdr_power_w() == 0.0
