"""Verification subsystem: runtime invariants + deterministic fuzzing.

The paper's robustness claim — over-clocking failures are *always
detected* and the platform stays correct at any operating point — is
only as strong as the simulator's own correctness.  This package is the
correctness backstop:

* :mod:`repro.verify.invariants` — an :class:`InvariantMonitor` of cheap
  always-on assertion probes wired into the DES kernel, the AXI stream,
  the DMA engine, the ICAP controller, the configuration memory and the
  resilience governor.  Attached to a :class:`~repro.core.PdrSystem` it
  checks conservation laws and protocol legality on every hot-path
  operation, for a few percent of simulation overhead.
* :mod:`repro.verify.fuzz` — a seeded, fully deterministic scenario
  generator that randomises frequency, temperature, bitstream size,
  region, FIFO depth, fault mix and IRQ-timeout budget, runs each
  scenario under the monitor, and *shrinks* any violating scenario to a
  minimal reproducer printed as a ready-to-paste CLI command.  The
  scenarios run through the CLI's sweep runner, so ``--jobs N`` and
  ``--cache`` apply, and the determinism contract every command keeps
  (serial ≡ ``--jobs N`` ≡ cached ≡ fresh-built) covers fuzz too.

Entry point: ``repro-pdr fuzz --seed S --cases N``.
"""

from .invariants import InvariantMonitor, InvariantViolation
from .fuzz import (
    FuzzReport,
    Scenario,
    ScenarioGenerator,
    format_report,
    run_fuzz,
    run_scenario,
    shrink_scenario,
)

__all__ = [
    "FuzzReport",
    "InvariantMonitor",
    "InvariantViolation",
    "Scenario",
    "ScenarioGenerator",
    "format_report",
    "run_fuzz",
    "run_scenario",
    "shrink_scenario",
]
