"""Experiment harnesses: one module per paper table/figure.

==========  ===============================================  ====================================
module      paper artifact                                   acceptance test
==========  ===============================================  ====================================
table1      Table I  (throughput vs. frequency)              test_table1_reproduces_all_rows
fig5        Fig. 5   (throughput/frequency plane + knee)     test_fig5_knee_and_ceiling
fig6        Fig. 6   (power vs. frequency x temperature)     test_fig6_structure
table2      Table II (power efficiency, MB/J)                test_table2_efficiency_peak
temp_stress §IV-A    (heat-gun stress matrix)                test_temp_stress_frontier_matches_paper
table3      Table III(related-work comparison) + §V scaling  test_table3_matches_paper
proposed    §VI      (SRAM PR environment, 1237.5 MB/s)      test_proposed_vs_theory
==========  ===============================================  ====================================

The acceptance tests live in ``tests/experiments/test_experiments.py``;
ablations A1-A6 in ``tests/experiments/test_ablations.py``.
"""

from . import (
    calibration,
    fig5,
    fig6,
    methodology,
    proposed,
    recovery,
    sensitivity,
    table1,
    table2,
    table3,
    temp_stress,
    workloads,
)

__all__ = [
    "calibration",
    "methodology",
    "fig5",
    "fig6",
    "proposed",
    "recovery",
    "sensitivity",
    "table1",
    "table2",
    "table3",
    "temp_stress",
    "workloads",
]
