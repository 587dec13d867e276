"""Concurrency stress: four partitions computing simultaneously."""

import pytest

from repro.core import HllFramework, PdrSystem
from repro.fabric import Crc32Asp, FirFilterAsp, Sha256Asp, VectorScaleAsp


def _loaded_framework():
    framework = HllFramework(icap_freq_mhz=200.0)
    asps = {
        "RP1": FirFilterAsp([1, 2, 1]),
        "RP2": VectorScaleAsp(3, 1),
        "RP3": Crc32Asp(),
        "RP4": Sha256Asp(),
    }
    from repro.core import AspRequest

    # Warm every partition so the concurrency phase is all hits.
    for asp in asps.values():
        framework.run_job(AspRequest(asp=asp, input_words=[1, 2, 3, 4]))
    return framework, asps


def test_concurrent_jobs_all_complete_with_correct_results():
    framework, asps = _loaded_framework()
    sim = framework.system.sim
    inputs = {name: list(range(1, 513)) for name in asps}
    outcomes = {}

    def job(region, asp):
        in_addr, out_addr = framework._allocate_buffers(
            type("Req", (), {"input_words": inputs[region]})()
        )
        output, times = yield sim.process(
            framework.channels[region].run_job(inputs[region], in_addr, out_addr)
        )
        outcomes[region] = (output, times)

    processes = [
        sim.process(job(region, asp)) for region, asp in asps.items()
    ]
    for process in processes:
        sim.run_until(process)

    for region, asp in asps.items():
        output, _times = outcomes[region]
        assert output == asp.process(inputs[region]), region


def test_contention_slows_but_preserves_fairness():
    """Four concurrent DMA-heavy jobs share the DDR path: each runs no
    faster than its own solo baseline, none is starved."""
    framework, asps = _loaded_framework()
    sim = framework.system.sim
    words = list(range(4096))

    # Per-region solo baselines (output sizes differ per ASP, so each
    # region is compared against itself).
    solo_ns = {}
    for index, region in enumerate(sorted(asps)):
        process = sim.process(
            framework.channels[region].run_job(
                words, 0x1A00_0000 + index * 0x10_0000, 0x1A80_0000 + index * 0x10_0000
            )
        )
        start = sim.now
        sim.run_until(process)
        solo_ns[region] = sim.now - start

    finish = {}

    def job(region, offset):
        start = sim.now
        yield sim.process(
            framework.channels[region].run_job(
                words, 0x1B00_0000 + offset, 0x1C00_0000 + offset
            )
        )
        finish[region] = sim.now - start

    processes = [
        sim.process(job(region, index * 0x10_0000))
        for index, region in enumerate(sorted(asps))
    ]
    for process in processes:
        sim.run_until(process)

    ratios = {region: finish[region] / solo_ns[region] for region in asps}
    # Under 4-way contention nothing gets faster, and round-robin keeps
    # every job within a bounded slowdown (no starvation).
    for region, ratio in ratios.items():
        assert ratio >= 0.99, (region, ratio)
        assert ratio < 4.5, (region, ratio)


def test_icap_serialises_concurrent_misses():
    """Two simultaneous jobs that both need reconfiguration queue on the
    single ICAP: their reconfigurations never overlap."""
    from repro.core import AspRequest

    framework = HllFramework(icap_freq_mhz=200.0)
    sim = framework.system.sim
    windows = []

    def miss_job(tag):
        request = AspRequest(
            asp=FirFilterAsp([tag]), input_words=[1, 2], label=f"miss{tag}"
        )
        start = sim.now
        result = yield sim.process(framework._job_sequence(request))
        # Reconstruct the reconfig window from the result timings.
        windows.append((start, start + result.reconfig_us * 1e3))

    processes = [sim.process(miss_job(1)), sim.process(miss_job(2))]
    for process in processes:
        sim.run_until(process)
    (a0, a1), (b0, b1) = sorted(windows)
    # The second reconfiguration starts only after the first finished
    # (single shared ICAP): its window is at least one transfer long
    # and the two windows cannot both start at t=0 and end together.
    assert b1 > a1
    assert b1 - b0 >= 600_000.0  # a real ~0.68 ms reconfig happened
