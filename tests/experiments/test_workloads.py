"""Tests for the workload generator and campaign harness."""

import pytest

from repro.core import HllFramework
from repro.experiments.workloads import (
    CampaignResult,
    DeterministicRng,
    WorkloadSpec,
    compare_icap_frequencies,
    format_report,
    generate_requests,
    make_asp_pool,
    run_campaign,
)


# ---------------------------------------------------------------------- rng --
def test_rng_is_deterministic_and_varied():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    seq_a = [a.next_u32() for _ in range(10)]
    seq_b = [b.next_u32() for _ in range(10)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 10


def test_rng_zero_seed_still_works():
    rng = DeterministicRng(0)
    assert rng.next_u32() != 0


def test_rng_uniform_range():
    rng = DeterministicRng(7)
    samples = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.4 < sum(samples) / len(samples) < 0.6


def test_weighted_choice_respects_weights():
    rng = DeterministicRng(11)
    counts = [0, 0]
    for _ in range(2000):
        counts[rng.choice_weighted([9.0, 1.0])] += 1
    assert counts[0] > 6 * counts[1]


# --------------------------------------------------------------- generation --
def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(n_jobs=0)
    with pytest.raises(ValueError):
        WorkloadSpec(popularity="gaussian")


def test_pool_has_distinct_keys():
    pool = make_asp_pool(8)
    keys = {(asp.kind, tuple(asp.params())) for asp in pool}
    assert len(keys) == 8


def test_oversized_pool_rejected():
    with pytest.raises(ValueError, match="pool"):
        make_asp_pool(20)


def test_request_generation_is_deterministic():
    spec = WorkloadSpec(n_jobs=15, seed=99)
    a = generate_requests(spec)
    b = generate_requests(spec)
    assert [r.asp_key() for r in a] == [r.asp_key() for r in b]
    assert [list(r.input_words) for r in a] == [list(r.input_words) for r in b]


def test_zipf_skews_popularity():
    spec = WorkloadSpec(n_jobs=300, pool_size=6, popularity="zipf", zipf_s=1.5)
    requests = generate_requests(spec)
    counts = {}
    for request in requests:
        counts[request.asp_key()] = counts.get(request.asp_key(), 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    # The hottest ASP dominates the coldest by a wide margin.
    assert ranked[0] > 4 * ranked[-1]


def test_payloads_respect_asp_interfaces():
    spec = WorkloadSpec(n_jobs=60, pool_size=8)
    for request in generate_requests(spec):
        if request.asp.name == "aes-128":
            assert len(request.input_words) % 4 == 0
        if request.asp.name == "matmul":
            n = request.asp.n
            assert len(request.input_words) == 2 * n * n


# ----------------------------------------------------------------- campaign --
def test_campaign_accounting():
    framework = HllFramework(icap_freq_mhz=200.0)
    spec = WorkloadSpec(n_jobs=10, pool_size=5, seed=3)
    result = run_campaign(framework, generate_requests(spec))
    assert isinstance(result, CampaignResult)
    assert result.jobs == 10
    assert 0 < result.misses <= 10
    assert result.hit_rate == pytest.approx(1 - result.misses / 10)
    assert result.reconfig_ms < result.makespan_ms
    assert result.reconfig_energy_mj > 0
    assert result.energy_per_swap_mj == pytest.approx(
        result.reconfig_energy_mj / result.misses
    )


def test_frequency_comparison_shape():
    spec = WorkloadSpec(n_jobs=12, pool_size=6, seed=5)
    results = compare_icap_frequencies((100.0, 200.0, 280.0), spec)
    # Same workload -> identical miss pattern at every frequency.
    misses = {r.misses for r in results.values()}
    assert len(misses) == 1
    # Faster ICAP -> shorter makespan; 200 MHz -> cheapest swaps.
    assert results[280.0].makespan_ms < results[200.0].makespan_ms
    assert results[200.0].makespan_ms < results[100.0].makespan_ms
    # Over-clocking to the knee roughly halves the makespan...
    assert results[100.0].makespan_ms / results[200.0].makespan_ms > 1.7
    cheapest = min(results.values(), key=lambda r: r.energy_per_swap_mj)
    assert cheapest.icap_freq_mhz == 200.0
    # ...and 200 MHz minimises the energy per swap (Table II, restated).
    assert results[200.0].energy_per_swap_mj == pytest.approx(0.887, rel=0.05)
    text = format_report(results)
    assert "sweet spot" in text
