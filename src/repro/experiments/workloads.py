"""Synthetic ASP workloads and application-level campaigns.

The paper's introduction motivates fast PDR with on-demand ASPs: "the
same physical piece of silicon can be used to implement several ASPs,
configured on demand".  This module quantifies that story end to end:

* deterministic workload generation — streams of ASP requests with
  configurable working-set size and popularity skew (uniform or
  Zipf-like, the classic shape of acceleration-service traffic);
* campaign execution on the Fig. 1 framework, with hit/miss, makespan
  and **reconfiguration energy** accounting;
* a frequency comparison showing how the Table II conclusion (200 MHz is
  the power-efficiency sweet spot) carries through to application level:
  200 MHz minimises both the makespan *and* the energy spent per swap.

Regenerate with ``repro-pdr campaign``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..core import AspRequest, HllFramework
from ..exec import SweepRunner, note_events
from ..fabric import (
    Aes128Asp,
    Asp,
    Crc32Asp,
    FirFilterAsp,
    MatMulAsp,
    Sha256Asp,
    VectorScaleAsp,
)

from .report import ExperimentReport, format_table

__all__ = [
    "DeterministicRng",
    "WorkloadSpec",
    "CampaignResult",
    "make_asp_pool",
    "generate_requests",
    "run_campaign",
    "campaign_point",
    "compare_icap_frequencies",
    "format_report",
]


class DeterministicRng:
    """xorshift32 PRNG — reproducible without touching ``random``'s state."""

    def __init__(self, seed: int):
        self._state = (seed & 0xFFFFFFFF) or 0xDEADBEEF

    def next_u32(self) -> int:
        """Next 32-bit value."""
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x

    def uniform(self) -> float:
        """Next float in [0, 1)."""
        return self.next_u32() / 2**32

    def choice_weighted(self, weights: Sequence[float]) -> int:
        """Index drawn with probability proportional to ``weights``."""
        total = sum(weights)
        target = self.uniform() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if target < acc:
                return index
        return len(weights) - 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic request stream."""

    n_jobs: int = 40
    pool_size: int = 8          #: distinct ASPs (4 partitions -> misses)
    popularity: str = "zipf"    #: "zipf" or "uniform"
    zipf_s: float = 1.2         #: Zipf skew exponent
    input_words: int = 64       #: per-job payload
    seed: int = 2017            #: the paper's year, naturally

    def __post_init__(self) -> None:
        if self.n_jobs < 1 or self.pool_size < 1:
            raise ValueError("workload needs at least one job and one ASP")
        if self.popularity not in ("zipf", "uniform"):
            raise ValueError(f"unknown popularity model {self.popularity!r}")


def make_asp_pool(pool_size: int) -> List[Asp]:
    """A mixed pool of distinct ASPs cycling through every kind."""
    factories = [
        lambda i: FirFilterAsp([1, i + 2, 1]),
        lambda i: Aes128Asp([i + 1, i + 2, i + 3, i + 4]),
        lambda i: VectorScaleAsp(i + 3, i),
        lambda i: MatMulAsp((i % 3) + 2),
        lambda i: Crc32Asp(),
        lambda i: Sha256Asp(),
    ]
    pool: List[Asp] = []
    for index in range(pool_size):
        pool.append(factories[index % len(factories)](index))
    # CRC32/SHA256 have no parameters: multiples would alias to the same
    # ASP key, shrinking the effective pool.  Keep keys unique.
    keys = {(asp.kind, tuple(asp.params())) for asp in pool}
    if len(keys) != len(pool):
        raise ValueError(
            f"pool of {pool_size} collapsed to {len(keys)} distinct ASPs; "
            f"use pool_size <= 12"
        )
    return pool


def generate_requests(spec: WorkloadSpec) -> List[AspRequest]:
    """A deterministic request stream for ``spec``."""
    pool = make_asp_pool(spec.pool_size)
    if spec.popularity == "zipf":
        weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(pool))]
    else:
        weights = [1.0] * len(pool)
    rng = DeterministicRng(spec.seed)
    requests = []
    for job_index in range(spec.n_jobs):
        asp = pool[rng.choice_weighted(weights)]
        # Payload sized for the ASP's interface constraints.
        if asp.kind == Aes128Asp.kind:
            words = [rng.next_u32() for _ in range(((spec.input_words + 3) // 4) * 4)]
        elif asp.kind == MatMulAsp.kind:
            n = asp.n
            words = [rng.next_u32() % 1000 for _ in range(2 * n * n)]
        else:
            words = [rng.next_u32() for _ in range(spec.input_words)]
        requests.append(
            AspRequest(asp=asp, input_words=words, label=f"job{job_index}")
        )
    return requests


@dataclass
class CampaignResult:
    """Application-level outcome of one campaign."""

    icap_freq_mhz: float
    jobs: int
    misses: int
    hit_rate: float
    makespan_ms: float
    reconfig_ms: float
    reconfig_energy_mj: float

    @property
    def energy_per_swap_mj(self) -> float:
        if self.misses == 0:
            return 0.0
        return self.reconfig_energy_mj / self.misses


def run_campaign(
    framework: HllFramework, requests: Sequence[AspRequest]
) -> CampaignResult:
    """Execute a request stream and aggregate its accounting."""
    results = framework.run_jobs(list(requests))
    makespan_us = sum(result.total_us for result in results)
    energy_mj = sum(
        result.reconfig.energy_mj
        for result in results
        if result.reconfig is not None and result.reconfig.energy_mj is not None
    )
    return CampaignResult(
        icap_freq_mhz=framework.icap_freq_mhz,
        jobs=framework.jobs_run,
        misses=framework.misses,
        hit_rate=framework.hit_rate,
        makespan_ms=makespan_us / 1e3,
        reconfig_ms=framework.total_reconfig_us / 1e3,
        reconfig_energy_mj=energy_mj,
    )


def campaign_point(freq_mhz: float, spec) -> CampaignResult:
    """One full campaign on a fresh framework (sweep point).

    ``spec`` is a :class:`WorkloadSpec` field mapping, so the point stays
    plain-data addressable.
    """
    workload = WorkloadSpec(**dict(spec))
    framework = HllFramework(icap_freq_mhz=freq_mhz)
    result = run_campaign(framework, generate_requests(workload))
    note_events(framework.system.sim.events_processed)
    return result


def compare_icap_frequencies(
    frequencies: Sequence[float] = (100.0, 200.0, 280.0),
    spec: WorkloadSpec = WorkloadSpec(),
    runner: Optional[SweepRunner] = None,
) -> Dict[float, CampaignResult]:
    """The same workload at several ICAP clocks (fresh system each)."""
    results = (runner or SweepRunner()).map(
        "campaign",
        campaign_point,
        [dict(freq_mhz=freq, spec=asdict(spec)) for freq in frequencies],
        labels=[f"campaign@{freq:g}MHz" for freq in frequencies],
    )
    return dict(zip(frequencies, results))


def format_report(results: Dict[float, CampaignResult]) -> str:
    """Render the campaign comparison table and its conclusions."""
    report = ExperimentReport(
        "Application-level campaign — ASP swapping under a Zipf workload"
    )
    rows = []
    for freq in sorted(results):
        r = results[freq]
        rows.append(
            [
                f"{freq:g}",
                f"{r.jobs}",
                f"{r.misses}",
                f"{r.hit_rate:.0%}",
                f"{r.makespan_ms:.2f}",
                f"{r.reconfig_ms:.2f}",
                f"{r.reconfig_energy_mj:.2f}",
                f"{r.energy_per_swap_mj:.3f}",
            ]
        )
    report.add(
        format_table(
            [
                "ICAP MHz",
                "jobs",
                "misses",
                "hits",
                "makespan ms",
                "reconfig ms",
                "E_reconf mJ",
                "mJ/swap",
            ],
            rows,
        )
    )
    by_makespan = min(results.values(), key=lambda r: r.makespan_ms)
    by_energy = min(
        (r for r in results.values() if r.misses), key=lambda r: r.energy_per_swap_mj
    )
    report.add(
        f"fastest campaign: {by_makespan.icap_freq_mhz:g} MHz\n"
        f"cheapest swaps:   {by_energy.icap_freq_mhz:g} MHz "
        f"({by_energy.energy_per_swap_mj:.3f} mJ/swap) — Table II's 200 MHz "
        f"sweet spot, restated at application level"
    )
    return report.render()
