"""E15: memory-contention campaign — PDR throughput vs tenant load.

Sweeps a synthetic second tenant's offered memory bandwidth × DRAM page
policy and measures what the contention does to reconfiguration
latency/throughput, row-buffer locality, and per-master bandwidth
shares.  The memory system runs the bank-aware controller with the
deterministic refresh engine and a distinct precharge penalty
(``dram_trp_ns`` = 50 ns), so row conflicts price differently from
plain misses — the regime where open- vs closed-page policies separate.

Three masters genuinely contend at the DDR command multiplexer:

* ``hp0`` — the DMA bitstream fetch (sequential 1 KiB bursts; the
  open-page friendly stream the paper's throughput story rides on);
* ``cpu`` — light fixed-rate sequential CPU traffic;
* ``tenant`` — the swept load, streaming reverse-sequentially through
  its own 64 MiB window (a co-resident frame-buffer-style tenant; the
  downward walk keeps row locality but prevents its bank pointer from
  phase-locking onto the DMA's upward sweep).  All three streams share
  the same 8 banks, so row conflicts come from genuine bank collisions
  between masters — the regime where the open-page policy's row
  locality pays on every stream; the strided/hostile pattern is
  exercised by the property tests and benchmarks instead.

Every point is a module-level plain-data function run through
:class:`repro.exec.SweepRunner`, so serial and ``--jobs N`` campaigns
are byte-identical and results cache canonically.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from ..axi import AxiTrafficGenerator
from ..exec import SweepRunner, note_events
from ..fabric import instantiate_asp

from .points import asp_descriptor, make_point_system
from .table1 import WORKLOAD_ASP

__all__ = [
    "CPU_RATE_MB_S",
    "PAGE_POLICIES",
    "TENANT_RATES_MB_S",
    "contention_point",
    "format_report",
    "render_json",
    "run_contention",
]

#: Offered second-tenant loads (MB/s).  0 is the uncontended baseline;
#: the top rate saturates the tenant lane (it runs back-to-back).
TENANT_RATES_MB_S: Tuple[float, ...] = (0.0, 125.0, 250.0, 500.0, 1000.0, 2000.0)
PAGE_POLICIES: Tuple[str, ...] = ("open", "closed")
#: Fixed light CPU traffic present at every point (MB/s).
CPU_RATE_MB_S = 50.0
#: Operating point: the paper's efficiency-knee frequency at bench temp.
FREQ_MHZ = 200.0
TEMP_C = 40.0
#: Distinct precharge penalty so conflicts price above misses.
TRP_NS = 50.0


def contention_point(
    region: str,
    freq_mhz: float,
    temp_c: float,
    workload,
    tenant_rate_mb_s: float,
    page_policy: str,
    cpu_rate_mb_s: float = CPU_RATE_MB_S,
    config=None,
) -> dict:
    """One reconfiguration under tenant + CPU memory traffic.

    Plain-data in, plain-data out: crosses the ``--jobs N`` process
    boundary and caches canonically.
    """
    overrides = dict(config or {})
    overrides.setdefault("dram_page_policy", page_policy)
    overrides.setdefault("dram_refresh_mode", "engine")
    overrides.setdefault("dram_trp_ns", TRP_NS)
    system = make_point_system(region, workload, overrides)
    system.set_die_temperature(temp_c)

    generators = []
    if cpu_rate_mb_s > 0:
        generators.append(AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="cpu",
            rate_mb_s=cpu_rate_mb_s,
            pattern="sequential",
            base_addr=0x1C00_0000,
            span_bytes=8 * 1024 * 1024,
            seed=11,
        ))
    tenant = None
    if tenant_rate_mb_s > 0:
        tenant = AxiTrafficGenerator(
            system.sim,
            system.interconnect,
            master="tenant",
            rate_mb_s=tenant_rate_mb_s,
            pattern="reverse",
            base_addr=0x1800_0000,
            span_bytes=64 * 1024 * 1024,
            seed=7,
        )
        generators.append(tenant)
    for generator in generators:
        generator.start()

    asp = instantiate_asp(workload[0], list(workload[1]))
    result = system.reconfigure(region, asp, freq_mhz)
    for generator in generators:
        generator.stop()
    note_events(system.sim.events_processed)

    controller = system.dram_controller
    counts = controller.counts
    classified = counts.row_hits + counts.row_misses + counts.row_conflicts
    elapsed_ns = system.sim.now
    return {
        "label": f"{page_policy}/{tenant_rate_mb_s:g}MBps",
        "region": region,
        "freq_mhz": result.freq_mhz,
        "temp_c": temp_c,
        "page_policy": page_policy,
        "tenant_rate_mb_s": tenant_rate_mb_s,
        "tenant_achieved_mb_s": (
            tenant.bytes_moved / elapsed_ns * 1e3
            if tenant is not None and elapsed_ns > 0 else 0.0
        ),
        "cpu_rate_mb_s": cpu_rate_mb_s,
        "succeeded": result.succeeded,
        "latency_us": result.latency_us,
        "throughput_mb_s": result.throughput_mb_s,
        "row_hits": counts.row_hits,
        "row_misses": counts.row_misses,
        "row_conflicts": counts.row_conflicts,
        "row_hit_rate": counts.row_hits / classified if classified else 0.0,
        "refreshes_completed": counts.refreshes_completed,
        "refresh_stall_ns": counts.refresh_stall_ns,
        "queue_wait_ns": counts.queue_wait_ns,
        "per_master": {
            master: {
                "requests": ledger.requests,
                "bytes": ledger.bytes,
                "wait_ns": ledger.wait_ns,
            }
            for master, ledger in sorted(controller.masters.items())
        },
        "events": float(system.sim.events_processed),
    }


def run_contention(
    runner: Optional[SweepRunner] = None,
    rates: Sequence[float] = TENANT_RATES_MB_S,
    policies: Sequence[str] = PAGE_POLICIES,
    region: str = "RP1",
    freq_mhz: float = FREQ_MHZ,
    temp_c: float = TEMP_C,
) -> List[dict]:
    """Run the tenant-load × page-policy grid; records in grid order."""
    runner = runner or SweepRunner()
    workload = asp_descriptor(WORKLOAD_ASP)
    params = [
        dict(
            region=region,
            freq_mhz=freq_mhz,
            temp_c=temp_c,
            workload=workload,
            tenant_rate_mb_s=rate,
            page_policy=policy,
        )
        for policy in policies
        for rate in rates
    ]
    labels = [f"{p['page_policy']}/{p['tenant_rate_mb_s']:g}MBps" for p in params]
    return runner.map("contention", contention_point, params, labels=labels)


def format_report(records: Sequence[dict]) -> str:
    """Markdown rollup of a contention campaign."""
    lines = [
        "# Memory contention campaign (E15)",
        "",
        f"{len(records)} points: tenant load x page policy, "
        f"bank-aware DDR + refresh engine, region "
        f"{records[0]['region']} @ {records[0]['freq_mhz']:g} MHz."
        if records else "0 points.",
        "",
        "| policy | tenant MB/s | achieved | PDR latency us | PDR MB/s "
        "| hit rate | conflicts | refresh stall us | dma wait us |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for record in records:
        dma_wait_us = record["per_master"].get("hp0", {}).get("wait_ns", 0.0) / 1e3
        lines.append(
            "| {policy} | {rate:g} | {achieved:.1f} | {latency:.2f} | "
            "{mbs:.2f} | {hit:.3f} | {conflicts} | {stall:.2f} | {wait:.2f} |".format(
                policy=record["page_policy"],
                rate=record["tenant_rate_mb_s"],
                achieved=record["tenant_achieved_mb_s"],
                latency=record["latency_us"] or 0.0,
                mbs=record["throughput_mb_s"] or 0.0,
                hit=record["row_hit_rate"],
                conflicts=record["row_conflicts"],
                stall=record["refresh_stall_ns"] / 1e3,
                wait=dma_wait_us,
            )
        )
    by_policy = {}
    for record in records:
        by_policy.setdefault(record["page_policy"], []).append(record)
    lines.append("")
    for policy, rows in sorted(by_policy.items()):
        rows = sorted(rows, key=lambda r: r["tenant_rate_mb_s"])
        if len(rows) < 2:
            continue
        base, worst = rows[0], rows[-1]
        if base["throughput_mb_s"] and worst["throughput_mb_s"]:
            slowdown = base["throughput_mb_s"] / worst["throughput_mb_s"]
            lines.append(
                f"- {policy}-page: {base['throughput_mb_s']:.1f} -> "
                f"{worst['throughput_mb_s']:.1f} MB/s from 0 to "
                f"{worst['tenant_rate_mb_s']:g} MB/s tenant load "
                f"({slowdown:.2f}x slowdown)"
            )
    return "\n".join(lines) + "\n"


def render_json(records: Sequence[dict]) -> str:
    """Canonical JSON form (byte-stable across serial and --jobs N)."""
    return json.dumps(
        {"campaign": "contention", "records": list(records)},
        sort_keys=True,
        indent=2,
    ) + "\n"
