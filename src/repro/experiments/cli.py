"""Command-line front end: regenerate any (or every) paper artifact.

Usage::

    repro-pdr all
    repro-pdr all --jobs 4                  # parallel sweep execution
    repro-pdr all --jobs 0 --cache          # auto workers + result cache
    repro-pdr table1 table2
    repro-pdr table1 --metrics-out metrics.json --trace-dump 20
    python -m repro.experiments.cli fig5

Sweep-shaped experiments run through the :mod:`repro.exec` engine:
``--jobs N`` fans independent simulation points over N worker processes
(0 = one per CPU); results merge in point order, so the report is
byte-identical to a serial run.  ``--cache [DIR]`` additionally reuses
results across invocations (content-addressed by code + parameters).
Cached or parallel points run outside this process, so per-system
telemetry (``--metrics-out`` / ``--trace-dump``) only covers systems
built in-process — run serially without ``--cache`` for full telemetry.

``--metrics-out PATH`` exports the metrics registry of every system the
selected experiments constructed (``--format`` selects JSON, OpenMetrics
text or Perfetto-loadable Chrome trace JSON); ``--trace-dump [N]``
prints the last N (default 50) trace records of each system;
``--profile`` prints a per-system sim-time flame table.

``repro-pdr report`` runs a 56-point reconfiguration campaign and
emits the deterministic telemetry rollup (markdown to stdout, canonical
JSON via ``--out``) — byte-identical for any ``--jobs N``.  ``report``,
``fleet`` and ``contention`` write ``--out`` and no telemetry; every
other command writes ``--metrics-out`` and no ``--out``.  A flag the
selected command would not write is rejected before anything runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from ..exec import ResultCache, SweepRunner, default_cache_dir
from ..obs import TELEMETRY_BOOK

from . import (
    fig5,
    fig6,
    methodology,
    proposed,
    recovery,
    table1,
    table2,
    sensitivity,
    table3,
    temp_stress,
    workloads,
)

__all__ = ["main"]


def _run_table1(runner: SweepRunner) -> str:
    return table1.format_report(table1.run_table1(runner=runner))


def _run_fig5(runner: SweepRunner) -> str:
    return fig5.format_report(fig5.run_fig5(runner=runner))


def _run_fig6(runner: SweepRunner) -> str:
    return fig6.format_report(fig6.run_fig6(runner=runner))


def _run_table2(runner: SweepRunner) -> str:
    return table2.format_report(table2.run_table2(runner=runner))


def _run_temp_stress(runner: SweepRunner) -> str:
    return temp_stress.format_report(temp_stress.run_temp_stress(runner=runner))


def _run_table3(runner: SweepRunner) -> str:
    rows, sweeps = table3.run_table3_sweep(runner=runner)
    return table3.format_report(rows, sweeps)


def _run_proposed(runner: SweepRunner) -> str:
    return proposed.format_report(proposed.run_proposed())


def _run_methodology(runner: SweepRunner) -> str:
    return methodology.format_report(methodology.characterize_pdr_system())


def _run_campaign(runner: SweepRunner) -> str:
    return workloads.format_report(workloads.compare_icap_frequencies(runner=runner))


def _run_sensitivity(runner: SweepRunner) -> str:
    return sensitivity.format_report(sensitivity.run_sensitivity(runner=runner))


def _run_recovery(runner: SweepRunner) -> str:
    return recovery.format_report(recovery.run_recovery(runner=runner))


EXPERIMENTS: Dict[str, Callable[[SweepRunner], str]] = {
    "table1": _run_table1,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "table2": _run_table2,
    "temp-stress": _run_temp_stress,
    "table3": _run_table3,
    "proposed": _run_proposed,
    "methodology": _run_methodology,
    "campaign": _run_campaign,
    "sensitivity": _run_sensitivity,
    "recovery": _run_recovery,
}


def _report_unhandled(prefix: str, unhandled, noun: str = "case") -> None:
    """Surface processes that died with unhandled exceptions."""
    print(
        f"[{prefix}] {len(unhandled)} simulation process(es) died with "
        f"unhandled exceptions:",
        file=sys.stderr,
    )
    for index, name in unhandled:
        print(f"[{prefix}]   {noun} {index}: {name}", file=sys.stderr)


def _run_fuzz_command(args) -> int:
    """``repro-pdr fuzz``: scenario fuzzing under the invariant monitor.

    Exit status 1 when any invariant violation (or oracle mismatch)
    survives — CI treats a finding as a failure.  With
    ``--fail-on-unhandled`` (the default) a simulation process that died
    with an unhandled exception also fails the run, even when no
    invariant tripped.
    """
    import json

    from ..verify import Scenario, format_report, run_fuzz, run_scenario

    with TELEMETRY_BOOK.capture() as book:
        if args.replay is not None:
            scenario = Scenario.from_mapping(json.loads(args.replay))
            record = run_scenario(scenario.to_mapping())
            print(json.dumps(record, indent=2, sort_keys=True))
            violations = record["violations"]
            unhandled = [
                (scenario.index, name)
                for name in record["unhandled_failures"]
            ]
        else:
            report = run_fuzz(
                seed=args.seed,
                cases=args.cases,
                shrink=not args.no_shrink,
                oracle=args.oracle,
                progress=lambda line: print(f"[fuzz] {line}", file=sys.stderr),
            )
            print(format_report(report))
            violations = report.findings
            unhandled = report.unhandled_failures
    if args.trace_dump is not None:
        for line in book.tail_traces(args.trace_dump):
            print(line)
    if args.profile:
        for table in book.flame_tables():
            print(table)
    if args.metrics_out:
        book.dump(args.metrics_out, format=args.metrics_format, experiments=["fuzz"])
        print(
            f"wrote metrics for {len(book.registries)} system(s) "
            f"to {args.metrics_out}"
        )
    if violations:
        return 1
    if unhandled and args.fail_on_unhandled:
        _report_unhandled("fuzz", unhandled)
        return 1
    return 0


def _run_chaos_command(args) -> int:
    """``repro-pdr chaos``: seeded soak campaign graded against SLOs.

    Exit status 1 on any SLO breach, invariant violation or (by default)
    unhandled process failure.  ``--replay`` re-runs exactly one episode
    from its JSON case mapping and prints the full plain-data record —
    byte-identical on every invocation of the same mapping.
    """
    import json

    from ..chaos import SoakCase, SoakSlos, format_report, run_soak, soak_case

    with TELEMETRY_BOOK.capture() as book:
        if args.replay is not None:
            case = SoakCase.from_mapping(json.loads(args.replay))
            record = soak_case(**case.to_mapping())
            print(json.dumps(record, indent=2, sort_keys=True))
            failed = bool(record["violations"])
            unhandled = [
                (case.index, name) for name in record["unhandled_failures"]
            ]
        else:
            slos = SoakSlos(
                min_availability=args.min_availability,
                min_recovery_rate=args.min_recovery,
                max_mttr_p99_us=args.max_mttr_p99_us,
            )
            report = run_soak(
                seed=args.seed, cases=args.cases, jobs=args.jobs, slos=slos
            )
            print(format_report(report))
            unhandled = report.unhandled
            unhandled_reasons = {
                f"unhandled failure in process {name!r}"
                for _, name in unhandled
            }
            failed = bool(report.breaches) or any(
                reason not in unhandled_reasons
                for finding in report.findings
                for reason in finding["reasons"]
            )
    if args.trace_dump is not None:
        for line in book.tail_traces(args.trace_dump):
            print(line)
    if args.profile:
        for table in book.flame_tables():
            print(table)
    if args.metrics_out:
        book.dump(args.metrics_out, format=args.metrics_format, experiments=["chaos"])
        print(
            f"wrote metrics for {len(book.registries)} system(s) "
            f"to {args.metrics_out}"
        )
    if failed:
        return 1
    if unhandled and args.fail_on_unhandled:
        _report_unhandled("chaos", unhandled)
        return 1
    return 0


#: ``repro-pdr report`` campaign grid: 14 frequencies x 4 temperatures =
#: 56 points, spanning the paper's robust region through the failure
#: knee.  Fixed (not flag-tunable) so every invocation aggregates the
#: same campaign and reports stay comparable across runs and machines.
REPORT_FREQS_MHZ = [100.0 + 20.0 * step for step in range(14)]  # 100..360
REPORT_TEMPS_C = [40.0, 60.0, 80.0, 100.0]


def _run_report_command(args, runner: SweepRunner) -> int:
    """``repro-pdr report``: campaign rollup (markdown stdout, JSON --out)."""
    from ..obs.campaign import aggregate_campaign, render_json, render_markdown
    from .points import asp_descriptor, campaign_point
    from .table1 import WORKLOAD_ASP

    workload = asp_descriptor(WORKLOAD_ASP)
    params = []
    labels = []
    for temp_c in REPORT_TEMPS_C:
        for freq in REPORT_FREQS_MHZ:
            params.append(
                dict(
                    region="RP1", freq_mhz=freq, temp_c=temp_c,
                    workload=workload,
                )
            )
            labels.append(f"RP1@{freq:g}MHz/{temp_c:g}C")
    records = runner.map("campaign_report", campaign_point, params, labels=labels)
    report = aggregate_campaign("pdr-campaign", records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(report))
        print(
            f"wrote campaign report ({report.points} points) to {args.out}",
            file=sys.stderr,
        )
    print(render_markdown(report))
    return 0


def _run_fleet_command(args, runner: SweepRunner) -> int:
    """``repro-pdr fleet``: fleet-scale PDR service under live traffic.

    Builds the seed-deterministic open-loop workload, schedules it over
    ``--boards`` snapshot-forked boards (admission control, bounded
    queues, same-bitstream batching), executes every board through the
    sweep engine (serial ≡ ``--jobs N`` byte-identical) and prints the
    request-level SLO report.  ``--out`` writes the canonical JSON form;
    exit status 1 when a ``--max-*`` SLO target is breached.

    ``--chaos`` arms a per-board fault storm (``--chaos-intensity``,
    ``--kill-boards``, same ``--seed`` discipline) under the
    health/failover control plane every campaign runs through;
    availability is then graded against ``--min-availability``.  An
    invalid option combination is one ``repro-pdr: error:`` line and
    exit status 2, before anything runs.  ``--verify`` attaches the
    invariant monitor to every board; any violation fails the run, as
    does (by default) an unhandled dead simulation process.
    """
    from ..fleet import FleetSpec, format_report, render_json, run_fleet

    try:
        spec = FleetSpec(
            boards=args.boards,
            seed=args.seed,
            duration_ms=args.duration_ms,
            arrival=args.arrival,
            rate_per_ms=args.rate,
            queue_depth=args.queue_depth,
            batching=not args.no_batching,
            chaos=args.chaos,
            chaos_intensity=args.chaos_intensity,
            kill_boards=args.kill_boards,
            verify=args.verify,
        )
    except ValueError as exc:
        print(f"repro-pdr: error: {exc}", file=sys.stderr)
        return 2
    report = run_fleet(spec, runner=runner)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(report))
        print(
            f"wrote fleet report ({report.offered} requests) to {args.out}",
            file=sys.stderr,
        )
    print(format_report(report))
    breaches = report.slos.breaches(
        p99_target_us=args.max_p99_latency_us,
        reject_target=args.max_rejected_rate,
        availability_target=args.min_availability if args.chaos else None,
    )
    for breach in breaches:
        print(f"SLO breach: {breach}", file=sys.stderr)
    failed = bool(breaches)
    if report.verify is not None and report.verify["violations"]:
        for violation in report.verify["violations"]:
            print(f"invariant violation: {violation}", file=sys.stderr)
        failed = True
    if report.unhandled and args.fail_on_unhandled:
        _report_unhandled(
            "fleet",
            [
                (entry["board"], name)
                for entry in report.unhandled
                for name in entry["processes"]
            ],
            noun="board",
        )
        failed = True
    return 1 if failed else 0


def _run_contention_command(args, runner: SweepRunner) -> int:
    """``repro-pdr contention``: tenant-load × page-policy campaign.

    Runs the E15 grid — second-tenant offered bandwidth × DRAM page
    policy on the bank-aware memory system — and prints the markdown
    rollup.  ``--out`` writes the canonical JSON records (byte-identical
    serial and ``--jobs N``).
    """
    from .contention import format_report, render_json, run_contention

    records = run_contention(runner=runner)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(records))
        print(
            f"wrote contention campaign ({len(records)} points) to {args.out}",
            file=sys.stderr,
        )
    print(format_report(records))
    return 0


#: Commands that write ``--out`` (their canonical JSON report); every
#: other command writes ``--metrics-out`` (telemetry) instead.
_OUT_COMMANDS = ("contention", "fleet", "report")


def _ignored_output(args) -> Optional[str]:
    """Why an output flag would be silently ignored by the selected
    command, checked before any run so the caller never gets exit 0 and
    no file."""
    writers = [name for name in args.experiments if name in _OUT_COMMANDS]
    if args.metrics_out and writers:
        return (
            f"--metrics-out: '{writers[0]}' exports no telemetry "
            f"(use --out for its report)"
        )
    if args.out and not writers:
        return (
            f"--out: '{args.experiments[0]}' writes no report file "
            f"(only {'/'.join(_OUT_COMMANDS)} do)"
        )
    return None


def _unwritable_output(args) -> Optional[str]:
    """Why an output-path flag cannot be written, checked before any run
    so a bad path fails fast instead of after minutes of simulation."""
    for flag, path in (("--metrics-out", args.metrics_out), ("--out", args.out)):
        if not path:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            return f"{flag} {path}: directory {directory} does not exist"
        if os.path.isdir(path):
            return f"{flag} {path}: is a directory"
        if not os.access(directory, os.W_OK):
            return f"{flag} {path}: directory {directory} is not writable"
    return None


def main(argv=None) -> int:
    """Parse arguments and print the requested experiment reports."""
    parser = argparse.ArgumentParser(
        prog="repro-pdr",
        description=(
            "Regenerate the tables and figures of 'Robust Throughput "
            "Boosting for Low Latency Dynamic Partial Reconfiguration' "
            "(SOCC 2017) on the simulated Zynq platform."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS)
        + ["all", "chaos", "contention", "fleet", "fuzz", "report"],
        help=(
            "which paper artifacts to regenerate; 'fuzz' instead runs the "
            "deterministic scenario fuzzer under the invariant monitor; "
            "'chaos' runs a seeded fault-injection soak campaign graded "
            "against availability SLOs; 'contention' sweeps second-tenant "
            "memory load × DRAM page policy on the bank-aware memory "
            "system; 'fleet' drives a multi-board fleet "
            "with open-loop request traffic and reports request-level "
            "SLOs; 'report' aggregates a 56-point "
            "campaign into a telemetry rollup"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help=(
            "fuzz/chaos: base RNG seed (same seed => byte-identical "
            "campaign)"
        ),
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fuzz/chaos: number of generated cases "
            "(default 50 for fuzz, 10 for chaos)"
        ),
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="fuzz: report violating scenarios without shrinking them",
    )
    parser.add_argument(
        "--oracle",
        type=int,
        default=0,
        metavar="N",
        help=(
            "fuzz: replay the first N scenarios through the differential "
            "oracle (replay identity + serial-vs-parallel equivalence)"
        ),
    )
    parser.add_argument(
        "--replay",
        metavar="JSON",
        default=None,
        help=(
            "fuzz/chaos: run exactly one case from its JSON mapping (the "
            "format printed by a minimal reproducer / soak finding)"
        ),
    )
    parser.add_argument(
        "--fail-on-unhandled",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "fuzz/chaos: exit 1 (naming the dead processes) when any "
            "simulation process died with an unhandled exception "
            "(default: on)"
        ),
    )
    parser.add_argument(
        "--min-availability",
        type=float,
        default=0.70,
        metavar="FRAC",
        help=(
            "chaos: SLO floor on campaign-mean availability; "
            "fleet --chaos: SLO floor on request availability "
            "(default 0.70)"
        ),
    )
    parser.add_argument(
        "--min-recovery",
        type=float,
        default=0.95,
        metavar="FRAC",
        help=(
            "chaos: SLO floor on the fraction of injected faults fully "
            "recovered (default 0.95)"
        ),
    )
    parser.add_argument(
        "--max-mttr-p99-us",
        type=float,
        default=60_000.0,
        metavar="US",
        help="chaos: SLO ceiling on p99 repair latency (default 60000 us)",
    )
    parser.add_argument(
        "--boards",
        type=int,
        default=4,
        metavar="N",
        help="fleet: number of simulated boards (default 4)",
    )
    parser.add_argument(
        "--duration-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help="fleet: workload duration in milliseconds (default 20)",
    )
    parser.add_argument(
        "--arrival",
        choices=["poisson", "bursty"],
        default="poisson",
        help="fleet: arrival process (default poisson)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=2.0,
        metavar="PER_MS",
        help="fleet: offered load in requests per millisecond (default 2.0)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=6,
        metavar="N",
        help=(
            "fleet: bounded per-board queue; arrivals beyond it are "
            "rejected (default 6)"
        ),
    )
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help=(
            "fleet: disable same-bitstream coalescing and scatter-gather "
            "dispatch grouping"
        ),
    )
    parser.add_argument(
        "--max-p99-latency-us",
        type=float,
        default=None,
        metavar="US",
        help="fleet: SLO ceiling on p99 request latency (exit 1 on breach)",
    )
    parser.add_argument(
        "--max-rejected-rate",
        type=float,
        default=None,
        metavar="FRAC",
        help="fleet: SLO ceiling on the rejected-request rate (exit 1 on breach)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "fleet: arm a seed-deterministic fault storm under every "
            "board and execute through the resilience layer (health "
            "state machine + request failover)"
        ),
    )
    parser.add_argument(
        "--chaos-intensity",
        type=int,
        default=4,
        metavar="N",
        help="fleet: environmental faults per board in the storm (default 4)",
    )
    parser.add_argument(
        "--kill-boards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "fleet: boards killed permanently mid-run "
            "(deterministic schedule; requires --chaos)"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "fleet: attach the invariant monitor to every board system "
            "and report checks/violations (exit 1 on any violation)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sweep execution (default 1 = serial, "
            "0 = one per CPU); reports are identical regardless of N"
        ),
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "reuse sweep-point results across runs (content-addressed "
            "on-disk cache; default location "
            "~/.cache/repro-pdr/sweeps or $REPRO_SWEEP_CACHE)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write the telemetry of every simulated system to PATH "
            "(see --format; not with report, fleet or contention)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=["json", "openmetrics", "chrome-trace"],
        default="json",
        dest="metrics_format",
        help=(
            "--metrics-out serialisation: merged JSON document (default), "
            "OpenMetrics text exposition, or Chrome trace-event JSON "
            "(load in Perfetto; spans as B/E pairs, series as counters)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a sim-time flame table (hierarchical self/total span "
            "attribution) for every system that recorded spans"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=(
            "report/fleet/contention: also write the canonical JSON "
            "report to PATH"
        ),
    )
    parser.add_argument(
        "--trace-dump",
        nargs="?",
        const=50,
        type=int,
        default=None,
        metavar="N",
        help="print the last N trace records of each system (default 50)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one worker per CPU)")
    if args.cases is not None and args.cases < 1:
        parser.error("--cases must be >= 1")
    problem = _ignored_output(args) or _unwritable_output(args)
    if problem:
        print(f"repro-pdr: error: {problem}", file=sys.stderr)
        return 2

    if "fuzz" in args.experiments:
        if len(args.experiments) != 1:
            parser.error("'fuzz' cannot be combined with other experiments")
        if args.cases is None:
            args.cases = 50
        return _run_fuzz_command(args)

    if "chaos" in args.experiments:
        if len(args.experiments) != 1:
            parser.error("'chaos' cannot be combined with other experiments")
        if args.cases is None:
            args.cases = 10
        return _run_chaos_command(args)

    cache = None
    if args.cache is not None:
        cache = ResultCache(args.cache or default_cache_dir())
    runner = SweepRunner(jobs=args.jobs, cache=cache)

    if "fleet" in args.experiments:
        if len(args.experiments) != 1:
            parser.error("'fleet' cannot be combined with other experiments")
        return _run_fleet_command(args, runner)

    if "report" in args.experiments:
        if len(args.experiments) != 1:
            parser.error("'report' cannot be combined with other experiments")
        return _run_report_command(args, runner)

    if "contention" in args.experiments:
        if len(args.experiments) != 1:
            parser.error(
                "'contention' cannot be combined with other experiments"
            )
        return _run_contention_command(args, runner)

    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    with TELEMETRY_BOOK.capture() as book:
        for name in names:
            print(EXPERIMENTS[name](runner))
    simulated = sum(result.simulated for result in runner.history)
    hits = sum(result.cache_hits for result in runner.history)
    if hits:
        print(
            f"[sweeps] {simulated} point(s) simulated, "
            f"{hits} served from cache ({runner.cache.root})",
            file=sys.stderr,
        )
    if args.trace_dump is not None:
        for line in book.tail_traces(args.trace_dump):
            print(line)
    if args.profile:
        for table in book.flame_tables():
            print(table)
    if args.metrics_out:
        book.dump(args.metrics_out, format=args.metrics_format, experiments=names)
        print(
            f"wrote metrics for {len(book.registries)} system(s) "
            f"to {args.metrics_out}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
