"""Command-line front end: regenerate any (or every) paper artifact.

Usage::

    repro-pdr all
    repro-pdr all --jobs 4                  # parallel sweep execution
    repro-pdr all --jobs 0 --cache          # auto workers + result cache
    repro-pdr table1 table2
    repro-pdr table1 --metrics-out metrics.json --trace-dump 20
    python -m repro.experiments.cli fig5

Every command is one run function plus the flags it reads: the paper
artifacts of :data:`EXPERIMENTS` (combinable on one command line) and
the campaigns of :data:`COMMANDS` (each runs alone).  :func:`main` owns
the rest, once for every command: one :class:`~repro.exec.SweepRunner`
(``--jobs N`` fans points over N processes, 0 = one per CPU, and merges
them in point order, so output is byte-identical to a serial run;
``--cache [DIR]`` reuses results across invocations); telemetry capture
and export (``--metrics-out`` in the ``--format`` of choice,
``--trace-dump [N]``, ``--profile``; it covers systems built in this
process, so run serially without ``--cache`` for all of them); ``--out``;
the stderr lines that fail a run; and the exit code.

A flag the selected command does not read, set away from its default,
is rejected before anything runs: one ``repro-pdr: error:`` line and
exit status 2.  So are an unwritable output path and an invalid fleet.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

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


#: Paper artifacts: name -> the report it prints, given the shared runner.
EXPERIMENTS: Dict[str, Callable[[SweepRunner], str]] = {
    "table1": lambda runner: table1.format_report(table1.run_table1(runner=runner)),
    "fig5": lambda runner: fig5.format_report(fig5.run_fig5(runner=runner)),
    "fig6": lambda runner: fig6.format_report(fig6.run_fig6(runner=runner)),
    "table2": lambda runner: table2.format_report(table2.run_table2(runner=runner)),
    "temp-stress": lambda runner: temp_stress.format_report(
        temp_stress.run_temp_stress(runner=runner)
    ),
    "table3": lambda runner: table3.format_report(
        *table3.run_table3_sweep(runner=runner)
    ),
    "proposed": lambda runner: proposed.format_report(proposed.run_proposed()),
    "methodology": lambda runner: methodology.format_report(
        methodology.characterize_pdr_system()
    ),
    "campaign": lambda runner: workloads.format_report(
        workloads.compare_icap_frequencies(runner=runner)
    ),
    "sensitivity": lambda runner: sensitivity.format_report(
        sensitivity.run_sensitivity(runner=runner)
    ),
    "recovery": lambda runner: recovery.format_report(
        recovery.run_recovery(runner=runner)
    ),
}


class _Outcome(NamedTuple):
    """What a command hands to :func:`main`'s shared tail."""

    #: ``(canonical JSON, what it is)`` for ``--out``, or None.
    out: Optional[Tuple[str, str]] = None
    #: stderr lines that fail the run (SLO breaches, invariant violations).
    errors: Sequence[str] = ()
    failed: bool = False
    #: ``"case 3: <process>"`` for every process that died unhandled.
    unhandled: Sequence[str] = ()


def _run_artifacts(args, runner: SweepRunner) -> _Outcome:
    """Paper artifacts: print each selected report in turn."""
    for name in args.experiments:
        print(EXPERIMENTS[name](runner))
    return _Outcome()


def _replayed(index: int, record: dict) -> _Outcome:
    """Print one replayed case's full plain-data record."""
    print(json.dumps(record, indent=2, sort_keys=True))
    return _Outcome(
        failed=bool(record["violations"]),
        unhandled=[f"case {index}: {name}" for name in record["unhandled_failures"]],
    )


def _run_fuzz(args, runner: SweepRunner) -> _Outcome:
    """``fuzz``: seeded scenarios under the invariant monitor; fails on
    any invariant violation."""
    from ..verify import Scenario, format_report, run_fuzz, run_scenario

    if args.replay is not None:
        scenario = Scenario.from_mapping(json.loads(args.replay))
        return _replayed(scenario.index, run_scenario(scenario.to_mapping()))
    report = run_fuzz(
        seed=args.seed,
        cases=args.cases or 50,
        shrink=not args.no_shrink,
        progress=lambda line: print(f"[fuzz] {line}", file=sys.stderr),
        runner=runner,
    )
    print(format_report(report))
    return _Outcome(
        failed=bool(report.findings),
        unhandled=[
            f"case {index}: {name}" for index, name in report.unhandled_failures
        ],
    )


def _run_chaos(args, runner: SweepRunner) -> _Outcome:
    """``chaos``: seeded soak episodes graded against availability SLOs;
    fails on any SLO breach or invariant violation."""
    from ..chaos import SoakCase, SoakSlos, format_report, run_soak, soak_case

    if args.replay is not None:
        case = SoakCase.from_mapping(json.loads(args.replay))
        return _replayed(case.index, soak_case(**case.to_mapping()))
    slos = SoakSlos(
        min_availability=args.min_availability,
        min_recovery_rate=args.min_recovery,
        max_mttr_p99_us=args.max_mttr_p99_us,
    )
    report = run_soak(seed=args.seed, cases=args.cases or 10, slos=slos, runner=runner)
    print(format_report(report))
    # A dead process is a finding too, but --fail-on-unhandled judges it.
    dead = {f"unhandled failure in process {name!r}" for _, name in report.unhandled}
    return _Outcome(
        failed=bool(report.breaches) or any(
            reason not in dead
            for finding in report.findings
            for reason in finding["reasons"]
        ),
        unhandled=[f"case {index}: {name}" for index, name in report.unhandled],
    )


#: ``repro-pdr report`` campaign grid: 14 frequencies x 4 temperatures =
#: 56 points, spanning the paper's robust region through the failure
#: knee.  Fixed (not flag-tunable) so every invocation aggregates the
#: same campaign and reports stay comparable across runs and machines.
REPORT_FREQS_MHZ = [100.0 + 20.0 * step for step in range(14)]  # 100..360
REPORT_TEMPS_C = [40.0, 60.0, 80.0, 100.0]


def _run_report(args, runner: SweepRunner) -> _Outcome:
    """``report``: 56-point campaign rollup (markdown, JSON for --out)."""
    from ..obs.campaign import aggregate_campaign, render_json, render_markdown
    from .points import asp_descriptor, campaign_point
    from .table1 import WORKLOAD_ASP

    workload = asp_descriptor(WORKLOAD_ASP)
    grid = [(freq, temp) for temp in REPORT_TEMPS_C for freq in REPORT_FREQS_MHZ]
    records = runner.map(
        "campaign_report",
        campaign_point,
        [dict(region="RP1", freq_mhz=f, temp_c=t, workload=workload) for f, t in grid],
        labels=[f"RP1@{f:g}MHz/{t:g}C" for f, t in grid],
    )
    report = aggregate_campaign("pdr-campaign", records)
    print(render_markdown(report))
    return _Outcome(
        out=(render_json(report), f"campaign report ({report.points} points)")
    )


def _fleet_spec(args):
    """The fleet options as a ``FleetSpec`` (``ValueError`` if invalid)."""
    from ..fleet import FleetSpec

    return FleetSpec(
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


def _run_fleet(args, runner: SweepRunner) -> _Outcome:
    """``fleet``: seeded open-loop traffic over ``--boards`` boards.

    ``--chaos`` arms a per-board fault storm under the health/failover
    control plane and grades availability against ``--min-availability``.
    Fails on a breached ``--max-*`` SLO or, under ``--verify``, any
    invariant violation.
    """
    from ..fleet import format_report, render_json, run_fleet

    report = run_fleet(_fleet_spec(args), runner=runner)
    print(format_report(report))
    breaches = report.slos.breaches(
        p99_target_us=args.max_p99_latency_us,
        reject_target=args.max_rejected_rate,
        availability_target=args.min_availability if args.chaos else None,
    )
    violations = report.verify["violations"] if report.verify is not None else []
    return _Outcome(
        out=(render_json(report), f"fleet report ({report.offered} requests)"),
        errors=[f"SLO breach: {breach}" for breach in breaches]
        + [f"invariant violation: {violation}" for violation in violations],
        unhandled=[
            f"board {entry['board']}: {name}"
            for entry in report.unhandled
            for name in entry["processes"]
        ],
    )


def _run_contention(args, runner: SweepRunner) -> _Outcome:
    """``contention``: the E15 tenant-load x DRAM page-policy grid on the
    bank-aware memory system (markdown rollup, JSON records for --out)."""
    from .contention import format_report, render_json, run_contention

    records = run_contention(runner=runner)
    print(format_report(records))
    return _Outcome(
        out=(render_json(records), f"contention campaign ({len(records)} points)")
    )


#: Campaign commands, each run alone: run function and the flags it reads.
COMMANDS: Dict[str, Tuple[Callable[..., _Outcome], str]] = {
    "chaos": (
        _run_chaos,
        "--seed --cases --replay --min-availability --min-recovery "
        "--max-mttr-p99-us --fail-on-unhandled --jobs --cache",
    ),
    "contention": (_run_contention, "--jobs --cache --out"),
    "fleet": (
        _run_fleet,
        "--seed --boards --duration-ms --arrival --rate --queue-depth "
        "--no-batching --max-p99-latency-us --max-rejected-rate "
        "--min-availability --chaos --chaos-intensity --kill-boards "
        "--verify --fail-on-unhandled --jobs --cache --out",
    ),
    "fuzz": (
        _run_fuzz,
        "--seed --cases --no-shrink --replay --fail-on-unhandled --jobs --cache",
    ),
    "report": (_run_report, "--jobs --cache --out"),
}
#: The paper artifacts (combinable on one command line).
_ARTIFACTS = (_run_artifacts, "--jobs --cache")
#: Flags of the shared telemetry tail, read by every command.
_TELEMETRY = "--metrics-out --format --profile --trace-dump"


def _problem(parser, args, name: str, reads: str) -> Optional[str]:
    """Why this invocation cannot run: a flag the command does not read,
    an unwritable output path or an invalid fleet."""
    accepted = (reads + " " + _TELEMETRY).split()
    given = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if dest != "experiments" and value != parser.get_default(dest)
    ]
    unread = [flag for flag in given if flag not in accepted]
    if unread:
        return f"{', '.join(unread)}: not read by '{name}'"
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
    if name == "fleet":
        try:
            _fleet_spec(args)
        except ValueError as exc:
            return str(exc)
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
        choices=sorted(EXPERIMENTS) + ["all"] + sorted(COMMANDS),
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
        help="fuzz/chaos/fleet: base RNG seed (same seed => same bytes)",
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
            "fuzz/chaos/fleet: exit 1 (naming the dead processes) when any "
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
        help="write the telemetry of every simulated system to PATH (see --format)",
    )
    parser.add_argument(
        "--format",
        choices=["json", "openmetrics", "chrome-trace"],
        default="json",
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
    campaigns = [name for name in args.experiments if name in COMMANDS]
    if campaigns and len(args.experiments) != 1:
        parser.error(f"'{campaigns[0]}' cannot be combined with other experiments")
    if "all" in args.experiments:
        args.experiments = sorted(EXPERIMENTS)
    name = args.experiments[0]
    run, reads = COMMANDS.get(name, _ARTIFACTS)
    problem = _problem(parser, args, name, reads)
    if problem:
        print(f"repro-pdr: error: {problem}", file=sys.stderr)
        return 2

    cache = None
    if args.cache is not None:
        cache = ResultCache(args.cache or default_cache_dir())
    runner = SweepRunner(jobs=args.jobs, cache=cache)
    # A capture keeps every system alive until exit: only capture on request.
    telemetry = args.metrics_out or args.profile or args.trace_dump is not None
    with TELEMETRY_BOOK.capture() if telemetry else contextlib.nullcontext() as book:
        outcome = run(args, runner)
    if args.out:
        text, what = outcome.out
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {what} to {args.out}", file=sys.stderr)
    hits = sum(result.cache_hits for result in runner.history)
    if hits:
        simulated = sum(result.simulated for result in runner.history)
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
        book.dump(args.metrics_out, format=args.format, experiments=args.experiments)
        print(
            f"wrote metrics for {len(book.registries)} system(s) "
            f"to {args.metrics_out}"
        )
    for line in outcome.errors:
        print(line, file=sys.stderr)
    failed = outcome.failed or bool(outcome.errors)
    if outcome.unhandled and args.fail_on_unhandled:
        print(
            f"[{name}] {len(outcome.unhandled)} simulation process(es) died "
            f"with unhandled exceptions:",
            file=sys.stderr,
        )
        for entry in outcome.unhandled:
            print(f"[{name}]   {entry}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
