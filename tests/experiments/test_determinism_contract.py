"""The determinism contract, held for every ``repro-pdr`` command.

Every campaign the CLI runs must print the same bytes however it runs:
serially, over ``--jobs 2`` worker processes filling a result cache,
served back from that cache, and with snapshot forking disabled
(``REPRO_SNAPSHOTS=0``: every system built fresh).  Exit code, stdout
and the ``--out`` report must be equal across all of those legs.

Each row is an argv plus the flags its command takes: only rows whose
command takes ``--jobs`` get the parallel and cached legs, and only rows
whose command writes ``--out`` compare a report file.  A row marked
``--metrics-out`` also exports its telemetry serially with snapshot forking
on and off: a forked system must export what a fresh one does, so the two
runs and their files must be equal.
"""

import json

import pytest

from repro.chaos import SoakCaseGenerator
from repro.experiments.cli import main
from repro.verify.fuzz import ScenarioGenerator

#: A sweep command: parallel and cached legs, no report file.
SWEEP = ("--jobs", "--cache")
#: A campaign that also writes its canonical JSON report.
REPORT = SWEEP + ("--out",)
#: Also compare the telemetry export with snapshot forking on and off.
METRICS = ("--metrics-out",)

FUZZ_CASE = json.dumps(ScenarioGenerator(11).generate(0).to_mapping())
SOAK_CASE = json.dumps(SoakCaseGenerator(1).generate(0).to_mapping())
KILL_FLEET = (
    "fleet --boards 4 --seed 17 --duration-ms 14 "
    "--chaos --chaos-intensity 6 --kill-boards 1"
).split()

ROWS = {
    "table2-fig5": (["table2", "fig5"], SWEEP + METRICS),
    "fuzz": (["fuzz", "--seed", "1", "--cases", "2"], SWEEP + METRICS),
    "fuzz-replay": (["fuzz", "--replay", FUZZ_CASE], ()),
    "chaos": (["chaos", "--seed", "1", "--cases", "2"], SWEEP),
    "chaos-replay": (["chaos", "--replay", SOAK_CASE], ()),
    "report": (["report"], REPORT),
    "fleet": ("fleet --boards 2 --seed 1 --duration-ms 10".split(), REPORT),
    "fleet-bursty": (
        "fleet --boards 2 --seed 4 --duration-ms 10 --arrival bursty".split(),
        REPORT,
    ),
    "fleet-kill": (KILL_FLEET, REPORT + METRICS),
    "contention": (["contention"], REPORT),
}


@pytest.mark.parametrize("argv, flags", list(ROWS.values()), ids=list(ROWS))
def test_contract(argv, flags, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.json"

    def run(*extra):
        args = list(argv) + list(extra)
        if "--out" in flags:
            args += ["--out", str(out)]
        code = main(args)
        captured = capsys.readouterr()
        report = out.read_bytes() if "--out" in flags else None
        return (code, captured.out, report), captured.err

    if "--metrics-out" in flags:
        metrics = tmp_path / "metrics.json"
        exports = {}
        for snapshots in ("0", "1"):
            monkeypatch.setenv("REPRO_SNAPSHOTS", snapshots)
            result, _ = run("--metrics-out", str(metrics))
            exports[snapshots] = result, metrics.read_bytes()
        assert exports["1"] == exports["0"]

    serial, _ = run()
    legs = {}
    if "--jobs" in flags:
        cache = str(tmp_path / "cache")
        legs["--jobs 2 --cache"], _ = run("--jobs", "2", "--cache", cache)
        legs["--cache rerun"], err = run("--cache", cache)
        assert "served from cache" in err
    monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
    legs["REPRO_SNAPSHOTS=0"], _ = run()
    for leg, result in legs.items():
        assert result == serial, f"{leg} diverged from the serial run"
