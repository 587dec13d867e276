"""Tests for the repro-pdr command-line interface."""

import contextlib
import io

import pytest

from repro.experiments.cli import EXPERIMENTS, main


def test_experiment_registry_covers_every_artifact():
    assert set(EXPERIMENTS) == {
        "table1",
        "table2",
        "table3",
        "fig5",
        "fig6",
        "temp-stress",
        "proposed",
        "methodology",
        "campaign",
        "sensitivity",
        "recovery",
    }


def test_cli_runs_single_experiment():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["table2"])
    out = buffer.getvalue()
    assert code == 0
    assert "Table II" in out
    assert "200 MHz" in out


def test_cli_runs_multiple_experiments():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["table3", "methodology"])
    out = buffer.getvalue()
    assert code == 0
    assert "Table III" in out
    assert "methodology" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_requires_an_argument():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("flag", ["--metrics-out", "--out"])
def test_cli_output_path_into_missing_directory_exits_two_before_running(
    tmp_path, capsys, flag
):
    path = tmp_path / "missing" / "out.json"
    experiment = "table2" if flag == "--metrics-out" else "report"
    code = main([experiment, flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # nothing ran
    assert captured.err.count("\n") == 1
    assert "does not exist" in captured.err and flag in captured.err
    assert not path.parent.exists()


def test_cli_metrics_out_writes_telemetry_json(tmp_path):
    import json

    path = tmp_path / "metrics.json"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["table2", "--metrics-out", str(path)])
    assert code == 0
    assert f"to {path}" in buffer.getvalue()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.obs/v1"
    assert doc["experiments"] == ["table2"]
    assert doc["registries"], "at least one system registry captured"
    merged = {}
    for entry in doc["registries"]:
        merged.update(entry["metrics"])
    assert merged["dma.bytes_moved"]["value"] > 0
    assert merged["dma2icap.fifo_depth_words"]["count"] > 0
    assert merged["icap.stall_cycles"]["value"] > 0
    assert merged["crc_scrub.scrubs_run"]["value"] > 0


def test_cli_trace_dump_prints_records():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["table2", "--trace-dump", "5"])
    out = buffer.getvalue()
    assert code == 0
    assert "--- trace" in out
    assert "last 5 of" in out


def test_cli_metrics_out_openmetrics(tmp_path):
    path = tmp_path / "metrics.om"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["table2", "--metrics-out", str(path), "--format", "openmetrics"])
    assert code == 0
    lines = path.read_text().rstrip().splitlines()
    assert lines[-1] == "# EOF"
    assert any(line.startswith("# TYPE repro_") for line in lines)


def test_cli_metrics_out_chrome_trace_and_profile(tmp_path):
    import json

    path = tmp_path / "trace.json"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            ["table2", "--metrics-out", str(path), "--format", "chrome-trace",
             "--profile"]
        )
    assert code == 0
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    begins = sum(1 for e in events if e["ph"] == "B")
    ends = sum(1 for e in events if e["ph"] == "E")
    assert begins == ends > 0
    out = buffer.getvalue()
    assert "sim-time profile" in out
    assert "reconfigure" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["table2", "--out", "PATH"],
        ["chaos", "--out", "PATH"],
        ["fuzz", "--out", "PATH"],
        ["fuzz", "--min-recovery", "0.5"],
        ["table2", "--boards", "3", "--seed", "9", "--no-batching"],
        ["report", "--cases", "3", "--chaos"],
        ["chaos", "--boards", "2"],
        ["fleet", "--no-shrink"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_cli_output_flag_the_command_ignores_exits_two_before_running(
    tmp_path, capsys, argv
):
    """A flag the command does not read is never silently dropped."""
    path = tmp_path / "out.json"
    code = main([str(path) if arg == "PATH" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # nothing ran
    assert captured.err.count("\n") == 1
    named, _, reason = captured.err.partition(": not read by ")
    assert named.startswith("repro-pdr: error: ")
    assert sorted(named[len("repro-pdr: error: "):].split(", ")) == sorted(
        arg for arg in argv if arg.startswith("--")
    )
    assert reason == f"'{argv[0]}'\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "--boards", "1", "--duration-ms", "2"],
        ["contention"],
        ["report"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_metrics_out_exports_campaign_telemetry(tmp_path, capsys, argv):
    import json

    path = tmp_path / "metrics.json"
    assert main(argv + ["--metrics-out", str(path)]) == 0
    assert f"to {path}" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.obs/v1"
    assert doc["experiments"] == argv[:1]
    assert doc["registries"], "at least one system registry captured"


def test_cli_chaos_cache_serves_the_rerun(tmp_path, capsys):
    for command in ("chaos", "fuzz"):
        cache = tmp_path / command
        argv = [command, "--seed", "1", "--cases", "1", "--cache", str(cache)]
        assert main(argv) == 0
        assert cache.is_dir()
        first = capsys.readouterr().out
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "1 served from cache" in captured.err


def test_cli_report_subcommand_aggregates_campaign(tmp_path):
    import json

    path = tmp_path / "campaign.json"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["report", "--out", str(path)])
    assert code == 0
    out = buffer.getvalue()
    assert "Campaign report" in out
    assert "latency_us" in out and "Critical paths" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.obs.campaign/v1"
    assert doc["points"] >= 50
    assert doc["results"]["latency_us"]["p99"] > 0
    assert sum(doc["critical_paths"].values()) == doc["points"]


def test_cli_report_includes_phase_breakdown():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(["table1"])
    out = buffer.getvalue()
    assert "firmware phase breakdown" in out
    assert "dma_transfer" in out
    assert "timed sum" in out
