"""Tests for the deterministic scenario fuzzer and shrinker."""

import functools
import json
from dataclasses import replace

import pytest

from repro.axi.stream import AxiStream
from repro.chaos import SoakCaseGenerator, soak_case
from repro.dma import AxiDmaEngine
from repro.exec import canonical_params
from repro.verify import (
    Scenario,
    ScenarioGenerator,
    format_report,
    run_fuzz,
    run_scenario,
    shrink_scenario,
)


# ----------------------------------------------------------- determinism --
def test_generator_is_pure_function_of_seed_and_index():
    a = ScenarioGenerator(7)
    b = ScenarioGenerator(7)
    assert [a.generate(i) for i in range(20)] == [b.generate(i) for i in range(20)]


def test_different_seeds_differ():
    assert ScenarioGenerator(1).generate(0) != ScenarioGenerator(2).generate(0)


def test_scenario_mapping_round_trip():
    scenario = ScenarioGenerator(3).generate(5)
    assert Scenario.from_mapping(scenario.to_mapping()) == scenario
    # The canonicalised tuple-of-pairs form (what SweepPoint hands to the
    # point function) must be accepted too.
    canonical = canonical_params(scenario.to_mapping())
    assert Scenario.from_mapping(canonical) == scenario


def test_from_mapping_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown scenario field"):
        Scenario.from_mapping({"index": 0, "warp_factor": 9})


def test_replay_command_is_ready_to_paste():
    scenario = Scenario(index=3, freq_mhz=312.5)
    command = scenario.replay_command()
    assert command.startswith("repro-pdr fuzz --replay '")
    assert '"freq_mhz": 312.5' in command


# --------------------------------------------------------- scenario runs --
def test_benign_scenario_is_clean():
    record = run_scenario(Scenario(index=0).to_mapping())
    assert record["violations"] == []
    assert record["succeeded_ops"] == 1
    assert record["checks"] > 10_000


# Seed-1 fuzz cases: loads that hang and corrupt at 340.5 and 341.1 MHz,
# a 333.7 MHz load recovered at 300 MHz, and 1 ms IRQ timeouts that abort
# every attempt from 407.5, 242.4 and 105 MHz.  Soak case 2 injects all
# eight fault kinds.
_FUZZ = ScenarioGenerator(1)
_MONITORED = {
    f"fuzz-case{i}": functools.partial(run_scenario, _FUZZ.generate(i).to_mapping())
    for i in (1, 2, 9, 10, 12, 18)
}
_MONITORED["soak-case2"] = functools.partial(
    soak_case, **SoakCaseGenerator(1).generate(2).to_mapping()
)


@pytest.mark.parametrize("run", list(_MONITORED.values()), ids=list(_MONITORED))
def test_monitored_records_match_the_chain(monkeypatch, run):
    """The invariant monitor leaves every buffer's path to its datapath:
    each buffer starts on the quiet run, and the record, its check count
    included, is byte-identical with every buffer forced onto the chain."""
    started = []
    run_buffer = AxiDmaEngine._run_buffer

    def counted(engine):
        started.append(run_buffer(engine))
        return started[-1]

    monkeypatch.setattr(AxiDmaEngine, "_run_buffer", counted)
    quiet = json.dumps(run(), sort_keys=True)
    assert started and all(started)
    monkeypatch.setattr(AxiDmaEngine, "_run_buffer", lambda engine: False)
    assert json.dumps(run(), sort_keys=True) == quiet


# -------------------------------------------------------------- shrinking --
def test_shrink_binary_search_toward_benign():
    """Pure-predicate shrink: failing iff freq >= 317.3 with the deep FIFO.

    The shrinker must keep the two load-bearing fields (frequency above
    the threshold, the non-default FIFO) and collapse everything else.
    """
    bug = lambda s: s.freq_mhz >= 317.3 and s.fifo_words == 4096
    scenario = Scenario(
        index=9,
        region="RP3",
        asp_kind="sha256",
        freq_mhz=390.0,
        temp_c=88.0,
        fifo_words=4096,
        ops=3,
        use_recovery=True,
        scrub_corrupt=True,
    )
    assert bug(scenario)
    minimal, evals = shrink_scenario(scenario, failing=bug)
    assert bug(minimal), "shrinking must preserve the failure"
    assert minimal.ops == 1
    assert not minimal.use_recovery and not minimal.scrub_corrupt
    assert minimal.asp_kind == "passthrough"
    assert minimal.region == "RP1"
    assert minimal.temp_c == 40.0
    assert minimal.fifo_words == 4096  # load-bearing: must survive
    assert 317.3 <= minimal.freq_mhz <= 318.4  # within tolerance of the edge
    assert evals <= 80


def test_broken_fifo_conservation_is_caught_and_shrunk(monkeypatch):
    """Acceptance criterion: flip a FIFO conservation invariant and the
    fuzzer must catch it and shrink it to a minimal reproducer."""
    real_release = AxiStream.release

    def leaky_release(self, words):
        # Hand back one word fewer than the consumer claims: the classic
        # slow FIFO-space leak.
        real_release(self, max(0, words - 1))
        self.stat_released_words += 1  # ...while the ledger says all of it

    monkeypatch.setattr(AxiStream, "release", leaky_release)
    scenario = replace(
        ScenarioGenerator(21).generate(0),
        freq_mhz=140.0,
        ops=2,
        use_recovery=False,
        scrub_corrupt=False,
        irq_timeout_us=20_000.0,
        pad_bytes=0,
    )
    record = run_scenario(scenario.to_mapping())
    assert record["violations"], "the leak must be detected"
    assert any("stream." in v for v in record["violations"])

    minimal, evals = shrink_scenario(scenario, max_evals=16)
    assert run_scenario(minimal.to_mapping())["violations"]
    # The leak reproduces everywhere, so the reproducer collapses to the
    # benign baseline: a single raw op, default geometry and fault mix.
    assert minimal.ops == 1
    assert not minimal.use_recovery and not minimal.scrub_corrupt
    assert minimal.asp_kind == "passthrough"
    assert minimal.freq_mhz == 100.0
    assert "repro-pdr fuzz --replay '" in minimal.replay_command()


# ---------------------------------------------------------------- campaign --
def test_run_fuzz_smoke_clean():
    report = run_fuzz(seed=2, cases=3, shrink=False)
    assert report.ok
    assert report.cases == 3
    assert report.total_ops >= 3
    assert report.checks > 0
    text = format_report(report)
    assert "violations: 0" in text
    assert "seed 2, 3 case(s)" in text


def _phantom_words(monkeypatch):
    """Break word conservation behind the monitor's back: every burst
    pushed onto a stream, one at a time on the chain or in bulk by a
    quiet buffer's run, queues a word the stream never carried."""
    original_push, original_settle = AxiStream.push, AxiStream.settle

    def phantom_push(self, burst):
        original_push(self, burst)
        self.stat_queued_words += 1

    def phantom_settle(self, **batch):
        self.stat_queued_words += len(batch["depths"])
        original_settle(self, **batch)

    monkeypatch.setattr(AxiStream, "push", phantom_push)
    monkeypatch.setattr(AxiStream, "settle", phantom_settle)


def test_run_fuzz_reports_and_shrinks_findings(monkeypatch):
    _phantom_words(monkeypatch)
    report = run_fuzz(seed=3, cases=1, shrink=True)
    assert not report.ok
    finding = report.findings[0]
    assert any("word_conservation" in v for v in finding["violations"])
    assert "shrunk" in finding
    assert finding["repro"].startswith("repro-pdr fuzz --replay '")
    text = format_report(report)
    assert "VIOLATIONS" in text and "repro-pdr fuzz --replay" in text


def test_cli_replay_round_trip(capsys):
    import json

    from repro.experiments.cli import main

    payload = json.dumps(Scenario(index=0).to_mapping())
    assert main(["fuzz", "--replay", payload]) == 0
    out = capsys.readouterr().out
    assert '"violations": []' in out


def test_cli_fuzz_exit_code_on_violation(monkeypatch, capsys):
    from repro.experiments.cli import main

    _phantom_words(monkeypatch)
    assert main(["fuzz", "--seed", "4", "--cases", "1", "--no-shrink"]) == 1
    assert "VIOLATIONS" in capsys.readouterr().out
