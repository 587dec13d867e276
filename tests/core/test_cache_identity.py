"""Property: the process-wide caches never change an output byte.

Every system in a process shares two caches: the built partial
bitstreams (``PdrSystem._BUILD_CACHE``) and the CRC content constants
(``repro.bitstream.crc._CONSTANTS``).  A seeded corpus of 50 generated
cases — fuzz scenarios (random configs, operation mixes, corruption,
recovery) plus chaos soak cases (fault plans with SEU injection and
scrub-and-repair) — runs once with both caches empty and once more with
them warm, and the canonical-JSON serialisations of the two passes must
be **byte-identical**.
"""

import json
from collections import OrderedDict

from repro.bitstream import crc as crc_mod
from repro.chaos.soak import SoakCaseGenerator, soak_case
from repro.core import PdrSystem
from repro.verify.fuzz import ScenarioGenerator, run_scenario

FUZZ_SEED = 20260808
FUZZ_CASES = 46
SOAK_SEED = 808
SOAK_CASES = 4


def _run_corpus(fuzz_cases, soak_cases):
    records = [run_scenario(case) for case in fuzz_cases]
    records += [soak_case(**case) for case in soak_cases]
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


def test_cold_vs_warm_caches_byte_identity(monkeypatch):
    fuzz = ScenarioGenerator(seed=FUZZ_SEED)
    soak = SoakCaseGenerator(seed=SOAK_SEED)
    fuzz_cases = [fuzz.generate(i).to_mapping() for i in range(FUZZ_CASES)]
    soak_cases = [soak.generate(i).to_mapping() for i in range(SOAK_CASES)]
    assert len(fuzz_cases) + len(soak_cases) >= 50

    monkeypatch.setattr(PdrSystem, "_BUILD_CACHE", OrderedDict())
    monkeypatch.setattr(crc_mod, "_CONSTANTS", OrderedDict())
    cold = _run_corpus(fuzz_cases, soak_cases)
    # The cold pass filled both caches, so the second pass runs warm.
    assert PdrSystem._BUILD_CACHE and crc_mod._CONSTANTS
    warm = _run_corpus(fuzz_cases, soak_cases)

    assert warm == cold, "warm process caches changed campaign output bytes"
    # The corpus ran real simulations, not 50 empty records.
    assert len(cold) > 10_000
