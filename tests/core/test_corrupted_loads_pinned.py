"""Corrupted loads pinned across commits.

Past the data path's fmax the over-clock corruptor flips configuration
words and the CRC read-back flags the load (Table I, §IV-A).  Which
words flip, how the corrupted packet headers decode and what lands in
the configuration memory are all deterministic, so each load's whole
outcome is pinned here: the result record, the ICAP counts, the final
configuration-port flags with its CRC value, the configuration memory
and the kernel event count.  A change to the corruptor, the ICAP feed
path or the configuration CRC that moves any of them fails here.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.points import asp_descriptor, make_point_system
from repro.experiments.table1 import WORKLOAD_ASP
from repro.fabric import instantiate_asp

REGION = "RP1"


def load_digest(freq_mhz: float, temp_c: float) -> str:
    """SHA-256 prefix of one Table-I load's canonical outcome."""
    workload = asp_descriptor(WORKLOAD_ASP)
    system = make_point_system(REGION, workload)
    system.set_die_temperature(temp_c)
    result = system.reconfigure(
        REGION, instantiate_asp(workload[0], list(workload[1])), freq_mhz
    )
    port = system.icap.port
    memory = system.memory
    image = memory.read_frames_packed(0, memory.layout.total_frames)
    doc = {
        "result": dataclasses.asdict(result),
        "icap": dict(vars(system.icap.counts)),
        "port": {
            "synced": port.synced,
            "desynced": port.desynced,
            "wcfg_active": port.wcfg_active,
            "crc_error": port.crc_error,
            "idcode_error": port.idcode_error,
            "frames_committed": port.frames_committed,
            "words_consumed": port.words_consumed,
            "crc": port.crc.value,
        },
        "memory": hashlib.sha256(image).hexdigest(),
        "events": system.sim.events_processed,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "freq_mhz, temp_c, digest",
    [
        # The nine CRC-invalid points of the Table-I grid.
        (310.0, 100.0, "be73c57beda5a46c"),
        (320.0, 40.0, "c6867626b6dc5df7"),
        (320.0, 60.0, "a1f05e98903de779"),
        (320.0, 80.0, "d780e96548287afc"),
        (320.0, 100.0, "cb77f7b63262e7d1"),
        (360.0, 40.0, "8814d49e88147ff8"),
        (360.0, 60.0, "22e93502decca333"),
        (360.0, 80.0, "51582024fda4f868"),
        (360.0, 100.0, "70c2c1404367bbcb"),
        # Off the grid: sparse, mid and dense corruption.
        (330.0, 40.0, "de40b1162183200b"),
        (340.0, 80.0, "b695be9512860cdc"),
        (350.0, 60.0, "fa11b69077896834"),
    ],
)
def test_corrupted_load_is_pinned(freq_mhz, temp_c, digest):
    assert load_digest(freq_mhz, temp_c) == digest
