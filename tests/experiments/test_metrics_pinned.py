"""Telemetry exports pinned across commits.

The determinism contract holds a ``--metrics-out`` file to a rerun of
the same commit.  These digests hold it to earlier commits: a refactor
of how the devices keep or export their counts must reproduce every
value and every metric name.  The ``sim.*`` kernel statistics are left
out, because they move with every kernel change.  A change that moves
a device count re-records the digest here and gives the reason in
CHANGES.md, as for the pinned fleet report digests.
"""

import hashlib
import json

import pytest

from repro.experiments.cli import main

KILL_FLEET = (
    "fleet --boards 4 --seed 17 --duration-ms 14 "
    "--chaos --chaos-intensity 6 --kill-boards 1"
).split()


def canonical_digest(doc) -> str:
    """SHA-256 of the export with every ``sim.*`` metric dropped."""
    for registry in doc["registries"]:
        registry["metrics"] = {
            name: data
            for name, data in registry["metrics"].items()
            if not name.startswith("sim.")
        }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["table2"],
            "64f37e25c941cd95782b8f3adb95db7a775583ad0e21dda75691d6afa2fda1a0",
        ),
        (
            KILL_FLEET,
            "3d854353ec8a0d007c10e902130e3da9a02f4e3ec31691131ebd41fa0cdd2fad",
        ),
    ],
    ids=["table2", "fleet-kill"],
)
def test_metrics_export_pinned_across_commits(argv, digest, tmp_path, capsys):
    path = tmp_path / "metrics.json"
    assert main(list(argv) + ["--metrics-out", str(path)]) == 0
    capsys.readouterr()
    assert canonical_digest(json.loads(path.read_text())) == digest
