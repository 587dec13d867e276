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
from repro.snapshot import reset_templates

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
            "95ce71ef825a0ea698fa6cb241163f95ff80f26c25bfc2d6f099f4091c31d57d",
        ),
        (
            KILL_FLEET,
            "f5853995e2d0d0d37bafeac0e9e1708b12b9faa983c31b5cac87119052cceceb",
        ),
    ],
    ids=["table2", "fleet-kill"],
)
def test_metrics_export_pinned_across_commits(argv, digest, tmp_path, capsys):
    path = tmp_path / "metrics.json"
    # Start from no snapshot templates, as a new process would: a
    # template built in-process registers with the capture.
    reset_templates()
    try:
        assert main(list(argv) + ["--metrics-out", str(path)]) == 0
    finally:
        reset_templates()
    capsys.readouterr()
    assert canonical_digest(json.loads(path.read_text())) == digest
