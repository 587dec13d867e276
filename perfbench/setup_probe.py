"""Cold start: import repro and finish the first 200 MHz reconfiguration.

Run by ``run.py`` in a fresh interpreter for the ``setup_s`` metric.  It
prints the Table-I latency, so the parent can check the result.  Then it
runs calibration slices of ``refclock.py`` in this same process and
prints their median and total wall seconds, so the parent can scale the
cold start by the host's speed and leave the slices out of it.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PdrSystem  # noqa: E402
from repro.experiments.table1 import WORKLOAD_ASP  # noqa: E402

result = PdrSystem().reconfigure("RP1", WORKLOAD_ASP, 200.0)

from refclock import calibration_slice  # noqa: E402

slices = [calibration_slice() for _ in range(5)]
print(repr(result.latency_us))
print(repr(statistics.median(slices)), repr(sum(slices)))
