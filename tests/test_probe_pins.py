"""The library calls of `perfbench/probe.py` keep working.

The probe calls `power_sum_det(RatMatrix, RatMatrix)` and
`vanishing_scan(RatMatrix, TwoForm)` directly, so their plain-matrix
signatures are pinned.  This runs the probe's four library points in a
child process; they write no files, and the child writes no bytecode.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_POINTS = [
    "power_sum_det_8",
    "power_sum_det_4_3_1",
    "power_sum_det_3_1_1_1_1_1",
    "vanishing_scan_3_3_1",
]


def test_probe_library_points_are_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/probe.py", "--only", *LIBRARY_POINTS],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["point"] for line in lines] == LIBRARY_POINTS
    assert all(line["correct"] is True for line in lines), lines
