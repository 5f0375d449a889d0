"""Run the tier-1 suite twice, with the default BLAS threads and with one, and compare.

Usage, from anywhere:

    python3 tools/tier1.py

Both runs are `python -m pytest -q --continue-on-collection-errors` at the
root of the checkout that holds this file, with its `src` in front of
PYTHONPATH and a JUnit XML report written into a temporary directory.
The second run sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, the thread count the benchmark pins.  The script
prints each run's pass, fail and skip counts and every test whose outcome
differs between the runs.  A test whose outcome moves with the BLAS thread
count is a defect of the test.  Exit status: 1 when an outcome differs or
a run writes no report, 0 otherwise, whatever the verdicts themselves.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUNS = {"default BLAS threads": {}, "one BLAS thread": ONE_THREAD}


def outcomes(report: Path) -> dict[str, str]:
    """Each test case of a JUnit XML report as {classname::name: passed|failed|skipped}."""
    out = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        tags = {child.tag for child in case}
        if tags & {"failure", "error"}:
            verdict = "failed"
        elif "skipped" in tags:
            verdict = "skipped"
        else:
            verdict = "passed"
        out[f"{case.get('classname')}::{case.get('name')}"] = verdict
    return out


def run(label: str, blas: dict[str, str], report: Path) -> dict[str, str] | None:
    """One tier-1 run; its outcomes, or None when it wrote no report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **blas)
    subprocess.run([*PYTEST, f"--junitxml={report}"], cwd=ROOT, env=env, capture_output=True)
    if not report.is_file():
        print(f"{label}: no report written")
        return None
    got = outcomes(report)
    counts = {v: sum(1 for o in got.values() if o == v) for v in ("passed", "failed", "skipped")}
    print(f"{label}: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return got


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tier1-") as tmp:
        runs = [run(label, blas, Path(tmp) / f"{label}.xml") for label, blas in RUNS.items()]
    if None in runs:
        return 1
    a, b = runs
    moved = sorted(t for t in a.keys() | b.keys() if a.get(t, "absent") != b.get(t, "absent"))
    for test in moved:
        print(f"differs: {test}: {a.get(test, 'absent')} -> {b.get(test, 'absent')}")
    print(f"{len(moved)} tests differ between the runs")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
