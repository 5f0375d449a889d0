"""Compare what two psifrac source trees write for a fixed list of invocations.

Usage, from anywhere:

    python3 tools/byte_identity.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (a `git archive` will do).
Every invocation runs once per tree in a fresh interpreter, with that
tree's `src` on PYTHONPATH, BLAS pinned to one thread and `--output-dir
out` inside a fresh working directory, so paths printed by the run are the
same for both trees.  Then the exit codes, stdout, stderr and every file
written are compared byte for byte.  A CSV that differs is named with the
columns that differ and the number of rows where they do; a JSON file with
the keys that differ and both values.  A report's `timings`, wall times
that differ on every run, are left out of the comparison.  Exit status: 0
when every output is identical, 1 otherwise.

The list: the benchmark's nine invocations at seed 1 (from
`perfbench/workloads.py` next to this file); `sweep --alpha 0.75
--grid-n 129`; `solve --grid-n 513 --lambda 50` from below and from above;
`eigen --alpha 0.75 --grid-n 129` and `verify --grid-n 257 --lambda 100`
for each of the four psi; `verify --grid-n 769 --lambda 110`; `eigen
--grid-n 12`, an even grid at alpha = 1, where the modes have both
parities about the midpoint; at
uniform grids whose nodes are not an exact arithmetic progression (so the
tent table's last bits may move when its construction does), `eigen
--alpha 0.75 --grid-n 1000` and `verify --alpha 0.75 --grid-n 769
--lambda 30`; `sweep --alpha 0.75 --grid-n 129 --psi square`, Picard
with the dense tent table's block solves on a non-uniform grid;
`solve --alpha 0.75 --grid-n 1025 --lambda 30`, one Picard solve with
the uniform grid's FFT solves at the benchmark's size; `convergence
--alpha 0.75 --psi square` and `convergence --alpha 0.6 --beta 1 --psi
exp_minus_one`, the nodal calculus's block loop on non-uniform grids;
`convergence` and `convergence --psi log1p` at the default alpha = 1,
the stencil applied to the identity on a uniform and a non-uniform grid;
and, so that a change to the catalogs shows, `solve --grid-n 257
--lambda 50` at alpha = 1 and at alpha = 0.75 with each M and h other
than the defaults (`--m affine --zeta-inf 3`, `--m saturating --zeta-inf
3`, `--h log1p`, `--h saturating_linear`, `--h zero`), and `sweep --alpha
0.75 --grid-n 129 --m affine --zeta-inf 3 --h saturating_linear`.  The
solves' energies hold the affine member at its cap, so only the sweep's
rows show its slope.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

PSIS = ("identity", "exp_minus_one", "square", "log1p")
# every catalog M and h but the default constant M and sqrt h
CATALOG = (
    ("--m", "affine", "--zeta-inf", "3"),
    ("--m", "saturating", "--zeta-inf", "3"),
    ("--h", "log1p"),
    ("--h", "saturating_linear"),
    ("--h", "zero"),
)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN = "import sys; from psifrac.cli import main; sys.exit(main(sys.argv[1:]))"


def invocations() -> list[tuple[str, ...]]:
    out = [inv.argv for name in sorted(WORKLOADS) for inv in WORKLOADS[name].invocations(1)]
    out.append(("sweep", "--alpha", "0.75", "--grid-n", "129"))
    out.append(("solve", "--grid-n", "513", "--lambda", "50"))
    out.append(("solve", "--grid-n", "513", "--lambda", "50", "--from-super"))
    out += [("eigen", "--alpha", "0.75", "--grid-n", "129", "--psi", psi) for psi in PSIS]
    out += [("verify", "--grid-n", "257", "--lambda", "100", "--psi", psi) for psi in PSIS]
    out.append(("verify", "--grid-n", "769", "--lambda", "110"))
    out.append(("eigen", "--grid-n", "12"))
    out.append(("eigen", "--alpha", "0.75", "--grid-n", "1000"))
    out.append(("verify", "--alpha", "0.75", "--grid-n", "769", "--lambda", "30"))
    out.append(("sweep", "--alpha", "0.75", "--grid-n", "129", "--psi", "square"))
    out.append(("solve", "--alpha", "0.75", "--grid-n", "1025", "--lambda", "30"))
    out.append(("convergence", "--alpha", "0.75", "--psi", "square"))
    out.append(("convergence", "--alpha", "0.6", "--beta", "1", "--psi", "exp_minus_one"))
    out.append(("convergence",))
    out.append(("convergence", "--psi", "log1p"))
    for alpha in ("1", "0.75"):
        solve = ("solve", "--alpha", alpha, "--grid-n", "257", "--lambda", "50")
        out += [solve + flags for flags in CATALOG]
    sweep = ("sweep", "--alpha", "0.75", "--grid-n", "129")
    out.append(sweep + CATALOG[0] + CATALOG[3])
    return out


def run(tree: Path, argv: tuple[str, ...], cwd: Path) -> dict[str, bytes]:
    """Run one invocation in cwd; its outputs by name, exit code, stdout and stderr included."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv, "--output-dir", "out"],
        cwd=cwd, env=env, capture_output=True, check=False,
    )  # fmt: skip
    got = {"<exit code>": str(done.returncode).encode()}
    got.update({"<stdout>": done.stdout, "<stderr>": done.stderr})
    out = cwd / "out"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                got[str(path.relative_to(out))] = path.read_bytes()
    return got


def csv_difference(a: bytes, b: bytes) -> str:
    """The columns in which two CSV files differ, with the rows that differ in each."""
    ra = list(csv.reader(io.StringIO(a.decode())))
    rb = list(csv.reader(io.StringIO(b.decode())))
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return f"header or row count differs ({len(ra)} against {len(rb)} lines)"
    parts = []
    for j, name in enumerate(ra[0]):
        rows = [i for i in range(1, len(ra)) if ra[i][j : j + 1] != rb[i][j : j + 1]]
        if rows:
            parts.append(
                f"column {name!r} in {len(rows)} of {len(ra) - 1} rows "
                f"(first row {rows[0]}{_relative_gap(ra, rb, j)})"
            )
    return "; ".join(parts) or "the bytes differ, not the values"


def _relative_gap(ra: list[list[str]], rb: list[list[str]], j: int) -> str:
    """The largest change of a numeric column, relative to its largest magnitude."""
    try:
        a = [float(row[j]) for row in ra[1:]]
        b = [float(row[j]) for row in rb[1:]]
    except (ValueError, IndexError):
        return ""
    top = max(map(abs, a + b))
    gap = max(abs(x - y) for x, y in zip(a, b))
    return f", largest change {gap / top:.2g} of the column's sup" if top else ""


def _flat(value, prefix: str = "") -> dict[str, object]:
    """A JSON value as {path: leaf}, paths such as .verify[0].worst_margin."""
    if isinstance(value, dict):
        items = [(f"{prefix}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{prefix}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {prefix or ".": value}
    return {k: v for path, item in items for k, v in _flat(item, path).items()}


def json_difference(a: bytes, b: bytes) -> str:
    """The keys in which two JSON files differ, with both values."""
    fa, fb = _flat(json.loads(a)), _flat(json.loads(b))
    gone = "<absent>"
    keys = sorted(k for k in fa.keys() | fb.keys() if fa.get(k, gone) != fb.get(k, gone))
    diffs = [f"{k}: {fa.get(k, gone)!r} -> {fb.get(k, gone)!r}" for k in keys]
    return "; ".join(diffs) or "the bytes differ, not the values"


def _untimed(report: bytes) -> bytes:
    """A report as the CLI writes it, without its `timings`."""
    value = json.loads(report)
    value.pop("timings", None)
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


def difference(name: str, a: bytes | None, b: bytes | None) -> str | None:
    if name.endswith(".json") and a is not None and b is not None:
        a, b = _untimed(a), _untimed(b)
    if a == b:
        return None
    if a is None or b is None:
        return "written by one tree only"
    if name.endswith(".csv"):
        return csv_difference(a, b)
    if name.endswith(".json"):
        return json_difference(a, b)
    return f"{len(a)} against {len(b)} bytes"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(p).resolve() for p in argv]
    for tree in trees:
        if not (tree / "src" / "psifrac" / "cli.py").is_file():
            print(f"byte_identity: {tree} holds no src/psifrac/cli.py", file=sys.stderr)
            return 2
    differs = 0
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        for k, args in enumerate(invocations()):
            outputs = []
            for t, tree in enumerate(trees):
                cwd = Path(tmp) / f"{k}-{t}"
                cwd.mkdir()
                outputs.append(run(tree, args, cwd))
            a, b = outputs
            lines = [
                f"  {name}: {diff}"
                for name in sorted(a.keys() | b.keys())
                if (diff := difference(name, a.get(name), b.get(name))) is not None
            ]
            label = "psifrac " + " ".join(args)
            if lines:
                differs += 1
                print(f"DIFFERS  {label}", *lines, sep="\n")
            else:
                print(f"same     {label} ({len(a) - 3} files, exit {a['<exit code>'].decode()})")
    print(f"{differs} of {k + 1} invocations differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
