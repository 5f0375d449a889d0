"""Benchmark of the psifrac CLI: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n769 --seed 1 --seconds 35 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) with BLAS
pinned to one thread: one that imports psifrac, warms up and measures,
and SETUP_SAMPLES - 1 that only import and warm up, for the set-up time;
half of these run before the measuring worker and half after, so that the
set-up samples span the run.  The measuring worker is one closed-loop
client: it calls `psifrac.cli.main(argv)` in-process, each call after the
previous one has finished, each writing into its own temp dir.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of one extra
traced pass.  The full result, with its provenance, is also written to
perfbench/out/.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5  # odd: the measuring worker's sample sits in the middle
DEADLINE_S = 170.0
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]  # fmt: skip
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(res: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    attempted = res["attempted"]
    return {
        "wall_s": (statistics.median(res["walls"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_ok_frac": ((attempted - res["failed"]) / attempted, "1"),
        "oracle_err": (res["oracle_err"], "1"),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "psifrac" / "cli.py").is_file():
        return fail(f"no psifrac sources under {SRC}; run from a full checkout")

    deadline = time.monotonic() + DEADLINE_S
    try:
        half = range(SETUP_SAMPLES // 2)
        setups = [worker(args, deadline, "--setup-only")["setup_s"] for _ in half]
        res = worker(args, deadline)
        setups.append(res["setup_s"])
        setups += [worker(args, deadline, "--setup-only")["setup_s"] for _ in half]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        return fail(f"run failed: {exc}")
    if res["oracle_err"] is None:
        return fail("no invocation produced an oracle error: " + "; ".join(res["problems"][:5]))
    setup_s = statistics.median(setups)

    e2e = end_to_end(res, setup_s)
    metrics = res["layers"] if args.trace else e2e
    correct = res["failed"] == 0
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(res["walls"]),
        "pass_walls_s": res["walls"],
        "setup_samples_s": setups,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        **res["provenance"],
    }
    full = {
        "provenance": provenance,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": {k: v[0] for k, v in metrics.items()} if args.trace else None,
        "problems": res["problems"],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    for msg in res["problems"]:
        print(f"problem: {msg}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
