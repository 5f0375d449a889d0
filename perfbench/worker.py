"""One benchmark process: import psifrac, warm up, run passes, print one JSON line.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
`src` on PYTHONPATH.  The set-up it times is the import of `psifrac.cli`
plus one untimed warm-up pass at smoke size.  With --setup-only it stops
there.  Otherwise it runs untraced passes of the workload until --seconds
have gone by, then, with --trace 1, one more pass with every layer wrapped
in spans.  Only the `psifrac.cli.main` calls are inside the timed region;
making temp dirs and checking outputs are not.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def run_pass(
    main, invocations: list[Invocation], tmp_root: Path, tracer: Tracer | None = None
):
    """Run one pass; return (wall seconds, per-invocation problems, oracle errors)."""
    wall = 0.0
    problems: list[list[str]] = []
    errors: list[float] = []
    for inv in invocations:
        out = Path(tempfile.mkdtemp(dir=tmp_root))
        argv = list(inv.argv) + ["--output-dir", str(out)]
        if tracer is not None:
            tracer.invocation += 1
        try:
            t0 = time.perf_counter()
            code = main(argv)
            wall += time.perf_counter() - t0
        except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
            problems.append([f"{' '.join(inv.argv)} raised {exc!r}"])
            shutil.rmtree(out, ignore_errors=True)
            continue
        found, err = inv.check(code, out)
        problems.append([f"{' '.join(inv.argv)}: {p}" for p in found])
        if err is not None:
            errors.append(err)
        shutil.rmtree(out, ignore_errors=True)
    return wall, problems, errors


def blas_info() -> dict:
    """Versions and thread counts of the OpenBLAS builds numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    info = {}
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[mod.__name__] = {
            "version": mod.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
        }
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):  # fmt: skip
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    info["blas_threads"] = threads
    return info


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        import psifrac.cli as cli

        run_pass(cli.main, workload.invocations(args.seed, smoke=True), tmp_root)
        setup_s = time.perf_counter() - T_START
        result: dict = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        invocations = workload.invocations(args.seed)
        walls: list[float] = []
        problems: list[list[str]] = []
        errors: list[float] = []
        start = time.perf_counter()
        # start another pass only if it should end within --seconds
        while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
            wall, found, errs = run_pass(cli.main, invocations, tmp_root)
            walls.append(wall)
            problems += found
            errors += errs
        result.update(
            walls=walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            oracle_err=statistics.median(errors) if errors else None,
            provenance=blas_info(),
        )

        if args.trace:
            tracer = Tracer()
            try:
                instrument(tracer)
                main_traced = tracer.wrap("cli.main", cli.main)
                wall, found, _ = run_pass(main_traced, invocations, tmp_root, tracer)
            finally:
                tracer.restore()
            problems += found
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            layers = layer_metrics(tracer)
            layers["traced_wall_s"] = (wall, "s")
            layers["trace_overhead_s"] = (wall - statistics.median(walls), "s")
            result["layers"] = layers

        result["attempted"] = len(problems)
        result["failed"] = sum(1 for found in problems if found)
        result["problems"] = [msg for found in problems for msg in found][:50]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
