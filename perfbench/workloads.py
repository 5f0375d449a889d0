"""The three benchmark workloads: their inputs, drawn from a seed, and their output checks.

A workload is a list of `psifrac` invocations (argv lists) run one after the
other in one process; one such list is a *pass*.  `invocations(seed, smoke)`
builds the pass; `smoke=True` gives the same subcommands at a tiny size, used
as the warm-up and by the self-tests.  The seed perturbs the inputs without
changing which layers the pass exercises.

Every invocation carries a checker that reads what the CLI wrote and returns
a list of problems (empty means correct) plus the workload's oracle error.
The checks come from theory and independent oracles, not from byte equality
with earlier outputs, so a legitimate change of discretisation still passes.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PI2 = math.pi**2
# |lambda1 - pi^2| / pi^2 allowed at alpha = 1; the n = 769 stencil is at 6e-6
LAMBDA1_REL_TOL = 1e-2
# Picard stops at residual <= 100 * tol with tol = 1e-10
SOLVE_RESIDUAL_MAX = 1e-8
# product integration is exact on constants, so int_left/one is round-off
INT_ONE_MAX = 1e-10

Checker = Callable[[int, Path], "tuple[list[str], float | None]"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Checker


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, bool], list[Invocation]]

    def invocations(self, seed: int, smoke: bool = False) -> list[Invocation]:
        return self.build(random.Random(f"{self.name}:{seed}"), smoke)


def _report(out: Path) -> dict:
    with open(out / "report.json") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _classical_lambda1(report: dict, problems: list[str]) -> float:
    """Relative error of lambda1 against pi^2, the alpha = 1 limit on (0, 1)."""
    err = abs(report["lambda1"] - PI2) / PI2
    if not err < LAMBDA1_REL_TOL:
        problems.append(f"lambda1={report['lambda1']!r} is {err:.3g} away from pi^2")
    return err


def _guarded(check):
    """Turn a missing or malformed output into a reported problem."""

    def run(code: int, out: Path):
        if code != 0:
            return [f"exit code {code}"], None
        try:
            return check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], None

    return run


# --- sweep-n769 ---------------------------------------------------------------


def _check_sweep(runs: int):
    def check(out: Path):
        problems: list[str] = []
        report = _report(out)
        err = _classical_lambda1(report, problems)
        mu1, mu2 = report["mu1"], report.get("empirical_mu2")
        a = report["majorant_a"]
        want_mu1 = report["lambda1"] / (report["config"]["zeta_inf"] * a)
        if mu1 is None or not math.isclose(mu1, want_mu1, rel_tol=1e-12):
            problems.append(f"mu1={mu1!r} is not lambda1/(zeta_inf*a)={want_mu1!r}")
            return problems, err
        if mu2 is None or not mu1 < mu2:
            problems.append(f"dichotomy out of order: mu1={mu1!r}, mu2={mu2!r}")
            return problems, err
        rows = _csv_rows(out / "sweep.csv")
        if len(rows) != runs:
            problems.append(f"sweep wrote {len(rows)} rows, expected {runs}")
        above = 0
        for row in rows:
            lam = float(row["lambda"])
            solved = row["converged"] == "true" and row["positive"] == "true"
            if lam < mu1 and solved:
                problems.append(f"positive solution at lambda={lam} below mu1={mu1}")
            if lam > mu2:
                above += 1
                if not solved:
                    problems.append(f"no solution at lambda={lam} above mu2={mu2}")
        if above == 0:
            problems.append(f"no swept lambda above mu2={mu2}")
        return problems, err

    return _guarded(check)


def _sweep(rng: random.Random, smoke: bool) -> list[Invocation]:
    offset = round(rng.uniform(0.0, 0.5), 4)
    # n = 769, not gate 8's n = 257: the small-array pass swings with the
    # host's speed states about three times as much (see README, Sweep grid).
    # The smoke sweep makes three solves, below mu1, between and above mu2,
    # so that the set-up time is mostly the import.
    n, step = ("65", 49.5) if smoke else ("769", 4.0)
    runs = math.floor(99.5 / step + 1e-9) + 1
    argv = (
        "sweep", "--grid-n", n, "--max-iter", "200",
        "--sweep-min", repr(0.5 + offset), "--sweep-max", repr(100.0 + offset),
        "--sweep-step", repr(step),
    )  # fmt: skip
    return [Invocation(argv, _check_sweep(runs))]


# --- certify-n1025 ------------------------------------------------------------


def _check_solve(from_super: bool):
    def check(out: Path):
        problems: list[str] = []
        report = _report(out)
        err = _classical_lambda1(report, problems)
        solve = report["solve"]
        if not solve["converged"]:
            problems.append("solve did not converge")
        if not solve["final_residual"] < SOLVE_RESIDUAL_MAX:
            problems.append(f"residual {solve['final_residual']!r} >= {SOLVE_RESIDUAL_MAX}")
        if not solve["sandwich_ok"]:
            problems.append("solution left the order interval [phi, xi]")
        if not solve["positive"]:
            problems.append("solution is not positive on the interior")
        if solve["from_super"] != from_super:
            problems.append("solve started from the wrong end of the pair")
        if not report["e_min_interior"] > 0:
            problems.append(f"e_min_interior={report['e_min_interior']!r} is not positive")
        return problems, err

    return _guarded(check)


def _check_verify(out: Path):
    problems: list[str] = []
    report = _report(out)
    err = _classical_lambda1(report, problems)
    verdicts = sorted(v["verdict"] for v in report["verify"])
    if verdicts != ["sub-pass", "super-pass"]:
        problems.append(f"verification verdicts {verdicts}")
    if not report["e_min_interior"] > 0:
        problems.append(f"e_min_interior={report['e_min_interior']!r} is not positive")
    return problems, err


def _certify(rng: random.Random, smoke: bool) -> list[Invocation]:
    # the solve lambda stays inside the range where the n = 1025 Picard
    # iteration converges (it does not at lambda = 40); the verify lambda
    # stays above 77.5, where the sub side starts to pass
    lam_solve = repr(round(rng.uniform(45.0, 55.0), 3))
    lam_verify = repr(round(rng.uniform(100.0, 120.0), 3))
    n = "65" if smoke else "1025"
    return [
        Invocation(("solve", "--grid-n", n, "--lambda", lam_solve), _check_solve(False)),
        Invocation(("verify", "--grid-n", n, "--lambda", lam_verify), _guarded(_check_verify)),
        Invocation(
            ("solve", "--grid-n", n, "--lambda", lam_solve, "--from-super"), _check_solve(True)
        ),
    ]


# --- fractional-n1025 ---------------------------------------------------------


def _check_eigen(out: Path):
    problems: list[str] = []
    report = _report(out)
    eig = report["eigen"]
    lam = eig["lambda1"]
    # the stopping rule of principal_eigenpair, with the tol the CLI passes
    threshold = 10.0 * min(report["config"]["tol"], 1e-8) * abs(lam)
    if not math.isfinite(lam):
        problems.append(f"lambda1={lam!r} is not finite")
    elif not eig["residual"] <= threshold:
        problems.append(f"eigen residual {eig['residual']!r} above threshold {threshold!r}")
    rows = _csv_rows(out / "eigen.csv")
    if len(rows) != report["config"]["grid_n"]:
        problems.append(f"eigen.csv has {len(rows)} rows")
    return problems, None


def _check_convergence(out: Path):
    problems: list[str] = []
    table = _report(out)["convergence"]
    worst = 0.0
    for case, errs in sorted(table.items()):
        if not all(math.isfinite(e) for e in errs):
            problems.append(f"{case}: non-finite error in {errs}")
        elif case.startswith("int_left/"):
            if max(errs) > INT_ONE_MAX:
                problems.append(f"{case}: {max(errs)!r} is above round-off")
        else:
            # errors at n = 64, 128, 256, 512; the last refinement must help
            if not errs[-1] < errs[-2]:
                problems.append(f"{case}: error grows from n=256 to n=512: {errs}")
            worst = max(worst, errs[-1])
    if worst == 0.0:
        problems.append("no hilfer_left case in the convergence table")
    return problems, worst


def _fractional(rng: random.Random, smoke: bool) -> list[Invocation]:
    beta = repr(round(rng.uniform(0.45, 0.55), 4))
    # (0.9, 0.5, square) has a complex bottom pair at every n tried below
    # 1025, so the smoke pass uses the alpha = 0.75 square corner instead
    corners = [
        ("0.75", beta, "identity"),
        ("0.75", "1", "identity"),
        ("0.75", "0", "identity"),
        ("0.75" if smoke else "0.9", "0.5", "square"),
    ]
    rng.shuffle(corners)
    n = "65" if smoke else "1025"
    eigen = [
        Invocation(
            ("eigen", "--grid-n", n, "--alpha", a, "--beta", b, "--psi", psi),
            _guarded(_check_eigen),
        )
        for a, b, psi in corners
    ]
    conv = ("convergence", "--grid-n", n, "--alpha", "0.75", "--beta", "0.5")
    return eigen + [Invocation(conv, _guarded(_check_convergence))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n769", _sweep),
        Workload("certify-n1025", _certify),
        Workload("fractional-n1025", _fractional),
    )
}
