"""Command-line harness: wires config files to the pipeline, writes reports.

Every subcommand writes `report.json` (schema 1) plus plot-ready CSV files
into --output-dir.  CSV floats use fixed 17-significant-digit formatting so
identical configs byte-reproduce their outputs; the wall time of each
numerical stage goes into the report's `timings`, never into a CSV.  Exit
status: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    build_pair,
    empirical_mu2,
    linear_majorant,
    nonexistence_threshold,
    verify_weak_inequality,
)
from .calculus import frac_integral_matrix, hilfer_derivative_matrix, hilfer_power_oracle
from .config import CONFIG_DEFAULTS, load_config, spec_from_config
from .core import Grid, ProblemSpec, cell_width_violations, validate_spec
from .operators import assemble_composed, principal_eigenpair, solve_e
from .solver import STOPS, picard_block, solve_between

SUBCOMMANDS = ("eigen", "solve", "verify", "sweep", "convergence")

# slope of the majorant for the nonexistence threshold; 1 gives b > 0 for every
# catalog h: on (0, 1), s - h(s) >= -1/4 and s^(-nu) > 1; on [1, inf), s >= h(s)
MAJORANT_SLOPE = 1.0
MAJORANT_SMAX = 1e6


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: problem data plus harness knobs."""

    spec: ProblemSpec
    subcommand: str
    tol: float
    max_iter: int
    output_dir: Path
    r: float
    from_super: bool
    sweep_min: float
    sweep_max: float
    sweep_step: float
    echo: dict

    def violations(self) -> list[str]:
        out = []
        if not 0 < self.tol < math.inf:
            out.append(f"tol must be positive and finite (got {self.tol})")
        if self.max_iter < 1:
            out.append(f"max_iter must be at least 1 (got {self.max_iter})")
        if self.subcommand not in SUBCOMMANDS:
            out.append(f"unknown subcommand {self.subcommand!r}")
        if self.subcommand == "sweep":
            # otherwise the sweep would never end, or would run no lambda
            if not self.sweep_step > 0:
                out.append(f"sweep_step must be positive (got {self.sweep_step})")
            if not (math.isfinite(self.sweep_min) and math.isfinite(self.sweep_max)):
                out.append(
                    f"sweep_min and sweep_max must be finite "
                    f"(got {self.sweep_min}, {self.sweep_max})"
                )
            elif not self.sweep_min > 0:
                # every lambda of the sweep builds a subsolution, which needs lambda > 0
                out.append(f"sweep_min must be positive (got {self.sweep_min})")
            elif self.sweep_min > self.sweep_max:
                out.append(
                    f"sweep_min must not exceed sweep_max "
                    f"(got {self.sweep_min} > {self.sweep_max})"
                )
            elif self.sweep_step > 0:
                # lambda advances as round(lambda + step, 12), which a step below
                # the rounding plus the float spacing can leave where it is
                least = 1e-12 + math.ulp(max(abs(self.sweep_min), abs(self.sweep_max)))
                if self.sweep_step < least:
                    out.append(
                        f"sweep_step must be at least {least!r} to move lambda, which is "
                        f"rounded to 12 decimals (got {self.sweep_step})"
                    )
        return out


def _csv_column(column) -> tuple[str, list]:
    """A column's % conversion and its values: floats %.17g, bools true/false, the rest str()."""
    a = np.asarray(column)
    if a.dtype == bool:
        return "%s", ["true" if v else "false" for v in a.tolist()]
    return ("%.17g" if a.dtype.kind == "f" else "%s"), a.tolist()


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write a header line, then row i of the equal-length columns on line i + 1.

    The whole body is one % over a row format repeated once per row, the
    values interleaved row by row.
    """
    conversions, values = zip(*map(_csv_column, columns))
    n = len(values[0])
    if any(len(v) != n for v in values):
        raise ValueError("CSV columns must all have the same length")
    row = ",".join(conversions) + "\n"
    body = (row * n) % tuple(itertools.chain.from_iterable(zip(*values)))
    path.write_text(",".join(header) + "\n" + body)


# seconds spent in each stage of the running subcommand, by key; `run` resets it
_timings: dict[str, float] = {}


@contextlib.contextmanager
def _stage(name, key: str | None = None):
    """Run one numerical stage: overflow, a non-finite array, a LinAlgError or no memory exits 2.

    Overflow and invalid operations raise where they happen; they, a failed
    allocation, numpy's finiteness checks (ValueErrors) and the stage's own
    RuntimeErrors are re-raised as a RuntimeError that names the stage.
    `name` is the name, or a function that gives it at the failure.  The
    stage's wall time is added to `_timings[key]`; the key is the name
    unless given, and a stage named by a function must give one.
    """
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, RuntimeError) as exc:
        raise RuntimeError(f"{_name(name)}: {exc}") from None
    except MemoryError as exc:
        raise RuntimeError(f"{_name(name)}: {str(exc) or 'out of memory'}") from None
    except ValueError as exc:
        if isinstance(exc, np.linalg.LinAlgError) or "infs or NaNs" in str(exc):
            raise RuntimeError(f"{_name(name)}: {exc}") from None
        raise
    finally:
        key = name if key is None else key
        _timings[key] = _timings.get(key, 0.0) + time.perf_counter() - start


def _name(name) -> str:
    return name() if callable(name) else name


def _common_pipeline(rc: RunConfig):
    with _stage("assembly"):
        op = assemble_composed(rc.spec)
    with _stage("principal eigenpair"):
        eig = principal_eigenpair(op, tol=min(rc.tol, 1e-8))
    with _stage("e-solve"):
        e = solve_e(op)
    with _stage("majorant"):
        maj = linear_majorant(rc.spec.h, rc.spec.nu, MAJORANT_SLOPE, MAJORANT_SMAX)
    # the threshold formula needs a positive bottom eigenvalue, a computed
    # outcome that is reported, not assumed
    mu1 = (
        nonexistence_threshold(eig.lambda1, rc.spec.m.zeta_inf, maj.a)
        if eig.lambda1 > 0
        else None
    )
    return op, eig, e, maj, mu1


def _base_report(rc: RunConfig, op, eig, e, maj, mu1) -> dict:
    report = {
        "schema": 1,
        "version": __version__,
        "config": rc.echo,
        "lambda1": eig.lambda1,
        "e_sup": float(np.max(e)),
        "e_min_interior": float(np.min(e[1:-1])),
        "mu1": mu1,
        "majorant_a": maj.a,
        "majorant_b": maj.b,
        "diagnostics": {
            "interior": {"factorization": op.factorization},
            "eigen": dict(
                solves=eig.iterations, residual=eig.residual, threshold=eig.threshold,
                lambda2=eig.lambda2, psi1_error_estimate=eig.psi1_error_estimate,
            ),
        },
    }
    if mu1 is None:
        report["mu1_note"] = "bottom eigenvalue is not positive at this resolution"
    return report


def _cmd_eigen(rc: RunConfig) -> tuple[int, dict]:
    op, eig, e, maj, mu1 = _common_pipeline(rc)
    report = _base_report(rc, op, eig, e, maj, mu1)
    report["eigen"] = {
        "lambda1": eig.lambda1,
        "iterations": eig.iterations,
        "residual": eig.residual,
        "psi1_min_interior": eig.psi1_min_interior,
        "positive_interior": eig.positive_interior,
    }
    x = rc.spec.grid.x
    write_csv(rc.output_dir / "eigen.csv", ["x", "psi1", "e"], (x, eig.psi1, e))
    return 0, report


def _verify_both(rc: RunConfig, op, eig, e):
    with _stage("verification"):
        pair = build_pair(rc.spec, eig, e, rc.r)
        sub = verify_weak_inequality(pair.phi, op, "sub")
        sup = verify_weak_inequality(pair.xi, op, "super")
    return pair, sub, sup


def _verify_json(rep) -> dict:
    return {
        "side": rep.side,
        "verdict": rep.verdict,
        "worst_margin": rep.worst_margin,
        "worst_node": rep.worst_node,
        "tol_margin": rep.tol_margin,
    }


def _cmd_verify(rc: RunConfig) -> tuple[int, dict]:
    op, eig, e, maj, mu1 = _common_pipeline(rc)
    pair, sub, sup = _verify_both(rc, op, eig, e)
    report = _base_report(rc, op, eig, e, maj, mu1)
    report["zeta"] = pair.zeta
    report["verify"] = [_verify_json(sub), _verify_json(sup)]
    x = rc.spec.grid.x[1:-1]
    write_csv(
        rc.output_dir / "verify_sub.csv",
        ["x", "u", "margin"],
        (x, pair.phi[1:-1], sub.margins),
    )
    write_csv(
        rc.output_dir / "verify_super.csv",
        ["x", "u", "margin"],
        (x, pair.xi[1:-1], sup.margins),
    )
    return 0, report


def _solve_json(res) -> dict:
    return {
        "converged": bool(res.converged),
        "iterations": res.iterations,
        "final_residual": res.final_residual,
        "residual_history": list(res.residual_history),
        "sandwich_ok": bool(res.sandwich_ok),
        "energy_final": res.energy_final,
        "kirchhoff_coeff_final": res.kirchhoff_coeff_final,
        "positive": bool(res.positive),
        "projection_last10": res.projection_last10,
        "damped_steps": res.damped_steps,
        "override": bool(res.override),
        "from_super": bool(res.from_super),
    }


def _cmd_solve(rc: RunConfig) -> tuple[int, dict]:
    op, eig, e, maj, mu1 = _common_pipeline(rc)
    pair, sub, sup = _verify_both(rc, op, eig, e)
    verified = sub.passed and sup.passed
    with _stage("Picard solve"):
        res = solve_between(
            pair,
            rc.spec,
            op,
            tol=rc.tol,
            max_iter=rc.max_iter,
            from_super=rc.from_super,
            verified=verified,
        )
    report = _base_report(rc, op, eig, e, maj, mu1)
    report["zeta"] = pair.zeta
    report["verify"] = [_verify_json(sub), _verify_json(sup)]
    report["solve"] = _solve_json(res)
    report["diagnostics"]["picard"] = {
        "stop": res.stop,
        "solves": res.iterations,
        "pinned_nodes": res.pinned_nodes,
    }
    x = rc.spec.grid.x
    write_csv(
        rc.output_dir / "solve.csv",
        ["x", "u", "phi", "xi"],
        (x, res.u, pair.phi, pair.xi),
    )
    return (0 if res.converged else 2), report


def _cmd_sweep(rc: RunConfig) -> tuple[int, dict]:
    op, eig, e, maj, mu1 = _common_pipeline(rc)
    with _stage("empirical mu2"):
        mu2 = empirical_mu2(rc.spec, op, eig, e, rc.r)
    lams, pairs = [], []
    lam = rc.sweep_min
    while lam <= rc.sweep_max + 1e-12:
        with _stage(f"sweep at lambda = {lam:g}", key="sweep pairs"):
            pairs.append(build_pair(dataclasses.replace(rc.spec, lam=lam), eig, e, rc.r))
        lams.append(lam)
        lam = round(lam + rc.sweep_step, 12)
    # every lambda in one block; a failure names the ones still iterating
    solved = {}
    with _stage(
        lambda: "sweep at lambda = "
        + ", ".join(f"{lam:g}" for j, lam in enumerate(lams) if j not in solved),
        key="sweep Picard",
    ):
        for j, res in picard_block(pairs, rc.spec, lams, op, tol=rc.tol, max_iter=rc.max_iter):
            solved[j] = res
    runs = [solved[j] for j in range(len(lams))]
    report = _base_report(rc, op, eig, e, maj, mu1)
    report["empirical_mu2"] = mu2
    report["sweep"] = {
        "lambda_min": rc.sweep_min,
        "lambda_max": rc.sweep_max,
        "lambda_step": rc.sweep_step,
        "runs": len(runs),
    }
    report["diagnostics"]["picard"] = {
        "stops": {stop: sum(res.stop == stop for res in runs) for stop in STOPS},
        "solves": sum(res.iterations for res in runs),
    }
    write_csv(
        rc.output_dir / "sweep.csv",
        ["lambda", "converged", "residual", "energy", "positive"],
        # the validated range holds sweep_min, so there is at least one row
        (
            lams,
            [res.converged for res in runs],
            [res.final_residual for res in runs],
            [res.energy_final for res in runs],
            [res.positive for res in runs],
        ),
    )
    return 0, report


CONVERGENCE_NS = (64, 128, 256, 512)
CONVERGENCE_DELTAS = (1.5, 2.5)


def _convergence_violations(spec: ProblemSpec) -> list[str]:
    """The table's own grids: the stencil's width bound and the int_left rule's span^(1 + alpha)."""
    out = []
    for n in CONVERGENCE_NS:
        grid = Grid.make(spec.grid.T, n, spec.psi)
        out += [f"convergence grid n = {n}: {msg}" for msg in cell_width_violations(grid.u)]
    # the same array power as the rule's, so the bound is exact to the last float
    span = float(spec.grid.u[-1] - spec.grid.u[0])
    with np.errstate(over="ignore"):
        power = np.array([span]) ** (1.0 + spec.order.alpha)
    if not np.isfinite(power[0]):
        out.append(
            f"convergence table: (psi(T) - psi(0))^(1 + alpha) must not exceed "
            f"{np.finfo(float).max:g} for the int_left rule "
            f"(got span {span:g}, alpha {spec.order.alpha})"
        )
    return out


def _cmd_convergence(rc: RunConfig) -> tuple[int, dict]:
    spec = rc.spec
    rows = []
    cases: dict[tuple[str, str], list[float]] = {}
    for n in CONVERGENCE_NS:
        with _stage(f"convergence table at n = {n}"):
            grid = Grid.make(spec.grid.T, n, spec.psi)
            collar = max(2, int(np.ceil(0.05 * n)))
            hil = hilfer_derivative_matrix(grid, spec.psi, spec.order)
            u = grid.u
            for delta in CONVERGENCE_DELTAS:
                f = (u - u[0]) ** (delta - 1.0)
                want = hilfer_power_oracle(spec.order, delta, spec.psi, grid)
                err = float(np.abs(hil.entries @ f - want)[collar:-1].max())
                cases.setdefault(("hilfer_left", f"power_{delta}"), []).append(err)
            intm = frac_integral_matrix(grid, spec.psi, spec.order.alpha)
            ones = np.ones(n)
            want = (u - u[0]) ** spec.order.alpha / math.gamma(spec.order.alpha + 1.0)
            err = float(np.abs(intm.entries @ ones - want)[1:].max())
            cases.setdefault(("int_left", "one"), []).append(err)
    for (operator, fname), errs in sorted(cases.items()):
        prev = None
        for n, err in zip(CONVERGENCE_NS, errs):
            # the first grid has no rate, so the column is text; nor has int_left,
            # which integrates the interpolant of 1 exactly: its error is rounding
            rate = "" if prev is None or operator == "int_left" else "%.17g" % np.log2(prev / err)
            rows.append((n, operator, fname, err, rate))
            prev = err
    write_csv(
        rc.output_dir / "convergence.csv",
        ["n", "operator", "test_function", "sup_error", "rate"],
        zip(*rows),
    )
    # the table needs no eigenpair, so the report holds only the table
    return 0, {
        "schema": 1,
        "version": __version__,
        "config": rc.echo,
        "convergence": {f"{op_}/{fn}": errs for (op_, fn), errs in sorted(cases.items())},
    }


_COMMANDS = {
    "eigen": _cmd_eigen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
}


def run(rc: RunConfig) -> int:
    """Execute the requested pipeline, writing report.json and CSV files."""
    bad = rc.violations() + validate_spec(rc.spec)
    if rc.subcommand == "convergence":
        # the table builds grids of its own, so they are checked once the spec is
        if not bad:
            bad += _convergence_violations(rc.spec)
    elif not (1.0 / (1.0 + rc.spec.nu) < rc.r < 1.0):
        bad.append(
            f"r must lie in (1/(1+nu), 1) = ({1.0 / (1.0 + rc.spec.nu):.6g}, 1), got {rc.r}"
        )
    if bad:
        for msg in bad:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    rc.output_dir.mkdir(parents=True, exist_ok=True)
    _timings.clear()
    start = time.perf_counter()
    try:
        status, report = _COMMANDS[rc.subcommand](rc)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["timings"] = {**_timings, "total": time.perf_counter() - start}
    with open(rc.output_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


# the options of one subcommand, with the values the others run with
_OWN_DEFAULTS = {"from_super": False, "sweep_min": 0.5, "sweep_max": 60.0, "sweep_step": 0.5}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # the options every subcommand shares live on one parent, whose actions
    # each subparser adopts as they are (add_argument per subparser would
    # build a help formatter for each option); built once per process, since
    # parsing leaves the parser as it was
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key = value config file")
    common.add_argument("--output-dir", type=Path, required=True)
    for key, (typ, _) in CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        common.add_argument(flag, dest=f"cfg_{key}", type=typ, default=None)
    p = argparse.ArgumentParser(
        prog="psifrac",
        description="Fractional Kirchhoff sub/supersolution toolbox",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} pipeline", parents=[common])
        if name == "solve":
            sp.add_argument("--from-super", action="store_true", default=_OWN_DEFAULTS["from_super"])
        if name == "sweep":
            for key in ("sweep_min", "sweep_max", "sweep_step"):
                sp.add_argument("--" + key.replace("_", "-"), type=float, default=_OWN_DEFAULTS[key])
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = load_config(args.config)
    for key in CONFIG_DEFAULTS:
        override = getattr(args, f"cfg_{key}", None)
        if override is not None:
            values[key] = override
    spec = spec_from_config(values)
    echo = dict(sorted(values.items()))
    echo["subcommand"] = args.subcommand
    return RunConfig(
        spec=spec,
        subcommand=args.subcommand,
        tol=values["tol"],
        max_iter=values["max_iter"],
        output_dir=args.output_dir,
        r=values["r"],
        echo=echo,
        **{key: getattr(args, key, default) for key, default in _OWN_DEFAULTS.items()},
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
