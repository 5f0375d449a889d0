import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import build_parser_reference, write_csv_reference
import psifrac
import psifrac.operators
from psifrac import cli
from psifrac.cli import SUBCOMMANDS, build_parser, main, write_csv
from psifrac.solver import solve_between

FAST = ["--grid-n", "65", "--tol", "1e-9"]


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--output-dir", str(out)])
    report = None
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return code, out, report


class TestEigen:
    def test_writes_report_and_csv(self, tmp_path):
        code, out, report = run_cli(tmp_path, "eigen", *FAST)
        assert code == 0
        assert report["schema"] == 1
        for key in ("version", "config", "mu1", "lambda1", "e_sup"):
            assert key in report
        eig = report["eigen"]
        for key in ("lambda1", "iterations", "residual", "psi1_min_interior"):
            assert key in eig
        lines = (out / "eigen.csv").read_text().splitlines()
        assert lines[0] == "x,psi1,e"
        assert len(lines) == 66

    def test_classical_values(self, tmp_path):
        code, _, report = run_cli(tmp_path, "eigen", *FAST)
        assert abs(report["lambda1"] - np.pi**2) / np.pi**2 < 0.01
        assert abs(report["e_sup"] - 0.125) < 1e-3


    def test_rounding_floor_corner_fails_after_one_pass(self, tmp_path, capsys, monkeypatch):
        # the residual bound 10 * 1e-10 * lambda1 ~ 1e-16 lies below this
        # corner's rounding floor: the single Lanczos pass and its
        # inverse-iteration step are all the solves made before the failure
        solves = []
        real = psifrac.operators.ComposedOperator.solve_form

        def counting(self, rhs):
            solves.append(1)
            return real(self, rhs)

        monkeypatch.setattr(psifrac.operators.ComposedOperator, "solve_form", counting)
        flags = ["--alpha", "0.9", "--psi", "exp_minus_one", "--T", "10"]
        code, _, report = run_cli(tmp_path, "eigen", "--grid-n", "1025", *flags)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        head = re.match(
            r"numerical failure: principal eigenpair: shift-invert Lanczos did not converge "
            r"in (\d+) interior solves: residual ",
            err,
        )
        assert head and int(head.group(1)) == len(solves) <= 21


class TestValidation:
    def test_alpha_below_half_is_status_one(self, tmp_path, capsys):
        code, out, report = run_cli(tmp_path, "eigen", "--alpha", "0.3")
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert "alpha" in err and "1/2" in err

    def test_unknown_config_key_is_status_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 0.9\nwavelength = 3\n")
        code, _, _ = run_cli(tmp_path, "eigen", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_r_window_checked(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "solve", *FAST, "--r", "0.5")
        assert code == 1
        assert "r must lie" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_file_is_status_one(self, tmp_path, capsys, where):
        # an error line and status 1, not a traceback
        cfg = tmp_path / "absent.cfg" if where == "missing" else tmp_path
        code, out, _ = run_cli(tmp_path, "solve", "--config", str(cfg))
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "Traceback" not in err

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\ngrid_n = 65\nlambda = 25\n")
        code, _, report = run_cli(tmp_path, "eigen", "--config", str(cfg), "--lambda", "50")
        assert code == 0
        assert report["config"]["lambda"] == 50.0
        assert report["config"]["grid_n"] == 65


class TestSolve:
    def test_catalog_problem_converges(self, tmp_path):
        code, out, report = run_cli(tmp_path, "solve", "--grid-n", "129")
        assert code == 0
        assert report["solve"]["converged"] is True
        assert report["solve"]["final_residual"] < 1e-8
        lines = (out / "solve.csv").read_text().splitlines()
        assert lines[0] == "x,u,phi,xi"

    def test_nonconvergence_is_status_two(self, tmp_path):
        # lambda below the nonexistence threshold: solver reports failure
        code, out, report = run_cli(
            tmp_path, "solve", *FAST, "--lambda", "5", "--max-iter", "60"
        )
        assert code == 2
        assert report["solve"]["converged"] is False

    def test_from_super_flag(self, tmp_path):
        code, _, report = run_cli(tmp_path, "solve", "--grid-n", "129", "--from-super")
        assert code == 0
        assert report["solve"]["from_super"] is True


class TestVerify:
    def test_reports_both_sides(self, tmp_path):
        code, out, report = run_cli(tmp_path, "verify", "--grid-n", "129")
        assert code == 0
        sides = {v["side"]: v for v in report["verify"]}
        assert set(sides) == {"sub", "super"}
        for v in report["verify"]:
            for key in ("side", "verdict", "worst_margin", "worst_node"):
                assert key in v
        assert sides["super"]["verdict"] == "super-pass"
        for name in ("verify_sub.csv", "verify_super.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,u,margin"
            assert len(lines) == 128  # interior nodes only


class TestSweep:
    def test_csv_and_mu2(self, tmp_path):
        code, out, report = run_cli(
            tmp_path,
            "sweep",
            *FAST,
            "--max-iter",
            "60",
            "--sweep-min",
            "2",
            "--sweep-max",
            "6",
            "--sweep-step",
            "2",
        )
        assert code == 0
        assert "empirical_mu2" in report
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,converged,residual,energy,positive"
        assert len(lines) == 4
        assert lines[1].startswith("2,false,") or lines[1].startswith("2,true,")


class TestSweepBlock:
    ARGV = ["sweep", *FAST, "--sweep-min", "2", "--sweep-max", "62", "--sweep-step", "20"]
    LAMS = (2.0, 22.0, 42.0, 62.0)

    def _solves(self, tmp_path):
        """The solves each lambda of ARGV makes alone."""
        args = build_parser().parse_args([*self.ARGV, "--output-dir", str(tmp_path)])
        rc = cli.config_from_args(args)
        op, eig, e, _, _ = cli._common_pipeline(rc)
        out = {}
        for lam in self.LAMS:
            spec = dataclasses.replace(rc.spec, lam=lam)
            pair = cli.build_pair(spec, eig, e, rc.r)
            op_l = dataclasses.replace(op, spec=spec)
            out[lam] = solve_between(pair, spec, op_l, tol=rc.tol, max_iter=rc.max_iter).iterations
        return out

    def test_failure_in_the_block_names_the_lambdas_still_iterating(
        self, tmp_path, capsys, monkeypatch
    ):
        solves = self._solves(tmp_path)
        # the first block solve after a lambda has left the block fails
        real = psifrac.operators._Stiffness.solve

        def failing(self, rhs):
            if rhs.ndim == 2 and len(rhs) < len(solves):
                raise np.linalg.LinAlgError("forced failure")
            return real(self, rhs)

        monkeypatch.setattr(psifrac.operators._Stiffness, "solve", failing)
        code, _, report = run_cli(tmp_path, *self.ARGV)
        assert code == 2 and report is None
        first = min(solves.values())
        left = [f"{lam:g}" for lam, n in solves.items() if n > first]
        assert 0 < len(left) < len(solves)
        want = f"numerical failure: sweep at lambda = {', '.join(left)}: forced failure\n"
        assert capsys.readouterr().err == want

    def test_pair_failure_names_its_lambda(self, tmp_path, capsys, monkeypatch):
        real = cli.build_pair

        def failing(spec, eig, e, r):
            if spec.lam == 42.0:
                raise FloatingPointError("overflow encountered in multiply")
            return real(spec, eig, e, r)

        monkeypatch.setattr(cli, "build_pair", failing)
        code, _, report = run_cli(tmp_path, *self.ARGV)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err == "numerical failure: sweep at lambda = 42: overflow encountered in multiply\n"

    def test_picard_diagnostics_in_report_only(self, tmp_path):
        solves = self._solves(tmp_path)
        code, out, report = run_cli(tmp_path, *self.ARGV)
        assert code == 0
        picard = report["diagnostics"]["picard"]
        # 2, 22 and 42 lie below the positive branch the sandwich holds
        assert picard["stops"] == {"residual": 1, "fixed point": 0, "pinned": 3, "max_iter": 0}
        assert picard["solves"] == sum(solves.values())
        assert "pinned" not in (out / "sweep.csv").read_text()


class TestTimings:
    """Each run reports the seconds spent per stage, in report.json only."""

    PIPELINE = {"assembly", "principal eigenpair", "e-solve", "majorant"}

    @pytest.mark.parametrize(
        "argv,stages",
        [
            pytest.param(["eigen"], PIPELINE, id="eigen"),
            pytest.param(
                ["sweep", "--sweep-min", "2", "--sweep-max", "4", "--sweep-step", "1"],
                # every lambda's pair under one key, the Picard block under another
                PIPELINE | {"empirical mu2", "sweep pairs", "sweep Picard"},
                id="sweep",
            ),
            pytest.param(
                ["convergence"],
                {f"convergence table at n = {n}" for n in cli.CONVERGENCE_NS},
                id="convergence",
            ),
        ],
    )
    def test_stage_seconds_and_total(self, tmp_path, argv, stages):
        code, _, report = run_cli(tmp_path, *argv, *FAST)
        assert code == 0
        timings = report["timings"]
        assert set(timings) == stages | {"total"}
        assert all(0.0 <= v < math.inf for v in timings.values())
        assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]


class TestConvergence:
    def test_csv_schema_and_rates(self, tmp_path):
        code, out, report = run_cli(tmp_path, "convergence", "--alpha", "0.75", *FAST)
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,operator,test_function,sup_error,rate"
        # 3 cases x 4 grid sizes
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "64" and first[4] == ""
        for n, operator, _, _, rate in (line.split(",") for line in lines[1:]):
            if operator == "int_left":
                assert rate == ""  # exact on 1: its error is rounding, with no order
            elif n != "64":
                assert float(rate) > 0  # error shrinks with n
        # the table needs no eigenpair: the report holds the table and its timings only
        assert set(report) == {"schema", "version", "config", "convergence", "timings"}
        assert len(report["convergence"]) == 3


class TestFractionalCorners:
    def test_nonpositive_bottom_eigenvalue_reported(self, tmp_path, monkeypatch):
        # a non-positive lambda1 leaves the threshold null, not fabricated;
        # no catalog corner has one, so the eigensolver is stubbed
        real = cli.principal_eigenpair

        def negative(op, **kwargs):
            return dataclasses.replace(real(op, **kwargs), lambda1=-1.0)

        monkeypatch.setattr(cli, "principal_eigenpair", negative)
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "9")
        assert code == 0
        assert report["lambda1"] == -1.0
        assert report["mu1"] is None
        assert "mu1_note" in report

    def test_log1p_corner_off_the_catalog_has_a_positive_bottom(self, tmp_path):
        # the T = 10 log1p corner had a negative bottom mode under the
        # strong-form product; the tent form's spectrum is positive there
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--beta", "0", "--psi", "log1p",
            "--T", "10", "--grid-n", "9",
        )  # fmt: skip
        assert code == 0
        assert report["lambda1"] == pytest.approx(1.0996, abs=1e-4)
        assert report["mu1"] > 0
        assert report["eigen"]["positive_interior"] is True

    @pytest.mark.parametrize("sub", ["solve", "verify", "sweep"])
    def test_sign_changing_psi1_is_numerical_failure(self, tmp_path, capsys, monkeypatch, sub):
        # a psi1 that changes sign is status 2 with the reason, not the
        # status-1 refusal of a clipped phi's singular term
        real = cli.principal_eigenpair

        def sign_changing(op, **kwargs):
            eig = real(op, **kwargs)
            psi1 = eig.psi1.copy()
            psi1[1] = -psi1[1]
            return dataclasses.replace(eig, psi1=psi1, positive_interior=False)

        monkeypatch.setattr(cli, "principal_eigenpair", sign_changing)
        code, _, _ = run_cli(tmp_path, sub, "--alpha", "0.75", "--beta", "1", *FAST)
        assert code == 2
        assert "psi1 is not positive" in capsys.readouterr().err

    def test_solve_refusal_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # build_pair refuses a sign-changing e field: status 2, not 1
        real = cli.solve_e

        def sign_changing(op):
            e = real(op)
            e[2] = -e[2]
            return e

        monkeypatch.setattr(cli, "solve_e", sign_changing)
        code, _, _ = run_cli(
            tmp_path, "solve", "--alpha", "0.9", "--grid-n", "65", "--tol", "1e-8"
        )
        assert code == 2
        assert "not positive" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["solve", "verify", "sweep"])
    @pytest.mark.parametrize("alpha, beta", [("0.75", "1"), ("0.9", "0.5")])
    def test_fractional_pipeline_runs(self, tmp_path, sub, alpha, beta):
        # psi1 > 0 and e > 0 at the fractional corners: every subcommand
        # reaches its end with status 0
        code, _, report = run_cli(tmp_path, sub, "--alpha", alpha, "--beta", beta, *FAST)
        assert code == 0
        assert report["lambda1"] > 0 and report["mu1"] > 0
        assert report["e_min_interior"] > 0
        if sub != "sweep":
            assert [v["verdict"] for v in report["verify"]] == ["sub-pass", "super-pass"]
        if sub == "solve":
            solve = report["solve"]
            assert solve["converged"] and solve["positive"] and solve["sandwich_ok"]


class TestRunConfigValidation:
    def test_nonpositive_tol_is_status_one(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "eigen", "--grid-n", "65", "--tol", "0")
        assert code == 1
        assert "tol" in capsys.readouterr().err

    def test_zero_max_iter_is_status_one(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "solve", *FAST, "--max-iter", "0")
        assert code == 1
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_sweep_step_is_status_one(self, tmp_path, capsys, step):
        # such a sweep would never reach its end
        code, _, _ = run_cli(tmp_path, "sweep", *FAST, "--sweep-step", step)
        assert code == 1
        assert "sweep_step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds, step",
        [(("1", "2"), "4e-13"), (("1", "2"), "1e-12"), (("1", "1e6"), "1e-11")],
    )
    def test_step_that_cannot_move_lambda_is_rejected(self, tmp_path, capsys, bounds, step):
        # lambda advances as round(lambda + step, 12): below the rounding, or
        # below the float spacing at 1e6, it would repeat one value forever
        lo, hi = bounds
        sweep = ["--sweep-min", lo, "--sweep-max", hi, "--sweep-step", step]
        argv = ["sweep", "--output-dir", str(tmp_path / "out"), "--grid-n", "33", *sweep]
        bad = cli.config_from_args(build_parser().parse_args(argv)).violations()
        assert len(bad) == 1 and bad[0].startswith("sweep_step"), bad
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sweep_step" in err

    def test_smallest_moving_step_is_accepted(self, tmp_path):
        argv = ["sweep", "--output-dir", str(tmp_path), "--sweep-min", "1", "--sweep-max", "2"]
        for step in ("1.5e-12", "0.5"):
            args = build_parser().parse_args([*argv, "--sweep-step", step])
            assert cli.config_from_args(args).violations() == []

    @pytest.mark.parametrize(
        "bounds, msg",
        [
            (["--sweep-max", "inf"], "finite"),
            (["--sweep-min=-inf"], "finite"),
            (["--sweep-min", "nan"], "finite"),
            (["--sweep-max", "nan"], "finite"),
            (["--sweep-min", "5", "--sweep-max", "1"], "must not exceed"),
        ],
    )
    def test_unbounded_or_reversed_sweep_is_status_one(self, tmp_path, capsys, bounds, msg):
        # an infinite bound never ends the sweep; reversed bounds sweep nothing
        code, _, _ = run_cli(tmp_path, "sweep", *FAST, *bounds)
        assert code == 1
        assert msg in capsys.readouterr().err

    @pytest.mark.parametrize("lo", ["0", "-0.5"])
    def test_nonpositive_sweep_min_exits_before_assembly(self, tmp_path, capsys, monkeypatch, lo):
        # every lambda of the sweep builds a subsolution, which needs lambda > 0,
        # so the range is refused before the operator, the eigenpair and mu2
        def assemble(spec):
            raise AssertionError("the assembly ran")

        monkeypatch.setattr(cli, "assemble_composed", assemble)
        bounds = [f"--sweep-min={lo}", "--sweep-max", "1"]
        code, out, report = run_cli(tmp_path, "sweep", *FAST, *bounds)
        assert code == 1 and report is None and not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: sweep_min must be positive (got {float(lo)})\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--zeta0", "--zeta-inf", "--tol"])
    def test_nan_is_status_one(self, tmp_path, capsys, flag):
        code, _, _ = run_cli(tmp_path, "eigen", "--grid-n", "17", flag, "nan")
        assert code == 1
        assert "nan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lambda", "--tol"])
    def test_infinity_is_status_one(self, tmp_path, capsys, flag):
        # an infinite tol would accept the first Picard iterate as converged
        code, _, report = run_cli(tmp_path, "solve", "--grid-n", "33", flag, "inf")
        assert code == 1 and report is None
        assert "must be positive and finite (got inf)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--zeta-inf", "inf"], ["--zeta0", "inf", "--zeta-inf", "inf"]]
    )
    def test_infinite_kirchhoff_bound_is_status_one(self, tmp_path, capsys, flags):
        # an infinite zeta_inf would give mu1 = 0, and an infinite zeta0 a NaN
        code, _, report = run_cli(tmp_path, "solve", "--grid-n", "33", *flags)
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("error: zeta") for line in err), err
        assert any("must be finite (got inf)" in line for line in err)

    @pytest.mark.parametrize(
        "flags, msg",
        [
            (["--T", "inf"], "T must be finite (got inf)"),
            (["--psi", "exp_minus_one", "--psi-k", "inf"], "psi_k must be finite (got inf)"),
        ],
    )
    def test_non_finite_node_data_gives_only_the_error(self, tmp_path, capsys, flags, msg):
        # refused before the nodes are built, so no RuntimeWarning of the
        # node arithmetic reaches stderr (and none raises under pytest)
        code, _, report = run_cli(tmp_path, "solve", "--grid-n", "33", *flags)
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--psi", "exp_minus_one", "--T", "1000"],
            ["--psi", "exp_minus_one", "--psi-k", "1e300"],
            ["--psi", "square", "--T", "1e200"],
        ],
    )
    def test_overflowing_nodes_give_only_errors(self, tmp_path, capsys, flags):
        # finite data whose psi(T) overflows: the nodes are built without a
        # RuntimeWarning, and the refusal names the overflow
        code, _, report = run_cli(tmp_path, "solve", "--grid-n", "33", *flags)
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("error: ") for line in err), err
        assert "error: transformed nodes must be finite (psi(T) overflows)" in err

    @pytest.mark.parametrize("sub", ["eigen", "convergence"])
    def test_subnormal_beta_runs(self, tmp_path, sub):
        # beta enters only as the Caputo shift at beta = 1, so no tiny beta
        # makes an integral order subnormal
        code, _, _ = run_cli(
            tmp_path, sub, "--alpha", "0.75", "--beta", "1e-310", "--grid-n", "33"
        )
        assert code == 0

    @pytest.mark.parametrize("sub", ["eigen", "convergence"])
    def test_integral_order_too_small_for_interval_is_status_one(self, tmp_path, capsys, sub):
        # 1 - alpha = 2^-53, the smallest nonzero order, and
        # (psi(T) - psi(0))/(1 - alpha) overflows at T = 1e293, a span whose
        # cell widths the stencil already refuses
        code, _, _ = run_cli(
            tmp_path, sub, "--alpha", repr(1.0 - 2.0**-53), "--T", "1e293", "--grid-n", "33"
        )
        assert code == 1
        assert "cell widths" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["eigen", "convergence"])
    def test_integral_order_above_interval_bound_runs(self, tmp_path, sub):
        # the smallest nonzero order, 2^-53, on an interval short enough for it
        code, out, report = run_cli(
            tmp_path, sub, "--alpha", repr(1.0 - 2.0**-53), "--T", "100", "--grid-n", "33"
        )
        assert code == 0
        assert "nan" not in " ".join(p.read_text() for p in out.glob("*.csv"))

    @pytest.mark.parametrize("sub", ["eigen", "convergence"])
    @pytest.mark.parametrize("alpha", ["1", "0.75"])
    @pytest.mark.parametrize("T", ["1e200", "1e-200"])
    def test_span_past_the_stencil_range_is_status_one(self, tmp_path, capsys, sub, alpha, T):
        # the stencil divides by products of two cell widths, which overflow
        # (1e200) or leave the normal range (1e-200) on these spans
        code, _, report = run_cli(tmp_path, sub, "--alpha", alpha, "--T", T, "--grid-n", "33")
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert "cell widths" in err and "normal float range [2.22507e-308, 1.79769e+308]" in err
        assert "infs or NaNs" not in err

    @pytest.mark.parametrize("alpha", ["1", "0.75"])
    def test_overflow_in_a_valid_spec_is_a_numerical_failure(self, tmp_path, capsys, alpha):
        # the span passes validation, but A^-1 is of order T^2 = 1e240 and
        # the Lanczos iterates overflow
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", alpha, "--T", "1e120", "--grid-n", "33")
        assert code == 2 and report is None
        assert "numerical failure: principal eigenpair: overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("i", [-2, 1])
    def test_failed_triangular_solve_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch, i
    ):
        # a zero on the diagonal of V = table[1:] leaves the tent table's
        # triangular solves without a pivot (a non-uniform grid keeps the table)
        real = psifrac.operators._tent_table

        def singular(u, alpha):
            table = real(u, alpha)
            table[1:][i, i] = 0.0
            return table

        monkeypatch.setattr(psifrac.operators, "_tent_table", singular)
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "33", "--psi", "square"
        )
        assert code == 2 and report is None
        row = 1 + i % 32
        err = capsys.readouterr().err
        assert f"numerical failure: assembly: the tent table has a zero on its diagonal (row {row})" in err

    def test_zero_symbol_diagonal_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a uniform grid keeps the table's row 1, whose first entry is every
        # interior row's pivot
        real = psifrac.operators._symbol

        def singular(u, alpha):
            r, h = real(u, alpha)
            return np.concatenate(([0.0], r[1:])), h

        monkeypatch.setattr(psifrac.operators, "_symbol", singular)
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "33")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err == "numerical failure: assembly: the tent table has a zero on its diagonal (row 1)\n"

    @pytest.mark.parametrize(
        "exc, shown",
        [
            (MemoryError("Unable to allocate 728. TiB"), "Unable to allocate 728. TiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_failed_allocation_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch, exc, shown
    ):
        # as the n x (n - 1) tent table of a non-uniform grid at n = 1e7
        # fails; nothing is allocated here
        def no_memory(u, alpha):
            raise exc

        monkeypatch.setattr(psifrac.operators, "_tent_table", no_memory)
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "33", "--psi", "square"
        )
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"numerical failure: assembly: {shown}\n"

    def test_non_finite_load_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # the table's solve refuses a NaN right-hand side, as a dense LU did
        seen = []

        def nan_load(op):
            seen.append(op.factorization)
            return op.solve_interior(np.full(op.n - 2, np.nan))

        monkeypatch.setattr(cli, "solve_e", nan_load)
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "33", "--psi", "square"
        )
        assert code == 2 and report is None and seen == ["tent table"]
        err = capsys.readouterr().err
        assert "numerical failure: e-solve: array must not contain infs or NaNs" in err

    def test_non_finite_load_on_a_uniform_grid_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # and so do the FFT solves of a uniform grid
        seen = []

        def nan_load(op):
            seen.append(op.factorization)
            return op.solve_interior(np.full(op.n - 2, np.nan))

        monkeypatch.setattr(cli, "solve_e", nan_load)
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", "--grid-n", "33")
        assert code == 2 and report is None and seen == ["toeplitz"]
        err = capsys.readouterr().err
        assert "numerical failure: e-solve: array must not contain infs or NaNs" in err

    @pytest.mark.parametrize("alpha", ["1", "0.75"])
    def test_convergence_on_a_wide_valid_span_runs(self, tmp_path, alpha):
        code, out, _ = run_cli(tmp_path, "convergence", "--alpha", alpha, "--T", "1e120")
        assert code == 0
        text = (out / "convergence.csv").read_text()
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize(
        "alpha,T,bound",
        [
            # the order-1 int_left rule squares u ~ 1e155
            pytest.param(
                "1",
                "1e155",
                "(psi(T) - psi(0))^(1 + alpha) must not exceed 1.79769e+308",
                id="int_left_power",
            ),
            # the n = 64 cells are four times as wide as the spec's n = 257 ones
            pytest.param("0.75", "1e156", "convergence grid n = 64: cell widths", id="widths"),
        ],
    )
    def test_convergence_table_past_its_bound_is_status_one(
        self, tmp_path, capsys, alpha, T, bound
    ):
        # the spec at grid_n = 257 is valid; the table's own grids are not
        code, _, report = run_cli(tmp_path, "convergence", "--alpha", alpha, "--T", T)
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert bound in err and "overflow" not in err

    def test_convergence_power_bound_is_exact(self, tmp_path):
        # sqrt of the largest float is the last span whose square is finite
        span = math.sqrt(np.finfo(float).max)
        code, out, _ = run_cli(tmp_path, "convergence", "--alpha", "1", "--T", repr(span))
        assert code == 0
        text = (out / "convergence.csv").read_text()
        assert "nan" not in text and "inf" not in text
        past = repr(float(np.nextafter(span, np.inf)))
        assert run_cli(tmp_path, "convergence", "--alpha", "1", "--T", past)[0] == 1

    def test_wide_span_reaches_the_verifier(self, tmp_path, capsys):
        # zeta ~ lambda^2 * e_sup ~ 3e122 is found, and the run stops later
        code, _, _ = run_cli(tmp_path, "solve", "--grid-n", "33", "--alpha", "1", "--T", "1e60")
        assert code == 2
        err = capsys.readouterr().err
        assert "not sublinear" not in err
        assert "numerical failure: verification: overflow" in err

    def test_tiny_normal_integral_order_runs(self, tmp_path):
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--beta", "1e-200", "--grid-n", "33"
        )
        assert code == 0
        assert np.isfinite(report["lambda1"])


class TestDiagnostics:
    SWEEP = ["--sweep-min", "40", "--sweep-max", "50", "--sweep-step", "10"]

    @pytest.mark.parametrize("sub", ["eigen", "solve", "verify", "sweep"])
    def test_interior_storage_in_report_only(self, tmp_path, sub):
        extra = self.SWEEP if sub == "sweep" else []
        code, out, report = run_cli(tmp_path, sub, *FAST, *extra)
        assert code == 0
        interior = report["diagnostics"]["interior"]
        assert interior == {"factorization": "stiffness"}
        # the CSVs carry no diagnostics, so their bytes do not depend on them
        for path in out.glob("*.csv"):
            assert "stiffness" not in path.read_text()

    @pytest.mark.parametrize("lam, stop", [("50", "residual"), ("5", "pinned")])
    def test_picard_diagnostics_in_report_only(self, tmp_path, lam, stop):
        code, out, report = run_cli(tmp_path, "solve", *FAST, "--lambda", lam)
        solve, picard = report["solve"], report["diagnostics"]["picard"]
        assert code == (0 if solve["converged"] else 2)
        assert picard["stop"] == stop
        assert picard["solves"] == solve["iterations"]
        if stop == "residual":
            assert picard["pinned_nodes"] == 0
        else:
            # pinned below mu1: the solve stops at the first bitwise repeat
            assert solve["iterations"] <= 5 and solve["damped_steps"] == 0
            assert 0 < picard["pinned_nodes"] <= solve["projection_last10"]
        assert stop not in (out / "solve.csv").read_text()

    @pytest.mark.parametrize("sub", ["eigen", "solve", "verify", "sweep"])
    def test_eigen_diagnostics_in_report_only(self, tmp_path, sub):
        extra = self.SWEEP if sub == "sweep" else []
        code, out, report = run_cli(tmp_path, sub, *FAST, *extra)
        assert code == 0
        eig = report["diagnostics"]["eigen"]
        assert set(eig) == {"solves", "residual", "threshold", "lambda2", "psi1_error_estimate"}
        assert eig["solves"] <= min(20, 65 - 2) + 1
        # the pipeline's tol is min(--tol, 1e-8)
        assert eig["threshold"] == 10.0 * 1e-9 * abs(report["lambda1"])
        assert eig["residual"] <= eig["threshold"]
        # at alpha = 1, identity psi, lambda2 is the second mode, the first
        # antisymmetric about the midpoint: about 4 lambda1 (3.998 lambda1 here)
        assert abs(eig["lambda2"] - 4.0 * report["lambda1"]) <= 0.02 * 4.0 * report["lambda1"]
        gap = eig["lambda2"] - report["lambda1"]
        assert eig["psi1_error_estimate"] == eig["residual"] / gap
        for path in out.glob("*.csv"):
            assert "lambda2" not in path.read_text()

    def test_fractional_interior_is_the_tent_table(self, tmp_path):
        code, out, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", *FAST, "--psi", "square")
        assert code == 0
        # the block of 63 rows is full, and solved through K's triangular
        # factor, on a non-uniform grid
        interior = report["diagnostics"]["interior"]
        assert interior == {"factorization": "tent table"}
        for path in out.glob("*.csv"):
            assert "tent" not in path.read_text()

    def test_fractional_interior_on_a_uniform_grid_is_toeplitz(self, tmp_path):
        code, out, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", *FAST)
        assert code == 0
        # the same full block, solved by FFTs with the table's row 1
        interior = report["diagnostics"]["interior"]
        assert interior == {"factorization": "toeplitz"}
        for path in out.glob("*.csv"):
            assert "toeplitz" not in path.read_text()


def _probe(code: str) -> str:
    """stdout of a fresh interpreter running code with this psifrac on its path."""
    src = str(Path(psifrac.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_the_cli_does_not_load_scipy_special():
    # the gamma function comes from math, and importing the CLI loads no
    # scipy at all, so scipy.special stays out
    assert _probe("import sys, psifrac.cli; print('scipy.special' in sys.modules)") == "False"


@pytest.mark.parametrize("alpha", ["1", "0.75"])
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_no_run_loads_scipy(tmp_path, sub, alpha):
    # every pipeline runs in numpy alone, at alpha = 1 and below
    extra = TestDiagnostics.SWEEP if sub == "sweep" else []
    argv = [sub, *extra, "--alpha", alpha, "--grid-n", "33", "--output-dir", str(tmp_path)]
    code = (
        "import sys, psifrac.cli; "
        f"code = psifrac.cli.main({argv!r}); "
        "print(code, 'scipy' in sys.modules)"
    )
    assert _probe(code) == "0 False"


class TestDeterminism:
    def test_identical_configs_reproduce_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["eigen", *FAST, "--output-dir", str(out)])
            assert code == 0
            outs.append((out / "eigen.csv").read_bytes())
        assert outs[0] == outs[1]


class TestOutputLayer:
    """The column writer and the shared-option parser against their row-by-row references."""

    SPECIAL = [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        0.1,
        1.0 / 3.0,
        1e16,
        123456789012345678.0,
    ]

    def _same_bytes(self, tmp_path, header, columns):
        write_csv(tmp_path / "new.csv", header, columns)
        write_csv_reference(tmp_path / "ref.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_special_floats(self, tmp_path):
        col = np.array(self.SPECIAL)
        self._same_bytes(tmp_path, ["v", "neg"], (col, -col))

    def test_random_bit_patterns(self, tmp_path):
        # every float64 class: normal, subnormal, zero, inf and nan payloads
        bits = np.random.default_rng(7).integers(0, 2**64, size=(3, 4000), dtype=np.uint64)
        cols = bits.view(np.float64)
        self._same_bytes(tmp_path, ["a", "b", "c"], tuple(cols))

    def test_bool_columns(self, tmp_path):
        flags = np.random.default_rng(3).integers(0, 2, size=50).astype(bool)
        self._same_bytes(
            tmp_path,
            ["x", "flag", "same_as_tuple"],
            (np.linspace(0.0, 1.0, 50), flags, tuple(bool(f) for f in flags)),
        )

    def test_int_and_text_columns(self, tmp_path):
        # the convergence table's column kinds; text passes through as it is
        self._same_bytes(tmp_path, ["n", "err"], ((64, 128), (0.5, 0.1)))
        write_csv(
            tmp_path / "table.csv",
            ["n", "name", "err", "rate"],
            ((64, 128), ("int_left", "hilfer_left"), (0.5, 0.1), ("", "%.17g" % 1.0)),
        )
        text = (tmp_path / "table.csv").read_text()
        assert text == "n,name,err,rate\n64,int_left,0.5,\n128,hilfer_left,0.10000000000000001,1\n"

    def test_zero_rows(self, tmp_path):
        self._same_bytes(tmp_path, ["x", "u"], (np.array([]), np.array([])))
        assert (tmp_path / "new.csv").read_text() == "x,u\n"

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], (np.zeros(3), np.zeros(2)))

    def test_help_matches_reference(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        new, ref = build_parser(), build_parser_reference()
        assert new.format_help() == ref.format_help()
        sub_new = new._subparsers._group_actions[0].choices
        sub_ref = ref._subparsers._group_actions[0].choices
        assert list(sub_new) == list(sub_ref) == list(SUBCOMMANDS)
        for name in SUBCOMMANDS:
            assert sub_new[name].format_help() == sub_ref[name].format_help()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "--output-dir", "o", "--alpha", "0.75", "--psi", "square"],
            ["solve", "--output-dir", "o", "--grid-n", "1025", "--lambda", "50", "--from-super"],
            ["verify", "--config", "c.cfg", "--output-dir", "o", "--T", "2", "--max-iter", "9"],
            ["sweep", "--output-dir", "o", "--sweep-min", "0.7", "--sweep-step", "4"],
            ["convergence", "--output-dir", "o", "--beta", "0.25", "--zeta-inf", "3"],
        ],
    )
    def test_parse_matches_reference(self, argv):
        assert vars(build_parser().parse_args(argv)) == vars(
            build_parser_reference().parse_args(argv)
        )

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_missing_output_dir_matches_reference(self, sub, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        errors = []
        for parser in (build_parser(), build_parser_reference()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([sub, "--grid-n", "33"])
            errors.append((exc.value.code, capsys.readouterr().err))
        assert errors[0] == errors[1]
        assert errors[0][0] == 2 and "--output-dir" in errors[0][1]
