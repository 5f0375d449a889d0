import json

import numpy as np
import pytest

from psifrac.cli import main

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
        later = lines[2].split(",")
        assert float(later[4]) > 0  # error shrinks with n
        # the table needs no eigenpair: the report holds the table only
        assert set(report) == {"schema", "version", "config", "convergence"}
        assert len(report["convergence"]) == 3


class TestFractionalCorners:
    def test_nonpositive_bottom_eigenvalue_reported(self, tmp_path):
        # off the catalog (T = 10, nine nodes) the discrete composed operator
        # has a negative bottom mode; the threshold is reported as null, not
        # fabricated
        code, _, report = run_cli(
            tmp_path, "eigen", "--alpha", "0.75", "--beta", "0", "--psi", "log1p",
            "--T", "10", "--grid-n", "9",
        )
        assert code == 0
        assert report["lambda1"] < 0
        assert report["mu1"] is None
        assert "mu1_note" in report
        assert report["eigen"]["positive_interior"] is False

    @pytest.mark.parametrize("sub", ["solve", "verify", "sweep"])
    def test_sign_changing_psi1_is_numerical_failure(self, tmp_path, capsys, sub):
        # at beta = 1 e is positive but psi1 changes sign: status 2 with the
        # reason, not the status-1 refusal of a clipped phi's singular term
        code, _, _ = run_cli(tmp_path, sub, "--alpha", "0.75", "--beta", "1", *FAST)
        assert code == 2
        assert "psi1 is not positive" in capsys.readouterr().err

    def test_solve_refusal_is_numerical_failure(self, tmp_path, capsys):
        # build_pair refuses a sign-changing e field: status 2, not 1
        code, _, _ = run_cli(
            tmp_path, "solve", "--alpha", "0.9", "--grid-n", "65", "--tol", "1e-8"
        )
        assert code == 2
        assert "not positive" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag", ["--lambda", "--zeta0", "--zeta-inf", "--tol"])
    def test_nan_is_status_one(self, tmp_path, capsys, flag):
        code, _, _ = run_cli(tmp_path, "eigen", "--grid-n", "17", flag, "nan")
        assert code == 1
        assert "nan" in capsys.readouterr().err

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
        # (psi(T) - psi(0))/(1 - alpha) overflows at T = 1e293
        code, _, _ = run_cli(
            tmp_path, sub, "--alpha", repr(1.0 - 2.0**-53), "--T", "1e293", "--grid-n", "33"
        )
        assert code == 1
        assert "integral order 1 - alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["eigen", "convergence"])
    def test_integral_order_above_interval_bound_runs(self, tmp_path, sub):
        # the smallest nonzero order, 2^-53, on an interval short enough for it
        code, out, report = run_cli(
            tmp_path, sub, "--alpha", repr(1.0 - 2.0**-53), "--T", "100", "--grid-n", "33"
        )
        assert code == 0
        assert "nan" not in " ".join(p.read_text() for p in out.glob("*.csv"))

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
        assert interior == {"factorization": "banded", "bandwidth": [2, 2]}
        # the CSVs carry no diagnostics, so their bytes do not depend on them
        for path in out.glob("*.csv"):
            assert "banded" not in path.read_text()

    def test_fractional_interior_is_dense(self, tmp_path):
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", "0.75", *FAST)
        assert code == 0
        interior = report["diagnostics"]["interior"]
        assert interior["factorization"] == "dense"
        kl, ku = interior["bandwidth"]
        # the block has 63 rows, and its LU band would not be smaller
        assert 2 * kl + ku + 1 >= 63


class TestDeterminism:
    def test_identical_configs_reproduce_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["eigen", *FAST, "--output-dir", str(out)])
            assert code == 0
            outs.append((out / "eigen.csv").read_bytes())
        assert outs[0] == outs[1]
