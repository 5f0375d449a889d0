import json
import math

import numpy as np
import pytest

from oracles import build_parser_reference, write_csv_reference
from psifrac.cli import SUBCOMMANDS, build_parser, main, write_csv

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
        # the Arnoldi iterates overflow
        code, _, report = run_cli(tmp_path, "eigen", "--alpha", alpha, "--T", "1e120", "--grid-n", "33")
        assert code == 2 and report is None
        assert "numerical failure: principal eigenpair: overflow" in capsys.readouterr().err

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
