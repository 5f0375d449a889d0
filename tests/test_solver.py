import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psifrac.operators
from oracles import form_matrix, newton_fd_bvp, picard_reference, tent_form_reference
from psifrac import (
    SolveReport,
    build_pair,
    comparison_check,
    empirical_mu2,
    linear_majorant,
    make_spec,
    nonexistence_threshold,
    picard_block,
    principal_eigenpair,
    solve_e,
    solve_between,
)
from psifrac.analysis import SubSuperPair
from psifrac.cli import main
from psifrac.core import Nonlinearity, NonlinearityKind
from psifrac.operators import assemble_composed

KIRCHHOFF = {
    "constant": {},
    "affine": dict(zeta0=1.0, zeta_inf=2.0),
    "saturating": dict(zeta0=1.0, zeta_inf=2.0),
}


@functools.cache
def _problem(n, m):
    """The alpha = 1 problem at grid size n and Kirchhoff kind m: spec, op, eig, e."""
    spec = make_spec(alpha=1.0, nu=0.5, grid_n=n, m=m, **KIRCHHOFF[m])
    op = assemble_composed(spec)
    return spec, op, principal_eigenpair(op, tol=1e-9), solve_e(op)


@functools.cache
def _fixed_point_solve():
    """The n = 769 solve at lambda = 100 with tol = 1e-14, below its rounding floor."""
    spec, op, eig, e = _problem(769, "constant")
    spec = dataclasses.replace(spec, lam=100.0)
    pair = build_pair(spec, eig, e, 0.8)
    return solve_between(
        pair, spec, dataclasses.replace(op, spec=spec), tol=1e-14, max_iter=200
    )


def _at(n, m, lam, nu=0.5):
    """Spec, operator and pair of `_problem(n, m)` at lambda and nu, r mid-window."""
    spec, op, eig, e = _problem(n, m)
    spec = dataclasses.replace(spec, lam=lam, nu=nu)
    r = 0.5 * (1.0 / (1.0 + nu) + 1.0)
    return spec, dataclasses.replace(op, spec=spec), build_pair(spec, eig, e, r)


def assert_same_report(got, want):
    for f in dataclasses.fields(SolveReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "u":
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@pytest.fixture(scope="module")
def catalog_solution(catalog_pair, catalog_spec, catalog_op):
    return solve_between(
        catalog_pair, catalog_spec, catalog_op, tol=1e-10, max_iter=400, verified=False
    )


class TestPicardStep:
    """The projected Picard step, as the first iteration of `solve_between`."""

    def test_fixed_point_is_preserved(self, catalog_solution, catalog_pair, catalog_spec, catalog_op):
        # one step from the solution, clipped at it from above and from below
        # in turn: together the two clips leave the whole step
        u = catalog_solution.u
        for phi, xi, from_super in ((catalog_pair.phi, u, True), (u, catalog_pair.xi, False)):
            pair = SubSuperPair(phi=phi, xi=xi, zeta=catalog_pair.zeta)
            v = solve_between(pair, catalog_spec, catalog_op, max_iter=1, from_super=from_super).u
            assert np.abs(v - u).max() <= 1e-8 * (1.0 + np.abs(u).max())

    def test_first_step_climbs_at_midpoint(self, catalog_pair, catalog_spec, catalog_op):
        v = solve_between(catalog_pair, catalog_spec, catalog_op, max_iter=1).u
        mid = catalog_op.n // 2
        assert v[mid] > catalog_pair.phi[mid]

    def test_zero_reaction_clamps_to_phi(self, catalog_spec, catalog_eig, catalog_e, catalog_op):
        # with h == 0 the right side is negative, the raw solve lands below
        # phi everywhere, and projection lifts it back exactly onto phi: the
        # first step repeats phi bitwise with every interior node pinned
        spec = dataclasses.replace(catalog_spec, h=Nonlinearity(NonlinearityKind.ZERO))
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        res = solve_between(pair, spec, op)
        assert res.u == pytest.approx(pair.phi, abs=0)
        assert res.stop == "pinned" and res.iterations == 1 and not res.converged
        assert res.pinned_nodes == spec.grid.n - 2

    def test_zero_rhs_solves_to_zero(self, catalog_op):
        v = catalog_op.solve_interior(np.zeros(catalog_op.n - 2))
        assert np.all(v == 0.0)


class TestSolveBetween:
    def test_catalog_problem_converges(self, catalog_solution, catalog_pair):
        res = catalog_solution
        assert res.converged
        assert res.final_residual < 1e-8
        assert res.sandwich_ok
        assert res.positive
        assert np.all(res.u >= catalog_pair.phi - 1e-12)
        assert np.all(res.u <= catalog_pair.xi + 1e-12)

    def test_projection_goes_quiet(self, catalog_solution):
        assert catalog_solution.projection_last10 == 0

    def test_residual_decreases(self, catalog_solution):
        hist = catalog_solution.residual_history
        assert hist[-1] < hist[0]

    def test_kirchhoff_coefficient_in_bounds(self, catalog_solution, catalog_spec):
        m = catalog_spec.m
        assert m.zeta0 <= catalog_solution.kirchhoff_coeff_final <= m.zeta_inf

    def test_matches_classical_bvp_oracle(self, catalog_solution, catalog_spec):
        # independent three-point Newton solve on a fine mesh; the sup gap
        # at n=257 is dominated by the composed operator's own truncation
        # error (the stencil acts at doubled spacing), measured ~4.9e-3
        x_o, u_o = newton_fd_bvp(50.0, np.sqrt, 0.5, n=8193)
        u_interp = np.interp(catalog_spec.grid.x, x_o, u_o)
        assert np.abs(catalog_solution.u - u_interp).max() < 1e-2

    def test_below_threshold_collapses(self, catalog_spec, catalog_eig, catalog_e, catalog_op):
        # lambda = 5 sits below mu1 ~ 9.87: no positive solution; iterates
        # pin to the clamp floor and the projection stays active
        spec = dataclasses.replace(catalog_spec, lam=5.0)
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        res = solve_between(pair, spec, op, tol=1e-10, max_iter=120, verified=False)
        assert not res.converged and res.stop == "pinned"
        assert res.projection_activity[-1] > 0
        assert sum(res.projection_activity) > 100

    def test_pinned_iterate_is_not_solved_again_on_the_band(
        self, catalog_spec, catalog_eig, catalog_e, catalog_op, monkeypatch
    ):
        # below mu1 the first step lands on phi and the next repeats it
        # bitwise: the solve stops there, and its report counts the
        # iterations it solved.  Solves are counted through the operator's
        # own solve, which at alpha = 1 is the tridiagonal stiffness's two
        # cumulative sums
        assert catalog_op.factorization == "stiffness"
        spec = dataclasses.replace(catalog_spec, lam=5.0)
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        solves = []
        solve_form = psifrac.operators.ComposedOperator.solve_form

        def counting(self, rhs):
            solves.append(1)
            return solve_form(self, rhs)

        monkeypatch.setattr(psifrac.operators.ComposedOperator, "solve_form", counting)
        res = solve_between(pair, spec, op, tol=1e-10, max_iter=120, verified=False)
        assert res.stop == "pinned" and res.iterations == len(solves) <= 5
        assert res.damped_steps == 0

    def test_fixed_point_at_rounding_floor_converges(self):
        # at tol = 1e-14 the residual clause, residual <= 1e-12, cannot fire:
        # the rounding floor of the residual at n = 769 is about 1e-8.  So
        # the solve can only stop at an iterate that repeats bitwise with no
        # bound active, by construction and not by rounding luck
        res = _fixed_point_solve()
        assert res.stop == "fixed point" and res.converged and res.iterations < 200
        assert res.pinned_nodes == 0
        assert res.final_residual > 100.0 * 1e-14
        assert res.sandwich_ok and res.positive

    def test_degenerate_pair_returns_zero(self, catalog_spec, catalog_op):
        n = catalog_spec.grid.n
        pair = SubSuperPair(phi=np.zeros(n), xi=np.zeros(n), zeta=1.0)
        res = solve_between(pair, catalog_spec, catalog_op, verified=False)
        assert res.iterations == 0
        assert not res.positive
        assert np.all(res.u == 0.0)

    def test_unordered_pair_rejected(self, catalog_pair, catalog_spec, catalog_op):
        bad = SubSuperPair(phi=catalog_pair.xi, xi=catalog_pair.phi, zeta=catalog_pair.zeta)
        with pytest.raises(ValueError, match="ordered"):
            solve_between(bad, catalog_spec, catalog_op)

    def test_override_recorded(self, catalog_solution):
        assert catalog_solution.override is True

    def test_from_super_descends_to_same_solution(
        self, catalog_pair, catalog_spec, catalog_op, catalog_solution
    ):
        # whether ascending and descending limits agree is recorded per
        # experiment; for the catalog problem they do
        res = solve_between(
            catalog_pair,
            catalog_spec,
            catalog_op,
            tol=1e-10,
            max_iter=400,
            from_super=True,
            verified=False,
        )
        assert res.converged
        assert res.from_super
        assert np.abs(res.u - catalog_solution.u).max() < 1e-6

    def test_affine_kirchhoff_solve(self):
        # the capped-affine coefficient saturates at zeta_inf = 2, halving
        # the effective reaction, so the climb needs a larger lambda than
        # the constant-coefficient problem
        spec = make_spec(
            alpha=1.0, grid_n=129, lam=150.0, m="affine", zeta0=1.0, zeta_inf=2.0
        )
        op = assemble_composed(spec)
        from psifrac import principal_eigenpair, solve_e

        eig = principal_eigenpair(op, tol=1e-9)
        e = solve_e(op)
        pair = build_pair(spec, eig, e, 0.8)
        res = solve_between(pair, spec, op, tol=1e-10, max_iter=400, verified=False)
        assert res.converged and res.positive
        assert spec.m.zeta0 <= res.kirchhoff_coeff_final <= spec.m.zeta_inf

    def test_energy_monotone_in_lambda_above_mu2(
        self, catalog_spec, catalog_eig, catalog_e, catalog_op
    ):
        energies = []
        for lam in (80.0, 100.0, 125.0, 150.0):
            spec = dataclasses.replace(catalog_spec, lam=lam)
            op = dataclasses.replace(catalog_op, spec=spec)
            pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
            res = solve_between(pair, spec, op, tol=1e-10, max_iter=400, verified=True)
            assert res.converged and res.positive
            energies.append(res.energy_final)
        assert all(b >= a for a, b in zip(energies, energies[1:]))


class TestMatchesReference:
    """solve_between against the loop that solves every iteration, bitwise."""

    @pytest.mark.parametrize("from_super", [False, True])
    @pytest.mark.parametrize("lam", [5.0, 30.0, 90.0])
    @pytest.mark.parametrize("m", sorted(KIRCHHOFF))
    @pytest.mark.parametrize("n", [65, 129])
    def test_catalog_grid(self, n, m, lam, from_super):
        # with M constant, 5 sits below mu1, 30 in the gap below mu2 and 90
        # above mu2; affine and saturating M exercise the non-constant freeze
        spec, op, pair = _at(n, m, lam)
        kw = dict(tol=1e-10, max_iter=200, from_super=from_super, verified=False)
        assert_same_report(
            solve_between(pair, spec, op, **kw), picard_reference(pair, spec, op, **kw)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        lam=st.floats(0.5, 100.0),
        nu=st.floats(0.05, 0.95),
        from_super=st.booleans(),
    )
    def test_property(self, lam, nu, from_super):
        spec, op, pair = _at(33, "constant", lam, nu)
        kw = dict(tol=1e-10, max_iter=120, from_super=from_super, verified=False)
        assert_same_report(
            solve_between(pair, spec, op, **kw), picard_reference(pair, spec, op, **kw)
        )

    def test_damped_row(self):
        # exp_minus_one psi, nu = 0.3, lambda = 10.52 from phi at n = 65: the
        # damping switch turns on at iteration 50 while the row still solves
        spec = make_spec(alpha=1.0, grid_n=65, nu=0.3, psi="exp_minus_one", lam=10.52)
        op = assemble_composed(spec)
        pair = build_pair(spec, principal_eigenpair(op, tol=1e-9), solve_e(op), 0.8)
        kw = dict(tol=1e-10, max_iter=400, verified=False)
        res = solve_between(pair, spec, op, **kw)
        assert_same_report(res, picard_reference(pair, spec, op, **kw))
        assert 0 < res.damped_steps <= res.iterations - 50


class TestPicardBlock:
    """Every row of the block against `solve_between` on its pair alone, field by field."""

    # psi = exp_minus_one, nu = 0.3 (mu1 = 3.34, mu2 = 20): 2 lies below
    # mu1 and pins at the bound, 5, 10.5 and 10.52 pin in the gap, and 30
    # to 100 converge; damping switches on at iteration 50 while 10.52
    # (from phi at n = 65) and 10.5 (from xi) still solve
    LAMS = (2.0, 5.0, 10.52, 10.5, 30.0, 60.0, 100.0)

    @pytest.mark.parametrize(
        "n, from_super, damped",
        [(65, False, 10.52), (65, True, 10.5), (257, False, None), (257, True, 10.5)],
    )
    def test_rows_match_single_solves(self, n, from_super, damped):
        spec = make_spec(alpha=1.0, grid_n=n, nu=0.3, psi="exp_minus_one")
        op = assemble_composed(spec)
        eig, e = principal_eigenpair(op, tol=1e-9), solve_e(op)
        specs = [dataclasses.replace(spec, lam=lam) for lam in self.LAMS]
        pairs = [build_pair(s, eig, e, 0.8) for s in specs]
        kw = dict(tol=1e-10, max_iter=400, from_super=from_super)
        got = dict(picard_block(pairs, spec, self.LAMS, op, **kw))
        assert sorted(got) == list(range(len(self.LAMS)))
        for j, (s, pair) in enumerate(zip(specs, pairs)):
            want = solve_between(pair, s, dataclasses.replace(op, spec=s), **kw)
            assert_same_report(got[j], want)
        stops = [got[j].stop for j in range(len(self.LAMS))]
        assert stops[:2] == ["pinned", "pinned"] and stops[-3:] == ["residual"] * 3
        by_lam = dict(zip(self.LAMS, (got[j] for j in range(len(self.LAMS)))))
        if damped is not None:
            assert by_lam[damped].damped_steps > 0

    def test_fractional_rows_match_single_solves(self):
        # below alpha = 1 the block solves and multiplies row by row
        spec = make_spec(alpha=0.75, grid_n=65)
        op = assemble_composed(spec)
        eig, e = principal_eigenpair(op, tol=1e-9), solve_e(op)
        lams = (2.0, 10.0, 30.0)
        specs = [dataclasses.replace(spec, lam=lam) for lam in lams]
        pairs = [build_pair(s, eig, e, 0.8) for s in specs]
        got = dict(picard_block(pairs, spec, lams, op, tol=1e-10, max_iter=200))
        for j, (s, pair) in enumerate(zip(specs, pairs)):
            want = solve_between(pair, s, dataclasses.replace(op, spec=s), tol=1e-10, max_iter=200)
            assert_same_report(got[j], want)
        assert got[0].stop == "pinned" and got[2].stop == "residual"

    def test_rows_leave_as_they_stop(self, small_spec, small_op, small_eig, small_e):
        # a row is yielded when it stops: the one pinned at once before the one that converges
        lams = (60.0, 2.0)
        pairs = [
            build_pair(dataclasses.replace(small_spec, lam=lam), small_eig, small_e, 0.8)
            for lam in lams
        ]
        order = [j for j, _ in picard_block(pairs, small_spec, lams, small_op, max_iter=100)]
        assert order == [1, 0]

    def test_fixed_point_stop_is_reported(self):
        # test_fixed_point_at_rounding_floor_converges' solve, as the report names it
        res = _fixed_point_solve()
        assert res.stop == "fixed point"
        assert res.pinned_nodes == 0

    def test_mismatched_lambdas_rejected(self, catalog_pair, catalog_spec, catalog_op):
        with pytest.raises(ValueError, match="2 pairs for 1 lambda"):
            list(picard_block([catalog_pair] * 2, catalog_spec, [50.0], catalog_op))


class TestReportCountsWorkDone:
    """Every iteration a report counts was solved, pinned ones included."""

    @staticmethod
    def _check(res, max_iter):
        assert len(res.residual_history) == len(res.projection_activity) == res.iterations
        assert res.iterations <= max_iter
        assert res.damped_steps <= max(0, res.iterations - 50)
        if res.stop == "pinned":
            assert not res.converged and res.pinned_nodes > 0

    @settings(deadline=None, max_examples=40)
    @given(
        lam=st.floats(0.5, 100.0),
        nu=st.floats(0.05, 0.95),
        from_super=st.booleans(),
    )
    def test_property(self, lam, nu, from_super):
        spec, op, pair = _at(33, "constant", lam, nu)
        kw = dict(tol=1e-10, max_iter=120, from_super=from_super)
        self._check(solve_between(pair, spec, op, **kw), 120)
        lams = (2.0, lam, 60.0)
        pairs = [_at(33, "constant", x, nu)[2] for x in lams]
        rows = dict(picard_block(pairs, spec, lams, op, **kw))
        assert sorted(rows) == [0, 1, 2]
        for res in rows.values():
            self._check(res, 120)
        r = 0.5 * (1.0 / (1.0 + nu) + 1.0)
        argv = ["solve", "--grid-n=33", f"--lambda={lam}", f"--nu={nu}", f"--r={r}", "--max-iter=120"]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            main([*argv, *(["--from-super"] if from_super else []), "--output-dir", str(out)])
            report = json.loads((out / "report.json").read_text())
        solve, picard = report["solve"], report["diagnostics"]["picard"]
        assert picard["solves"] == solve["iterations"] == len(solve["residual_history"])


class TestComparisonCheck:
    def test_equal_fields_consistent(self, catalog_spec, catalog_op):
        th = np.sin(np.pi * catalog_spec.grid.x)
        assert comparison_check(th, th, catalog_spec, catalog_op) == "consistent"

    def test_scaled_sine_consistent(self, catalog_spec, catalog_op):
        th = np.sin(np.pi * catalog_spec.grid.x)
        assert comparison_check(th, 2.0 * th, catalog_spec, catalog_op) == "consistent"

    def test_reversed_scaling_fails_hypothesis(self, catalog_spec, catalog_op):
        th = np.sin(np.pi * catalog_spec.grid.x)
        assert comparison_check(2.0 * th, th, catalog_spec, catalog_op) == "hypothesis-fails"

    def test_superharmonic_bump_consistent(self, catalog_spec, catalog_op, catalog_e):
        # theta2 = theta1 + nonnegative field with A s = 1 >= 0
        th = np.sin(np.pi * catalog_spec.grid.x)
        assert comparison_check(th, th + catalog_e, catalog_spec, catalog_op) == "consistent"

    def test_affine_kirchhoff_consistent(self, catalog_e):
        spec = make_spec(alpha=1.0, grid_n=65, m="affine", zeta0=1.0, zeta_inf=3.0)
        op = assemble_composed(spec)
        th = np.sin(np.pi * spec.grid.x)
        assert comparison_check(th, 2.0 * th, spec, op) == "consistent"

    def test_fractional_counterexample_is_flagged(self):
        # a field s with B(s, w_i) = delta_ij that is negative somewhere
        # would make theta2 = theta1 + s satisfy the hypothesis and break the
        # order.  At alpha = 0.9 the form matrix K_int is inverse-positive,
        # so there is none: every such s is nonnegative and the check finds
        # the pair consistent
        spec = make_spec(alpha=0.9, grid_n=65)
        op = assemble_composed(spec)
        n = spec.grid.n
        K = form_matrix(op)[:, 1:-1]
        ref = tent_form_reference(spec)[:, 1:-1]
        assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()
        Kinv = np.linalg.inv(K)
        assert Kinv.min() >= 0.0
        _, jcol = np.unravel_index(np.argmin(Kinv), Kinv.shape)
        s = np.zeros(n)
        s[1:-1] = Kinv[:, jcol]
        s /= np.abs(s).max()
        theta1 = np.sin(np.pi * spec.grid.x)
        theta2 = theta1 + 1e-3 * s
        assert comparison_check(theta1, theta2, spec, op) == "consistent"

    def test_boundary_violation_rejected(self, catalog_spec, catalog_op):
        th = np.ones(catalog_spec.grid.n)
        with pytest.raises(ValueError, match="vanish"):
            comparison_check(th, th, catalog_spec, catalog_op)


def test_fractional_dichotomy():
    # gate 8 at alpha = 0.75, beta = 0.5, n = 257, lambda from 0.5 to 100.5
    # in steps of 4: no positive solution below mu1, every lambda above mu2
    # solves sandwiched and positive (mu1 = 4.193, mu2 = 18.25; the steps
    # up to 12.5 do not solve, those from 16.5 on all do)
    spec = make_spec(alpha=0.75, beta=0.5, grid_n=257, lam=50.0)
    op = assemble_composed(spec)
    eig = principal_eigenpair(op, tol=1e-9)
    e = solve_e(op)
    maj = linear_majorant(spec.h, spec.nu, a=1.0, s_max=1e6)
    mu1 = nonexistence_threshold(eig.lambda1, spec.m.zeta_inf, maj.a)
    mu2 = empirical_mu2(spec, op, eig, e, 0.8)
    assert mu2 is not None and mu1 < mu2
    above = 0
    for lam in np.arange(0.5, 100.6, 4.0):
        trial = dataclasses.replace(spec, lam=float(lam))
        pair = build_pair(trial, eig, e, 0.8)
        res = solve_between(
            pair, trial, dataclasses.replace(op, spec=trial), tol=1e-10, max_iter=200
        )
        if lam < mu1:
            assert not (res.converged and res.positive), lam
        if lam > mu2:
            above += 1
            assert res.converged and res.positive and res.sandwich_ok, lam
    assert above == 21
