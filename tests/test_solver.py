import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psifrac.operators
from oracles import newton_fd_bvp, picard_reference
from psifrac import (
    SolveReport,
    build_pair,
    comparison_check,
    make_spec,
    picard_step,
    principal_eigenpair,
    solve_e,
    solve_between,
)
from psifrac.analysis import SubSuperPair, TentBasis
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
    def test_fixed_point_is_preserved(self, catalog_solution, catalog_pair, catalog_spec, catalog_op):
        u = catalog_solution.u
        v = picard_step(u, catalog_pair, catalog_spec, catalog_op)
        assert np.abs(v - u).max() <= 1e-8 * (1.0 + np.abs(u).max())

    def test_first_step_climbs_at_midpoint(self, catalog_pair, catalog_spec, catalog_op):
        v = picard_step(catalog_pair.phi, catalog_pair, catalog_spec, catalog_op)
        mid = catalog_op.n // 2
        assert v[mid] > catalog_pair.phi[mid]

    def test_zero_reaction_clamps_to_phi(self, catalog_spec, catalog_eig, catalog_e, catalog_op):
        # with h == 0 the right side is negative, the raw solve lands below
        # phi everywhere, and projection lifts it back exactly onto phi
        spec = dataclasses.replace(catalog_spec, h=Nonlinearity(NonlinearityKind.ZERO))
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        v = picard_step(pair.phi, pair, spec, op)
        assert v == pytest.approx(pair.phi, abs=0)

    def test_zero_rhs_solves_to_zero(self, catalog_op):
        v = catalog_op.solve_interior(np.zeros(catalog_op.n - 2))
        assert np.all(v == 0.0)

    def test_nonpositive_iterate_rejected(self, catalog_pair, catalog_spec, catalog_op):
        u = catalog_pair.phi.copy()
        u[5] = 0.0
        with pytest.raises(ValueError, match="positive"):
            picard_step(u, catalog_pair, catalog_spec, catalog_op)

    def test_out_of_interval_iterate_rejected(self, catalog_pair, catalog_spec, catalog_op):
        u = catalog_pair.xi * 1.5
        with pytest.raises(ValueError, match="order interval"):
            picard_step(u, catalog_pair, catalog_spec, catalog_op)


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
        assert not res.converged
        assert res.projection_activity[-1] > 0
        assert sum(res.projection_activity) > 100
        # the stalled residual trips the oscillation detector, so the
        # damped-averaging fallback is exercised and recorded
        assert res.damped_steps > 0

    def test_pinned_iterate_is_not_solved_again_on_the_band(
        self, catalog_spec, catalog_eig, catalog_e, catalog_op, monkeypatch
    ):
        # below mu1 the first step lands on phi and every later one repeats
        # it bitwise; the report still counts all 120 iterations and the
        # damping switch, but only the iterations up to the repeat solve.
        # Solves are counted through the operator's own solve, which at
        # alpha = 1 runs on the banded factors and never reaches lu_solve
        assert catalog_op.factorization == "banded"
        spec = dataclasses.replace(catalog_spec, lam=5.0)
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        solves = []
        solve_block = psifrac.operators.ComposedOperator.solve_block

        def counting(self, rhs):
            solves.append(1)
            return solve_block(self, rhs)

        monkeypatch.setattr(psifrac.operators.ComposedOperator, "solve_block", counting)
        res = solve_between(pair, spec, op, tol=1e-10, max_iter=120, verified=False)
        assert 1 <= len(solves) <= 5
        assert res.iterations == 120
        assert res.damped_steps > 0

    def test_fixed_point_at_rounding_floor_converges(self):
        # at n = 769 this solve reaches an iterate that repeats bitwise with
        # no bound active, yet its residual cannot fall below about 1e-8;
        # which lambda gets stuck depends on the operator's rounding, and
        # lambda = 100 is stuck under both association orders of A = R L
        spec, op, eig, e = _problem(769, "constant")
        spec = dataclasses.replace(spec, lam=100.0)
        op = dataclasses.replace(op, spec=spec)
        pair = build_pair(spec, eig, e, 0.8)
        res = solve_between(pair, spec, op, tol=1e-10, max_iter=200, verified=False)
        assert res.converged and res.iterations < 200
        assert res.final_residual > 100.0 * 1e-10
        assert res.projection_activity[-1] == 0
        assert res.sandwich_ok and res.positive

    def test_degenerate_pair_returns_zero(self, catalog_spec, catalog_op):
        n = catalog_spec.grid.n
        pair = SubSuperPair(phi=np.zeros(n), xi=np.zeros(n), r=0.8, zeta=1.0)
        res = solve_between(pair, catalog_spec, catalog_op, verified=False)
        assert res.iterations == 0
        assert not res.positive
        assert np.all(res.u == 0.0)

    def test_unordered_pair_rejected(self, catalog_pair, catalog_spec, catalog_op):
        bad = SubSuperPair(
            phi=catalog_pair.xi, xi=catalog_pair.phi, r=0.8, zeta=catalog_pair.zeta
        )
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
        # at alpha=0.9 the bilinear-form matrix is not inverse-positive:
        # pick s with B(s, w_i) = delta_ij but s negative somewhere, then
        # theta2 = theta1 + s satisfies the hypothesis yet breaks the order
        spec = make_spec(alpha=0.9, grid_n=65)
        op = assemble_composed(spec)
        basis = TentBasis(spec)
        n = spec.grid.n
        cols = []
        for j in range(1, n - 1):
            v = np.zeros(n)
            v[j] = 1.0
            cols.append(basis.bilinear(op.d_left.entries @ v))
        K = np.column_stack(cols)
        Kinv = np.linalg.inv(K)
        jneg, jcol = np.unravel_index(np.argmin(Kinv), Kinv.shape)
        assert Kinv[jneg, jcol] < 0
        s = np.zeros(n)
        s[1:-1] = Kinv[:, jcol]
        s /= np.abs(s).max()
        theta1 = np.sin(np.pi * spec.grid.x)
        theta2 = theta1 + 1e-3 * s
        verdict = comparison_check(theta1, theta2, spec, op)
        assert verdict == "counterexample"

    def test_boundary_violation_rejected(self, catalog_spec, catalog_op):
        th = np.ones(catalog_spec.grid.n)
        with pytest.raises(ValueError, match="vanish"):
            comparison_check(th, th, catalog_spec, catalog_op)
