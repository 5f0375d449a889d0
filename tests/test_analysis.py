import dataclasses
import functools
import math

import numpy as np
import pytest

import psifrac.analysis
from oracles import mu2_reference, tent_form_reference, tent_reference
from psifrac import (
    assemble_composed,
    build_pair,
    build_subsolution,
    build_supersolution,
    empirical_mu2,
    linear_majorant,
    make_spec,
    nonexistence_threshold,
    principal_eigenpair,
    solve_e,
    verify_weak_inequality,
    zeta_lambda,
)
from psifrac.analysis import TentBasis
from psifrac.core import Nonlinearity, NonlinearityKind

SQRT = Nonlinearity(NonlinearityKind.SQRT)
ZERO = Nonlinearity(NonlinearityKind.ZERO)
LOG1P = Nonlinearity(NonlinearityKind.LOG1P)


class TestLinearMajorant:
    def test_sqrt_exact_stationary_point(self):
        # g(s) = s - sqrt(s) + 1/sqrt(s) has g'(1) = 1 - 1/2 - 1/2 = 0
        maj = linear_majorant(SQRT, nu=0.5, a=1.0, s_max=1e6)
        assert maj.b == pytest.approx(1.0, abs=1e-4)
        assert maj.s_star == pytest.approx(1.0, abs=1e-3)

    def test_zero_h_closed_form(self):
        # minimize s + s^(-1/2): s* = 2^(-2/3), b = 3*2^(-2/3)
        maj = linear_majorant(ZERO, nu=0.5, a=1.0, s_max=1e6)
        assert maj.b == pytest.approx(3.0 * 2.0 ** (-2.0 / 3.0), abs=1e-4)
        assert maj.s_star == pytest.approx(2.0 ** (-2.0 / 3.0), abs=1e-3)

    def test_larger_slope_raises_infimum(self):
        b1 = linear_majorant(SQRT, nu=0.5, a=1.0, s_max=1e6).b
        b10 = linear_majorant(SQRT, nu=0.5, a=10.0, s_max=1e6).b
        assert b10 >= b1

    @pytest.mark.parametrize("h,nu,a", [(SQRT, 0.5, 1.0), (LOG1P, 0.25, 0.5), (ZERO, 0.75, 2.0)])
    def test_inequality_on_fresh_samples(self, h, nu, a):
        maj = linear_majorant(h, nu=nu, a=a, s_max=1e6)
        rng = np.random.default_rng(2024)
        s = 10.0 ** rng.uniform(-8, 6, 100_000)
        lhs = h(s) - s ** (-nu)
        rhs = maj.a * s - maj.b
        assert np.all(lhs <= rhs + 1e-9 * (1.0 + abs(maj.b)))

    def test_not_sublinear_at_s_max(self):
        with pytest.raises(ValueError, match="not sublinear"):
            linear_majorant(SQRT, nu=0.5, a=0.4, s_max=4.0)

    def test_slope_too_small(self):
        with pytest.raises(ValueError, match="slope too small"):
            linear_majorant(LOG1P, nu=0.5, a=1e-4, s_max=1e12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="slope"):
            linear_majorant(SQRT, nu=0.5, a=0.0, s_max=1e6)
        with pytest.raises(ValueError, match="nu"):
            linear_majorant(SQRT, nu=1.5, a=1.0, s_max=1e6)
        for s_max in (1e-8, 1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="s_max must be finite and exceed 1e-08"):
                linear_majorant(SQRT, nu=0.5, a=1.0, s_max=s_max)


class TestZetaLambda:
    def test_sqrt_exact_crossings(self):
        # zeta0*z = lam*sqrt(z/8) solves to z = lam^2/8
        z = zeta_lambda(SQRT, lam=1.0, zeta0=1.0, e_sup=0.125)
        assert z == pytest.approx(0.125, rel=1e-6)
        z4 = zeta_lambda(SQRT, lam=4.0, zeta0=1.0, e_sup=0.125)
        assert z4 == pytest.approx(2.0, rel=1e-6)

    def test_zero_h_returns_search_floor(self):
        assert zeta_lambda(ZERO, lam=123.0, zeta0=1.0, e_sup=0.125) == 1e-12

    @pytest.mark.parametrize(
        "h,lam",
        [(SQRT, 0.5), (SQRT, 1.0), (SQRT, 7.0), (LOG1P, 100.0), (LOG1P, 500.0)],
    )
    def test_minimality(self, h, lam):
        # cases where lam*h beats zeta0*z near zero, so the threshold is a
        # genuine crossing rather than the search floor
        z = zeta_lambda(h, lam=lam, zeta0=1.0, e_sup=0.125)
        assert z > 1e-12
        assert 1.0 * z >= lam * h(z * 0.125)
        zz = z / 1.01
        assert 1.0 * zz < lam * h(zz * 0.125)

    def test_concave_h_below_critical_slope_hits_floor(self):
        # log1p has slope 1 at zero: for lam*e_sup < zeta0 the inequality
        # already holds at the floor and any positive zeta works
        assert zeta_lambda(LOG1P, lam=0.5, zeta0=1.0, e_sup=0.125) == 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            zeta_lambda(SQRT, lam=-1.0, zeta0=1.0, e_sup=0.125)

    def test_threshold_far_above_one_is_found(self):
        # zeta >= sqrt(zeta * e_sup) solves to zeta = e_sup, here 1e119
        z = zeta_lambda(SQRT, lam=1.0, zeta0=1.0, e_sup=1e119)
        assert z >= SQRT(z * 1e119)
        assert z == pytest.approx(1e119, rel=1e-6)

    def test_linear_h_raises_at_the_float_range(self):
        # zeta >= 2 * zeta * e_sup holds for no positive zeta when e_sup = 1
        with pytest.raises(RuntimeError, match="fails to be sublinear"):
            zeta_lambda(lambda s: 2.0 * s, lam=1.0, zeta0=1.0, e_sup=1.0)


class TestSubsolution:
    def test_lambda_one_is_pure_power(self, catalog_eig):
        phi = build_subsolution(1.0, 0.8, 0.5, catalog_eig)
        want = np.clip(catalog_eig.psi1, 0.0, None) ** (4.0 / 3.0)
        assert phi == pytest.approx(want, abs=1e-14)

    def test_window_for_nu_third(self, catalog_eig):
        # nu = 1/3: exponent 2/(1+nu) = 1.5, window (0.75, 1)
        nu = 1.0 / 3.0
        assert 2.0 / (1.0 + nu) == pytest.approx(1.5, abs=1e-15)
        build_subsolution(1.0, 0.76, nu, catalog_eig)
        with pytest.raises(ValueError, match="r must lie"):
            build_subsolution(1.0, 0.75, nu, catalog_eig)
        with pytest.raises(ValueError, match="r must lie"):
            build_subsolution(1.0, 1.0, nu, catalog_eig)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
    def test_window_rejection_sweep(self, nu, catalog_eig):
        lo = 1.0 / (1.0 + nu)
        for r in (lo - 0.05, lo, 1.0, 1.05):
            with pytest.raises(ValueError, match="r must lie"):
                build_subsolution(2.0, r, nu, catalog_eig)
        build_subsolution(2.0, (lo + 1.0) / 2.0, nu, catalog_eig)

    def test_sign_changing_psi1_rejected(self, catalog_eig):
        # a computed outcome (alpha < 1), so a RuntimeError like a negative e
        psi1 = catalog_eig.psi1.copy()
        psi1[5] = -1e-3
        bad = dataclasses.replace(catalog_eig, psi1=psi1, positive_interior=False)
        with pytest.raises(RuntimeError, match="psi1 is not positive"):
            build_subsolution(1.0, 0.8, 0.5, bad)

    def test_power_evaluation(self, catalog_eig):
        # sup phi = 16^0.8 since the eigenfunction is sup-normalized
        phi = build_subsolution(16.0, 0.8, 1.0 / 3.0, catalog_eig)
        assert phi.max() == pytest.approx(16.0**0.8, rel=1e-12)
        assert 16.0**0.8 == pytest.approx(9.18958684, abs=1e-6)

    def test_boundary_and_positivity(self, catalog_eig):
        phi = build_subsolution(3.0, 0.8, 0.5, catalog_eig)
        assert phi[0] == 0.0 and phi[-1] == 0.0
        assert np.all(phi[1:-1] > 0)


class TestSupersolution:
    def test_unit_zeta(self, catalog_e):
        assert build_supersolution(1.0, catalog_e) == pytest.approx(catalog_e, abs=0)

    def test_classical_sup_value(self, catalog_e):
        xi = build_supersolution(8.0, catalog_e)
        assert xi.max() == pytest.approx(1.0, rel=1e-2)

    def test_linearity(self, catalog_e):
        xi = build_supersolution(2.5, catalog_e)
        assert build_supersolution(5.0, catalog_e) == pytest.approx(2.0 * xi, rel=1e-15)

    def test_rejects_nonpositive_zeta(self, catalog_e):
        with pytest.raises(ValueError, match="zeta"):
            build_supersolution(0.0, catalog_e)


class TestPairOrdering:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 10.0, 50.0, 200.0])
    def test_phi_below_xi_after_raise(self, lam, catalog_spec, catalog_eig, catalog_e):
        spec = dataclasses.replace(catalog_spec, lam=lam)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        assert pair.ordered()
        assert np.all(pair.phi <= pair.xi + 1e-14)
        assert pair.zeta > 0

    def test_raise_activates_when_threshold_small(self, catalog_spec, catalog_eig, catalog_e):
        # with h == 0 the balance threshold is the search floor, so the
        # ordering raise has to supply all of zeta
        spec = dataclasses.replace(
            catalog_spec, h=Nonlinearity(NonlinearityKind.ZERO), lam=5.0
        )
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        ratio = float(np.max(pair.phi[1:-1] / catalog_e[1:-1]))
        assert pair.zeta == pytest.approx(ratio, rel=1e-12)
        assert pair.ordered()

    def test_negative_e_rejected(self, catalog_spec, catalog_eig, catalog_e):
        bad_e = catalog_e.copy()
        bad_e[5] = -1e-3
        with pytest.raises(RuntimeError, match="not positive"):
            build_pair(catalog_spec, catalog_eig, bad_e, 0.8)


class TestVerifyWeakInequality:
    def test_supersolution_chain_passes(self, catalog_spec, catalog_op, catalog_pair):
        rep = verify_weak_inequality(catalog_pair.xi, catalog_op, "super")
        assert rep.passed
        assert rep.verdict == "super-pass"
        assert rep.worst_margin > 0

    def test_subsolution_fails_at_tiny_lambda(self, catalog_spec, catalog_eig, catalog_e, catalog_op):
        spec = dataclasses.replace(catalog_spec, lam=0.1)
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        rep = verify_weak_inequality(pair.phi, op, "sub")
        assert not rep.passed
        assert rep.worst_margin < -rep.tol_margin

    def test_boundary_violation_is_precondition_error(self, catalog_op):
        u = np.full(catalog_op.n, 0.01)
        with pytest.raises(ValueError, match="vanish at both boundary"):
            verify_weak_inequality(u, catalog_op, "sub")

    def test_interior_nonpositivity_is_singular_failure(self, catalog_op, catalog_pair):
        u = catalog_pair.phi.copy()
        u[catalog_op.n // 2] = 0.0
        with pytest.raises(ValueError, match="singular-term failure"):
            verify_weak_inequality(u, catalog_op, "sub")

    def test_bad_side_rejected(self, catalog_op, catalog_pair):
        with pytest.raises(ValueError, match="side"):
            verify_weak_inequality(catalog_pair.phi, catalog_op, "weak")

    def test_margins_shape_and_worst_node(self, catalog_op, catalog_pair):
        rep = verify_weak_inequality(catalog_pair.xi, catalog_op, "super")
        assert rep.margins.shape == (catalog_op.n - 2,)
        assert 1 <= rep.worst_node <= catalog_op.n - 2
        assert rep.worst_margin == rep.margins[rep.worst_node - 1]


class TestNonexistenceThreshold:
    def test_direct_formula(self):
        assert nonexistence_threshold(math.pi**2, 2.0, 1.0) == pytest.approx(
            math.pi**2 / 2.0, rel=1e-15
        )

    def test_homogeneity_in_slope(self):
        m1 = nonexistence_threshold(5.0, 1.5, 1.0)
        assert nonexistence_threshold(5.0, 1.5, 2.0) == pytest.approx(m1 / 2.0, rel=1e-15)

    def test_pipeline_composition(self):
        spec = make_spec(alpha=0.9, grid_n=129)
        from psifrac import assemble_composed, principal_eigenpair

        eig = principal_eigenpair(assemble_composed(spec), tol=1e-9)
        maj = linear_majorant(spec.h, spec.nu, 1.0, 1e6)
        mu1 = nonexistence_threshold(eig.lambda1, spec.m.zeta_inf, maj.a)
        assert mu1 == pytest.approx(eig.lambda1, rel=1e-12)  # zeta_inf = a = 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            nonexistence_threshold(-1.0, 1.0, 1.0)


class TestEmpiricalMu2:
    def test_catalog_threshold_value(self, catalog_spec, catalog_op, catalog_eig, catalog_e):
        mu2 = empirical_mu2(catalog_spec, catalog_op, catalog_eig, catalog_e, 0.8)
        assert mu2 == pytest.approx(77.5, abs=1e-12)
        # grid resolution: one step lower must fail on the sub side
        spec = dataclasses.replace(catalog_spec, lam=mu2 - 0.25)
        op = dataclasses.replace(catalog_op, spec=spec)
        pair = build_pair(spec, catalog_eig, catalog_e, 0.8)
        assert not verify_weak_inequality(pair.phi, op, "sub").passed

    def test_cap_returns_none(self, catalog_spec, catalog_op, catalog_eig, catalog_e, monkeypatch):
        monkeypatch.setattr(psifrac.analysis, "_MU2_LAM_MAX", 5.0)
        assert empirical_mu2(catalog_spec, catalog_op, catalog_eig, catalog_e, 0.8) is None

    @pytest.mark.parametrize(
        "n,psi,step,found",
        [
            (129, "identity", 0.25, True),
            (257, "identity", 0.25, True),
            (129, "log1p", 0.25, False),
            (257, "identity", 0.5, True),
        ],
    )
    def test_matches_reference(self, n, psi, step, found, monkeypatch):
        monkeypatch.setattr(psifrac.analysis, "_MU2_STEP", step)
        spec, op, eig, e = _mu2_problem(n, psi)
        got = empirical_mu2(spec, op, eig, e, 0.8)
        assert got == mu2_reference(spec, op, eig, e, 0.8, step=step)
        assert (got is not None) == found

    @pytest.mark.parametrize("bad", ["e", "r"])
    def test_refusals_match_reference(self, bad, catalog_spec, catalog_op, catalog_eig, catalog_e):
        e, r = catalog_e, 0.8
        if bad == "e":
            e = catalog_e.copy()
            e[5] = -1e-3
        else:
            r = 0.6
        with pytest.raises((ValueError, RuntimeError)) as want:
            mu2_reference(catalog_spec, catalog_op, catalog_eig, e, r)
        with pytest.raises(want.type) as got:
            empirical_mu2(catalog_spec, catalog_op, catalog_eig, e, r)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "alpha,n,want",
        [
            (1.0, 65, 77.25),
            (1.0, 129, 77.5),
            (1.0, 257, 77.5),
            (1.0, 769, 77.5),
            (1.0, 1025, 77.5),
            (0.75, 65, 18.5),
            (0.75, 129, 18.25),
            (0.75, 257, 18.25),
        ],
    )
    def test_pinned_values(self, alpha, n, want):
        # the values of the scan by single lambdas; the blocks of 32 lambdas
        # put 77.5 in the tenth block
        spec = make_spec(alpha=alpha, grid_n=n)
        op = assemble_composed(spec)
        eig, e = principal_eigenpair(op, tol=1e-9), solve_e(op)
        assert empirical_mu2(spec, op, eig, e, 0.8) == want

    def test_refusal_inside_a_block_matches_reference(
        self, catalog_spec, catalog_op, catalog_eig, catalog_e
    ):
        # a subnormal psi1 entry whose power underflows to 0: the block's
        # check refuses, and the lambda-by-lambda pass raises the scan's error
        psi1 = catalog_eig.psi1.copy()
        psi1[7] = 1e-320
        eig = dataclasses.replace(catalog_eig, psi1=psi1)
        with pytest.raises(ValueError) as want:
            mu2_reference(catalog_spec, catalog_op, eig, catalog_e, 0.8)
        with pytest.raises(ValueError) as got:
            empirical_mu2(catalog_spec, catalog_op, eig, catalog_e, 0.8)
        assert str(got.value) == str(want.value)
        assert "strictly positive" in str(got.value)

    def test_zeta_only_where_sub_side_passes(
        self, catalog_spec, catalog_op, catalog_eig, catalog_e, monkeypatch
    ):
        # the sub side fails on every grid point below 77.5, and zeta is
        # needed only where the super side is checked
        calls = []
        zeta = psifrac.analysis.zeta_lambda

        def counting(*args, **kwargs):
            calls.append(1)
            return zeta(*args, **kwargs)

        monkeypatch.setattr(psifrac.analysis, "zeta_lambda", counting)
        assert empirical_mu2(catalog_spec, catalog_op, catalog_eig, catalog_e, 0.8) == 77.5
        assert len(calls) <= 2


@functools.cache
def _mu2_problem(n, psi):
    """The alpha = 1 catalog problem at grid size n and kernel psi: spec, op, eig, e."""
    spec = make_spec(alpha=1.0, psi=psi, grid_n=n, lam=50.0)
    op = assemble_composed(spec)
    return spec, op, principal_eigenpair(op, tol=1e-9), solve_e(op)


class TestTentBasis:
    @pytest.mark.parametrize("n", [33, 257])
    @pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
    @pytest.mark.parametrize("alpha", [1.0, 0.9, 0.75, 0.6])
    def test_matches_reference(self, alpha, psi, n):
        spec = make_spec(alpha=alpha, psi=psi, grid_n=n)
        basis = TentBasis(spec)
        # the weights integrate in u: the reference on a grid whose x is u
        in_u = dataclasses.replace(spec, grid=dataclasses.replace(spec.grid, x=spec.grid.u))
        wl, wr, node_weights = tent_reference(in_u)
        assert np.array_equal(basis.node_weights, node_weights)
        # the verifier's masses and form are the operator's, W and K f, at
        # every alpha: the tent form summed tent by tent
        op = assemble_composed(spec)
        assert np.array_equal(op.w, node_weights[1:-1])
        f = np.random.default_rng(n).standard_normal(n)
        ref = tent_form_reference(spec)
        want = ref @ f
        scale = np.abs(ref) @ np.abs(f)
        got = op.form(f)
        # the tents' three-kernel cancellation on the tiny first cells
        # of square psi rounds at 3.5e-13 of the largest row
        assert np.abs(got - want).max() <= 1e-12 * scale.max()
        if alpha == 1.0 and psi == "identity":
            # on a uniform grid in u it is also the tent-by-tent step form:
            # each tent's cell-end weights against the slopes of f
            d = np.diff(f) / np.diff(spec.grid.u)
            d[0] = f[1] / (spec.grid.u[1] - spec.grid.u[0])  # f_0 enters nothing
            steps = wl @ d + wr @ d
            scale = np.abs(wl) @ np.abs(d) + np.abs(wr) @ np.abs(d)
            assert np.all(np.abs(got - steps) <= 1e-12 * scale)


@pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
def test_tent_basis_reproduces_e_chain(psi):
    # the cell-based quadrature against closed-form tent derivatives must
    # see A e = 1 for every kernel: the bilinear form of e against every
    # tent is the tent's mass, both integrated in u
    _, op, _, e = _mu2_problem(257, psi)
    vals = op.form(e)
    mass = op.w
    assert np.abs(vals - mass).max() < 1e-10 * mass.max()
