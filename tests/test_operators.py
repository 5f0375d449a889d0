import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgWarning

import psifrac.operators
from oracles import classical_e
from psifrac import (
    Side,
    assemble_composed,
    energy,
    hilfer_derivative_matrix,
    make_spec,
    principal_eigenpair,
    solve_e,
)

PI2 = math.pi**2


class TestFactoredAssembly:
    """A = D_right D_left is built by applying the right factors to D_left."""

    @pytest.mark.parametrize("n", [33, 129])
    @pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
    def test_matches_right_matrix_times_left(self, psi, n):
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                spec = make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=n)
                op = assemble_composed(spec)
                left = hilfer_derivative_matrix(spec.grid, spec.psi, spec.order, Side.LEFT)
                right = hilfer_derivative_matrix(spec.grid, spec.psi, spec.order, Side.RIGHT)
                assert np.array_equal(op.d_left.entries, left.entries)
                want = right.entries @ left.entries
                got = op.a_full.entries
                tol = 1e-13 * np.abs(want).max()
                assert np.abs(got[1:-1] - want[1:-1]).max() <= tol, (alpha, beta)

    def test_right_derivative_matrix_is_never_built(self, monkeypatch):
        sides = []
        real = psifrac.operators.hilfer_derivative_matrix

        def spy(grid, psi, order, side):
            sides.append(side)
            return real(grid, psi, order, side)

        monkeypatch.setattr(psifrac.operators, "hilfer_derivative_matrix", spy)
        for alpha in (1.0, 0.75):
            assemble_composed(make_spec(alpha=alpha, grid_n=33))
        assert sides == [Side.LEFT, Side.LEFT]


PSIS = ["identity", "exp_minus_one", "square", "log1p"]


class TestBandedInterior:
    """At alpha = 1 A, its interior block and D_left have bandwidth (2, 2):
    they are factored and multiplied by the band, every other one dense."""

    @pytest.mark.parametrize("n", [33, 129, 769])
    @pytest.mark.parametrize("psi", PSIS)
    def test_band_solve_and_products_match_dense(self, psi, n):
        op = assemble_composed(make_spec(alpha=1.0, psi=psi, grid_n=n))
        assert op.factorization == "banded" and op.interior_bandwidth == (2, 2)
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n - 2)
        want = scipy.linalg.solve(op.interior_block(), b)
        got = op.solve_interior(b)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert np.linalg.norm(got[1:-1] - want) <= 1e-12 * np.linalg.norm(want)
        u = rng.standard_normal(n)
        for apply, mat in ((op.apply_full, op.a_full.entries), (op.apply_left, op.d_left.entries)):
            assert np.all(np.abs(apply(u) - mat @ u) <= 1e-14 * (np.abs(mat) @ np.abs(u)))
        v = u[1:-1]
        block = op.interior_block()
        assert np.all(np.abs(op.apply_block(v) - block @ v) <= 1e-14 * (np.abs(block) @ np.abs(v)))

    @pytest.mark.parametrize("alpha", [0.9, 0.75, 0.6])
    def test_fractional_block_stays_dense_and_bitwise(self, alpha):
        op = assemble_composed(make_spec(alpha=alpha, beta=0.5, grid_n=129))
        assert op.factorization == "dense"
        block = op.interior_block()
        b = np.random.default_rng(7).standard_normal(op.n - 2)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(block), b)
        assert np.array_equal(op.solve_interior(b)[1:-1], want)
        assert np.array_equal(op.apply_block(b), block @ b)

    def test_smallest_grid_falls_back_to_dense(self):
        # the LU band (2 kl + ku + 1 = 7 rows) is not smaller than an
        # interior block of 6 or 7 rows
        for n, kind in ((8, "dense"), (9, "dense"), (10, "banded")):
            op = assemble_composed(make_spec(alpha=1.0, grid_n=n))
            assert (op.factorization, op.interior_bandwidth) == (kind, (2, 2)), n
            b = np.linspace(1.0, 2.0, n - 2)
            want = np.linalg.solve(op.interior_block(), b)
            assert np.allclose(op.solve_interior(b)[1:-1], want, rtol=1e-12, atol=0.0)

    def test_factorization_follows_the_band(self, monkeypatch):
        calls = []
        for name in ("lu_factor", "dgbtrf"):
            real = getattr(psifrac.operators, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(psifrac.operators, name, spy)
        for n in (33, 129):
            assemble_composed(make_spec(alpha=1.0, grid_n=n))
        assert calls == ["dgbtrf", "dgbtrf"]
        calls.clear()
        for alpha in (0.9, 0.75):
            assemble_composed(make_spec(alpha=alpha, grid_n=33))
        assert calls == ["lu_factor", "lu_factor"]

    def test_illegal_argument_raises(self, monkeypatch):
        real = psifrac.operators.dgbtrf

        def bad(*args, **kwargs):
            lu, piv, _ = real(*args, **kwargs)
            return lu, piv, -3

        monkeypatch.setattr(psifrac.operators, "dgbtrf", bad)
        with pytest.raises(ValueError, match="illegal value in 3th argument"):
            assemble_composed(make_spec(alpha=1.0, grid_n=33))

    def test_singular_block_surfaces_like_dense(self):
        # a pentadiagonal block with a zero row: both paths warn with the
        # same message and then refuse the non-finite right-hand side that
        # a solve against the singular factors produces
        m = 20
        block = sum(np.diag(np.full(m - abs(d), 3.0 - abs(d)), d) for d in range(-2, 3))
        block[7] = 0.0
        with pytest.warns(LinAlgWarning) as dense_warning:
            dense = scipy.linalg.lu_factor(block)
        with pytest.warns(LinAlgWarning) as band_warning:
            band = psifrac.operators._InteriorLU.of(block)
        assert band.banded
        assert str(band_warning[0].message) == str(dense_warning[0].message)
        b = np.ones(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_dense = scipy.linalg.lu_solve(dense, b)
            x_band = band.solve(b)
        assert not np.isfinite(x_dense).all() and not np.isfinite(x_band).all()
        for solve in (lambda r: scipy.linalg.lu_solve(dense, r), band.solve):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(x_band)


class TestAssembly:
    def test_boundary_rows_are_unit(self, small_op):
        a = small_op.a_full.entries
        n = small_op.n
        assert a[0, 0] == 1.0 and np.all(a[0, 1:] == 0.0)
        assert a[-1, -1] == 1.0 and np.all(a[-1, :-1] == 0.0)

    def test_classical_interior_stencil(self):
        # composing the two central-difference first derivatives yields the
        # classical second-difference stencil at doubled spacing:
        # row i = -(f[i+2] - 2 f[i] + f[i-2]) / (2h)^2 away from the boundary
        spec = make_spec(alpha=1.0, grid_n=9)
        op = assemble_composed(spec)
        h = spec.grid.x[1] - spec.grid.x[0]
        a = op.a_full.entries
        for i in range(2, 7):
            row = np.zeros(9)
            row[i - 2] = -1.0 / (4 * h * h)
            row[i] = 2.0 / (4 * h * h)
            row[i + 2] = -1.0 / (4 * h * h)
            assert a[i] == pytest.approx(row, abs=1e-9)

    def test_sturm_liouville_identity(self, catalog_spec, catalog_op):
        x = catalog_spec.grid.x
        f = np.sin(np.pi * x)
        got = catalog_op.apply_full(f)[1:-1]
        want = PI2 * f[1:-1]
        assert np.abs(got - want).max() / PI2 <= 1e-2

    def test_zero_maps_to_zero(self, small_op):
        out = small_op.apply_full(np.zeros(small_op.n))
        assert np.all(out == 0.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            assemble_composed(make_spec(alpha=0.3))


class TestEigenpair:
    def test_classical_eigenvalue_and_vector(self, catalog_spec, catalog_eig):
        assert abs(catalog_eig.lambda1 - PI2) / PI2 < 0.01
        x = catalog_spec.grid.x
        assert np.abs(catalog_eig.psi1 - np.sin(np.pi * x)).max() < 5e-2
        assert catalog_eig.positive_interior
        assert np.abs(catalog_eig.psi1).max() == pytest.approx(1.0, abs=1e-14)
        assert catalog_eig.psi1[0] == 0.0 and catalog_eig.psi1[-1] == 0.0

    def test_residual_within_tolerance_budget(self, catalog_op):
        tol = 1e-9
        eig = principal_eigenpair(catalog_op, tol=tol)
        assert eig.residual <= 10.0 * tol * eig.lambda1

    def test_domain_scaling(self):
        spec = make_spec(alpha=1.0, grid_n=257, T=2.0)
        eig = principal_eigenpair(assemble_composed(spec), tol=1e-9)
        assert abs(eig.lambda1 - PI2 / 4.0) / (PI2 / 4.0) < 0.01

    def test_fractional_regression_baseline(self):
        # frozen at the first run of this configuration; the discrete
        # composed operator at alpha=0.9 has a sign-changing bottom mode,
        # so positivity is a recorded diagnostic, not an assertion
        spec = make_spec(alpha=0.9, beta=0.5, grid_n=129, lam=1.0)
        eig = principal_eigenpair(assemble_composed(spec), tol=1e-9)
        assert eig.lambda1 > 0
        assert eig.lambda1 == pytest.approx(0.8284798730249513, rel=1e-6)
        assert eig.positive_interior is False

    def test_lambda1_monotone_in_T(self):
        for psi in ("identity", "exp_minus_one"):
            lams = []
            for T in (0.5, 1.0, 2.0):
                spec = make_spec(alpha=1.0, psi=psi, T=T, grid_n=129)
                lams.append(principal_eigenpair(assemble_composed(spec), tol=1e-9).lambda1)
            assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=1.0, psi="identity", grid_n=257),
            dict(alpha=1.0, psi="exp_minus_one", grid_n=257),
            dict(alpha=0.75, beta=0.5, grid_n=257),
            dict(alpha=0.75, beta=1.0, grid_n=257),
            dict(alpha=0.9, beta=0.5, grid_n=129),
        ],
    )
    def test_matches_dense_eigensolver(self, kw):
        # oracle: the smallest-|lambda| eigenpair of the dense interior
        # block, oriented and sup-normalized like principal_eigenpair; at
        # alpha = 1 the bottom pair is only 0.2% apart, which a loose
        # stopping rule would hide
        op = assemble_composed(make_spec(**kw))
        eig = principal_eigenpair(op, tol=1e-10)
        vals, vecs = scipy.linalg.eig(op.interior_block())
        k = int(np.argmin(np.abs(vals)))
        lam, vec = vals[k].real, vecs[:, k].real
        vec = vec / vec[np.argmax(np.abs(vec))]
        assert abs(eig.lambda1 - lam) <= 1e-10 * abs(lam)
        assert np.abs(eig.psi1[1:-1] - vec).max() <= 1e-8

    def test_lu_solve_count_is_bounded(self):
        # a count, not a timing: at alpha = 1 the bottom eigenvalue ratio is
        # 1.002, so plain inverse iteration would need hundreds of solves
        op = assemble_composed(make_spec(alpha=1.0, grid_n=1025))
        assert principal_eigenpair(op, tol=1e-10).iterations <= 40

    def test_nonconvergence_raises(self, small_op):
        with pytest.raises(RuntimeError, match="did not converge"):
            principal_eigenpair(small_op, tol=1e-13, max_iter=3)

    def test_complex_bottom_pair_is_diagnosed(self):
        # off the catalog (T = 10) this combination has a complex-conjugate
        # pair at the bottom of the spectrum, which shows up as a complex
        # Ritz value; no catalog corner has one
        spec = make_spec(alpha=0.75, beta=0.0, psi="log1p", T=10.0, grid_n=33)
        op = assemble_composed(spec)
        with pytest.raises(RuntimeError, match="complex pair"):
            principal_eigenpair(op, tol=1e-9, max_iter=2000)
        # the diagnosis needs no long iteration budget
        with pytest.raises(RuntimeError, match="complex pair"):
            principal_eigenpair(op, tol=1e-9, max_iter=50)

    @pytest.mark.parametrize("psi", PSIS)
    def test_every_catalog_corner_has_a_real_positive_bottom(self, psi):
        # a real lambda1 > 0 at every (alpha, beta), and e > 0 on the
        # interior at beta = 1 (Caputo type; alpha = 1 included)
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                op = assemble_composed(make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=33))
                assert principal_eigenpair(op, tol=1e-9).lambda1 > 0.0, (alpha, beta)
                if beta == 1.0:
                    assert solve_e(op)[1:-1].min() > 0.0, alpha


class TestEProblem:
    def test_classical_closed_form(self, catalog_spec, catalog_e):
        x = catalog_spec.grid.x
        want = classical_e(x, 1.0)
        assert np.abs(catalog_e - want).max() < 1e-3
        assert abs(catalog_e.max() - 0.125) / 0.125 < 0.01

    def test_domain_scaling(self):
        spec = make_spec(alpha=1.0, grid_n=257, T=2.0)
        e = solve_e(assemble_composed(spec))
        assert abs(e.max() - 0.5) / 0.5 < 0.01

    def test_boundary_exactly_zero(self, catalog_e, small_e):
        for e in (catalog_e, small_e):
            assert e[0] == 0.0 and e[-1] == 0.0

    @pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
    def test_positivity_all_psi_classical(self, psi):
        spec = make_spec(alpha=1.0, psi=psi, grid_n=65)
        e = solve_e(assemble_composed(spec))
        assert e[1:-1].min() > 0.0

    def test_fractional_positivity_is_reported_not_assumed(self):
        # at alpha=0.9 the discrete e genuinely dips negative; the pipeline
        # surfaces it (build_pair refuses such an e) instead of hiding it
        spec = make_spec(alpha=0.9, grid_n=129)
        e = solve_e(assemble_composed(spec))
        assert np.isfinite(e).all()


class TestEnergy:
    def test_zero_field(self, small_op):
        assert energy(np.zeros(small_op.n), small_op) == 0.0

    def test_classical_sine_energy(self, catalog_spec, catalog_op):
        u = np.sin(np.pi * catalog_spec.grid.x)
        assert energy(u, catalog_op) == pytest.approx(PI2 / 2.0, rel=1e-3)

    def test_quadratic_homogeneity(self, catalog_spec, catalog_op):
        rng = np.random.default_rng(3)
        u = np.sin(np.pi * catalog_spec.grid.x) * rng.uniform(0.5, 1.5)
        c = 3.7
        assert energy(c * u, catalog_op) == pytest.approx(c**2 * energy(u, catalog_op), rel=1e-12)

    def test_dimension_check(self, small_op):
        with pytest.raises(ValueError, match="length"):
            energy(np.ones(small_op.n + 1), small_op)


class TestIntegrationByParts:
    """The adjoint identity behind the eigenvalue argument holds only
    approximately on the grid; its size is measured, never assumed zero."""

    @pytest.mark.parametrize("alpha,budget", [(1.0, 1e-3), (0.75, 1e-1)])
    def test_deviation_is_small_but_nonzero(self, alpha, budget):
        spec = make_spec(alpha=alpha, grid_n=257)
        op = assemble_composed(spec)
        x = spec.grid.x
        f = np.sin(np.pi * x)
        g = (x * (1.0 - x)) ** 2
        lhs = np.trapezoid(op.apply_full(f) * g, x)
        rhs = np.trapezoid(f * op.apply_full(g), x)
        assert abs(lhs - rhs) < budget


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.0), (0.75, 0.5), (0.9, 1.0), (1.0, 0.5)])
def test_composed_inverts_double_integral_in_bulk(alpha, beta):
    # A(I_left^a (I_right^a f)) = f follows from applying the one-sided
    # inverse identities twice; discretely it holds away from the ends,
    # while the fractional boundary rows are wild (same mechanism that
    # loses positivity at alpha < 1)
    from psifrac import Side, frac_integral_matrix

    spec = make_spec(alpha=alpha, beta=beta, grid_n=513)
    op = assemble_composed(spec)
    g = spec.grid
    il = frac_integral_matrix(g, spec.psi, alpha, Side.LEFT).entries
    ir = frac_integral_matrix(g, spec.psi, alpha, Side.RIGHT).entries
    f = np.sin(np.pi * g.u)
    got = op.apply_full(il @ (ir @ f))[1:-1]
    collar = max(2, int(np.ceil(0.05 * g.n)))
    assert np.abs(got - f[1:-1])[collar:-collar].max() < 5e-3


def test_operator_reuse_across_lambda():
    spec = make_spec(alpha=1.0, grid_n=65, lam=10.0)
    op = assemble_composed(spec)
    op50 = dataclasses.replace(op, spec=dataclasses.replace(spec, lam=50.0))
    assert op50.spec.lam == 50.0
    assert op50.a_full is op.a_full
