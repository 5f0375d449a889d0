import math

import numpy as np
import pytest

from oracles import (
    form_matrix,
    frac_integral_of_one,
    left_integral_reference,
    right_integral_reference,
)
from psifrac import (
    FractionalOrder,
    Grid,
    PsiFunction,
    frac_integral_matrix,
    hilfer_derivative_matrix,
    hilfer_power_oracle,
)
import psifrac.calculus
from psifrac.calculus import _BLOCK, _block_weights, _is_uniform
from psifrac.cli import main
from psifrac.core import PsiKind, make_spec
from psifrac.operators import assemble_composed, energy, principal_eigenpair, solve_e

IDENTITY = PsiFunction(PsiKind.IDENTITY)
EXPM1 = PsiFunction(PsiKind.EXP_MINUS_ONE, k=1.0)
ALL_PSI = [PsiFunction(k) for k in PsiKind]


def grid_for(psi, n=129, T=1.0):
    return Grid(T, n, psi)


class TestFracIntegral:
    def test_order_one_is_plain_integration(self):
        g = grid_for(IDENTITY, n=65)
        m = frac_integral_matrix(g, IDENTITY, 1.0)
        got = m.entries @ np.ones(g.n)
        assert got == pytest.approx(g.x, abs=1e-13)

    def test_half_order_of_one_identity(self):
        # I^{1/2} 1 at x=1 equals 1/Gamma(1.5) = 2/sqrt(pi)
        g = grid_for(IDENTITY, n=257)
        m = frac_integral_matrix(g, IDENTITY, 0.5)
        got = m.entries @ np.ones(g.n)
        assert got[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)
        assert got == pytest.approx(frac_integral_of_one(g.u, 0.5), abs=1e-6)

    def test_half_order_of_one_expm1(self):
        g = grid_for(EXPM1, n=257)
        m = frac_integral_matrix(g, EXPM1, 0.5)
        got = m.entries @ np.ones(g.n)
        want = (np.expm1(g.x)) ** 0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("order", [0.0, -0.5, 1.5])
    def test_bad_order_rejected(self, order):
        g = grid_for(IDENTITY, n=16)
        with pytest.raises(ValueError, match="order"):
            frac_integral_matrix(g, IDENTITY, order)

    def test_small_grid_rejected(self):
        g = grid_for(IDENTITY, n=4)
        with pytest.raises(ValueError, match="grid_n"):
            frac_integral_matrix(g, IDENTITY, 0.5)

    def test_triangular_structure(self):
        g = grid_for(IDENTITY, n=32)
        left = frac_integral_matrix(g, IDENTITY, 0.5).entries
        assert np.allclose(left, np.tril(left))

    @pytest.mark.parametrize("psi", [IDENTITY, EXPM1], ids=("identity", "expm1"))
    def test_order_one_is_composite_trapezoid(self, psi):
        g = grid_for(psi, n=33)
        m = frac_integral_matrix(g, psi, 1.0)
        rng = np.random.default_rng(11)
        f = rng.uniform(-1.0, 1.0, g.n)
        got = m.entries @ f
        want = np.concatenate(
            [[0.0], [np.trapezoid(f[: i + 1], g.u[: i + 1]) for i in range(1, g.n)]]
        )
        assert got == pytest.approx(want, abs=1e-13)


class TestHilferDerivative:
    def test_classical_derivative_of_square(self):
        g = grid_for(IDENTITY, n=129)
        for beta in (0.0, 0.5, 1.0):
            m = hilfer_derivative_matrix(g, IDENTITY, FractionalOrder(1.0, beta))
            got = m.entries @ g.x**2
            assert got == pytest.approx(2.0 * g.x, abs=1e-10)

    def test_alpha_one_equals_d1_exactly(self):
        for psi in ALL_PSI:
            g = grid_for(psi, n=64)
            d1 = hilfer_derivative_matrix(g, psi, FractionalOrder(1.0)).entries
            for beta in (0.0, 1.0):
                m = hilfer_derivative_matrix(g, psi, FractionalOrder(1.0, beta))
                assert np.array_equal(m.entries, d1)

    def test_power_rule_identity(self):
        # x^1.5 under (alpha=0.75, beta=0.5): Gamma(2.5)/Gamma(1.75) x^0.75
        g = grid_for(IDENTITY, n=513)
        order = FractionalOrder(0.75, 0.5)
        m = hilfer_derivative_matrix(g, IDENTITY, order)
        got = m.entries @ g.x**1.5
        coef = math.gamma(2.5) / math.gamma(1.75)
        assert coef == pytest.approx(1.4464, abs=1e-4)
        want = coef * g.x**0.75
        collar = max(2, int(np.ceil(0.05 * g.n)))
        assert np.abs(got - want)[collar:-1].max() < 5e-3

    def test_zero_field_maps_to_zero(self):
        g = grid_for(IDENTITY, n=65)
        m = hilfer_derivative_matrix(g, IDENTITY, FractionalOrder(0.75, 0.5))
        assert np.all(m.entries @ np.zeros(g.n) == 0.0)

    def test_matches_power_oracle_smooth_case(self):
        g = grid_for(IDENTITY, n=513)
        order = FractionalOrder(0.75, 0.5)
        m = hilfer_derivative_matrix(g, IDENTITY, order)
        f = (g.u - g.u[0]) ** 1.5
        want = hilfer_power_oracle(order, 2.5, g)
        collar = max(2, int(np.ceil(0.05 * g.n)))
        assert np.abs(m.entries @ f - want)[collar:-1].max() < 1e-4


class TestLeftRule:
    """Rows in blocks, one power per node pair, bit for bit the four-power loop.

    The block loop runs on every node set; the rule runs it on every grid
    but a uniform one, whose rule TestUniformRule checks.
    """

    @pytest.mark.parametrize("order", [0.05, 0.125, 0.25, 0.5, 1.0])
    # 2*_BLOCK +- 1: a last block one row short of full, full, and of one row
    @pytest.mark.parametrize("n", [9, 100, 513, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_integral_matches_reference(self, psi, n, order):
        g = grid_for(psi, n=n)
        want = left_integral_reference(g.u, order)
        assert np.array_equal(_block_weights(g.u, order), want)
        if not _is_uniform(g.u):
            assert np.array_equal(frac_integral_matrix(g, psi, order).entries, want)
        # the reflected nodes, which increase to 0
        v = -g.u[::-1]
        assert np.array_equal(_block_weights(v, order), left_integral_reference(v, order))


def exact_row_sums(W: np.ndarray, f: np.ndarray) -> np.ndarray:
    """W f with every row summed exactly: the weights' error, not BLAS's summation order."""
    return np.array([math.fsum(row) for row in (W * f).tolist()])


class TestUniformRule:
    """On uniform nodes a weight depends only on the lag i - j, in distance form."""

    @pytest.mark.parametrize("order", [0.05, 0.125, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [9, 100, 127, 128, 129, 513, 1025])
    def test_lag_structure_and_exact_moments(self, n, order):
        g = grid_for(IDENTITY, n=n)
        assert _is_uniform(g.u)
        W = frac_integral_matrix(g, IDENTITY, order).entries
        t = g.u - g.u[0]
        # W[i+1, j+1] == W[i, j] from column 1 on; column 0 holds the half cells
        assert np.array_equal(W[1:, 2:], W[:-1, 1:-1])
        # the interpolant is exact on 1 and on u - u_0, so the rule integrates
        # both in closed form, to the rounding of the closed form itself
        eps = np.finfo(float).eps
        for f, want in (
            (np.ones(n), t**order / math.gamma(order + 1.0)),
            (t, t ** (order + 1.0) / math.gamma(order + 2.0)),
        ):
            err = np.abs(exact_row_sums(W, f) - want).max()
            assert err <= 4 * eps * np.abs(want).max()


class _MatmulSpy(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulSpy.products += 1

        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _MatmulSpy) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(plain(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


def rl_reference(g: Grid, psi: PsiFunction, order: FractionalOrder) -> np.ndarray:
    """The dense left Riemann-Liouville derivative from the verbatim integral rule.

    D1 . I^{1-alpha}; at beta = 1, alpha < 1 it acts on f - f(0).
    """
    n = g.n
    d1 = hilfer_derivative_matrix(g, psi, FractionalOrder(1.0)).entries
    shift = np.eye(n)
    if order.alpha < 1.0 and order.beta == 1.0:
        shift[:, 0] -= 1.0
    integral = left_integral_reference(g.u, 1.0 - order.alpha) if order.alpha < 1.0 else np.eye(n)
    return d1 @ integral @ shift


class TestLeftFactors:
    """D_left = D1 . I^{1-alpha}, the stencil acting on the integral's rows."""

    @pytest.mark.parametrize("n", [33, 129])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_matches_dense_rl_reference(self, psi, n):
        g = grid_for(psi, n=n)
        d1 = hilfer_derivative_matrix(g, psi, FractionalOrder(1.0)).entries
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                order = FractionalOrder(alpha, beta)
                want = rl_reference(g, psi, order)
                got = hilfer_derivative_matrix(g, psi, order).entries
                if alpha == 1.0:
                    assert np.array_equal(got, d1)
                tol = 1e-13 * np.abs(want).max()
                assert np.abs(got - want).max() <= tol, (alpha, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_no_dense_product_no_triangular(self, monkeypatch, alpha, beta):
        # every factor is a spy, so a dense product with any of them is counted
        calc = psifrac.calculus
        real_rule, real_stencil = calc._left_integral_entries, calc._d1_stencil

        def spy_rule(*args, **kwargs):
            return real_rule(*args, **kwargs).view(_MatmulSpy)

        monkeypatch.setattr(calc, "_left_integral_entries", spy_rule)
        monkeypatch.setattr(calc, "_d1_stencil", lambda u: real_stencil(u).view(_MatmulSpy))
        monkeypatch.setattr(_MatmulSpy, "products", 0)
        g = grid_for(IDENTITY, n=33)
        hilfer_derivative_matrix(g, IDENTITY, FractionalOrder(alpha, beta))
        assert _MatmulSpy.products == 0

    @pytest.mark.parametrize("n", [4, 9, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 513])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_stencil_slices_match_gathers(self, psi, n):
        # the end rows on their own, the interior blocks from slices: bit for
        # bit the stencil applied by gathers to every row at once
        c = psifrac.calculus._d1_stencil(grid_for(psi, n=n).u)
        start = np.clip(np.arange(n) - 1, 0, n - 3)
        x = np.random.default_rng(n).standard_normal((n, n + 3))
        want = c[:, 0:1] * x[start] + c[:, 1:2] * x[start + 1] + c[:, 2:3] * x[start + 2]
        got = psifrac.calculus._stencil_times(c, x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [9, 2 * _BLOCK - 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_alpha_one_is_the_dense_stencil(self, psi, n):
        # the three-point stencil written out densely, one row at a time:
        # its matrix is D_left at alpha = 1, bit for bit and with no -0.0
        u = grid_for(psi, n=n).u
        want = np.zeros((n, n))
        for i in range(n):
            j = min(max(i - 1, 0), n - 3)
            a, b = u[j + 1] - u[j], u[j + 2] - u[j + 1]
            if i == 0:
                row = -(2 * a + b) / (a * (a + b)), (a + b) / (a * b), -a / (b * (a + b))
            elif i == n - 1:
                row = b / (a * (a + b)), -(a + b) / (a * b), (a + 2 * b) / (b * (a + b))
            else:
                row = -b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b))
            want[i, j : j + 3] = row
        got = hilfer_derivative_matrix(grid_for(psi, n=n), psi, FractionalOrder(1.0)).entries
        assert got.tobytes() == want.tobytes()


class TestTypeParameter:
    """beta enters only as the Caputo shift at beta = 1."""

    @pytest.mark.parametrize("psi", ["identity", "square"])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_every_beta_below_one_is_bitwise_beta_zero(self, alpha, psi):
        # the tents vanish at 0, so the Caputo shift at beta = 1 leaves their
        # derivatives, and with them the operator and the energy, as they are
        def outputs(beta):
            op = assemble_composed(make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=65))
            return op, principal_eigenpair(op, tol=1e-9).lambda1, solve_e(op)

        op0, lam0, e0 = outputs(0.0)
        for beta in (0.3, 0.5, 0.999, 1.0):
            op, lam, e = outputs(beta)
            assert np.array_equal(form_matrix(op), form_matrix(op0)), beta
            assert energy(e0, op) == energy(e0, op0), beta
            assert lam == lam0 and np.array_equal(e, e0), beta

    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_caputo_shift_only_touches_the_value_at_zero(self, psi, alpha):
        g = grid_for(psi, n=129)
        rl = hilfer_derivative_matrix(g, psi, FractionalOrder(alpha, 0.0))
        caputo = hilfer_derivative_matrix(g, psi, FractionalOrder(alpha, 1.0))
        s = (g.u - g.u[0]) / (g.u[-1] - g.u[0])
        for f in (s * (1.0 - s), np.sin(np.pi * s), np.expm1(s), s**1.5):
            assert np.array_equal(caputo.entries @ f, rl.entries @ f)
        assert np.abs(caputo.entries @ np.ones(g.n)).max() <= 1e-13 * np.abs(rl.entries).max()


    def test_solve_is_bitwise_the_same_for_every_beta(self, tmp_path):
        # the tents vanish at u_0, so the Caputo shift at beta = 1 acts on
        # nothing in the operator, and the energy's D_left acts on fields
        # with u(0) = 0: solve.csv is one file for every beta
        k0 = form_matrix(assemble_composed(make_spec(alpha=0.75, beta=0.0, grid_n=129)))
        k1 = form_matrix(assemble_composed(make_spec(alpha=0.75, beta=1.0, grid_n=129)))
        assert np.array_equal(k0, k1)
        outs = []
        for beta in ("0", "0.5", "1"):
            out = tmp_path / beta
            argv = ["solve", "--alpha", "0.75", "--beta", beta, "--grid-n", "129"]
            assert main([*argv, "--output-dir", str(out)]) == 0
            outs.append((out / "solve.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestRightReflection:
    """The block loop on reflected nodes, reversed, is bit for bit the direct right rule."""

    @pytest.mark.parametrize("order", [0.05, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [9, 100, 513])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_integral_matches_reference(self, psi, n, order):
        g = grid_for(psi, n=n)
        want = right_integral_reference(g.u, order)
        assert np.array_equal(_block_weights(-g.u[::-1], order)[::-1, ::-1], want)


class TestPowerOracle:
    def test_gamma_ratio_for_nu_third(self):
        # nu=1/3 gives delta=(3+nu)/(1+nu)=2.5 and the ratio Gamma(2.5)/Gamma(1.75)
        nu = 1.0 / 3.0
        delta = (3.0 + nu) / (1.0 + nu)
        assert delta == pytest.approx(2.5, abs=1e-15)
        g = grid_for(IDENTITY, n=65)
        field = hilfer_power_oracle(FractionalOrder(0.75, 0.5), delta, g)
        coef = math.gamma(2.5) / math.gamma(1.75)
        assert coef == pytest.approx(1.4464, abs=1e-4)
        assert field[-1] == pytest.approx(coef, abs=1e-12)

    def test_classical_derivative_of_x(self):
        g = grid_for(IDENTITY, n=65)
        field = hilfer_power_oracle(FractionalOrder(1.0, 0.0), 2.0, g)
        assert field == pytest.approx(np.ones(g.n), abs=1e-14)

    def test_constant_field_at_delta_one_plus_alpha(self):
        g = grid_for(IDENTITY, n=65)
        for alpha in (0.6, 0.75, 0.9):
            field = hilfer_power_oracle(FractionalOrder(alpha, 0.5), 1.0 + alpha, g)
            assert field == pytest.approx(math.gamma(1.0 + alpha) * np.ones(g.n), abs=1e-12)

    def test_gamma_pole_rejected(self):
        g = grid_for(IDENTITY, n=65)
        # delta - alpha <= 0 only happens with out-of-range orders, but the
        # guard must still hold
        with pytest.raises(ValueError, match="delta - alpha"):
            hilfer_power_oracle(FractionalOrder(1.2, 0.0), 1.1, g)
        with pytest.raises(ValueError, match="delta"):
            hilfer_power_oracle(FractionalOrder(0.75, 0.0), 0.8, g)


class TestApply:
    def test_identity_operator_returns_field(self):
        from psifrac import OperatorMatrix

        rng = np.random.default_rng(5)
        f = rng.normal(size=16)
        ident = OperatorMatrix(np.eye(16))
        assert ident.entries @ f == pytest.approx(f, abs=0)

    def test_cumulative_values(self):
        g = grid_for(IDENTITY, n=33)
        m = frac_integral_matrix(g, IDENTITY, 1.0)
        assert m.entries @ np.ones(g.n) == pytest.approx(g.x, abs=1e-13)


@pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
@pytest.mark.parametrize("p,q", [(0.3, 0.4), (0.5, 0.5), (0.25, 0.25)])
def test_semigroup_error_shrinks(psi, p, q):
    errs = {}
    for n in (128, 256):
        g = grid_for(psi, n=n)
        ip = frac_integral_matrix(g, psi, p).entries
        iq = frac_integral_matrix(g, psi, q).entries
        ipq = frac_integral_matrix(g, psi, p + q).entries
        f = (g.u - g.u[0]) ** 1.5
        errs[n] = np.abs(ip @ (iq @ f) - ipq @ f).max()
    assert errs[128] / errs[256] >= 1.5


# smooth test family vanishing at the left endpoint (the discrete
# derivative cannot represent the infinite slope that I^alpha creates
# there for f(0) != 0, so the natural domain is pinned down at 0)
SMOOTH_FNS = {
    "s(1-s)": lambda s: s * (1.0 - s),
    "sin(pi s)": lambda s: np.sin(np.pi * s),
    "expm1(s)": lambda s: np.expm1(s),
}


@pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
@pytest.mark.parametrize("alpha,beta", [(0.75, 0.5), (0.6, 0.0), (0.9, 1.0)])
@pytest.mark.parametrize("fname", sorted(SMOOTH_FNS))
def test_left_inverse_property(psi, alpha, beta, fname):
    g = grid_for(psi, n=512)
    order = FractionalOrder(alpha, beta)
    integ = frac_integral_matrix(g, psi, alpha)
    deriv = hilfer_derivative_matrix(g, psi, order)
    s = (g.u - g.u[0]) / (g.u[-1] - g.u[0])
    f = SMOOTH_FNS[fname](s)
    err = np.abs(deriv.entries @ (integ.entries @ f) - f)[1:-1].max()
    assert err < 1e-2


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_oracle_convergence_is_monotone(beta):
    order = FractionalOrder(0.75, beta)
    errs = []
    for n in (64, 128, 256, 512):
        g = grid_for(IDENTITY, n=n)
        m = hilfer_derivative_matrix(g, IDENTITY, order)
        f = (g.u - g.u[0]) ** 1.5
        want = hilfer_power_oracle(order, 2.5, g)
        collar = max(2, int(np.ceil(0.05 * n)))
        errs.append(np.abs(m.entries @ f - want)[collar:-1].max())
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
