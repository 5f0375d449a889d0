import math

import numpy as np
import pytest

from oracles import frac_integral_of_one, left_integral_reference, right_integral_reference
from psifrac import (
    FractionalOrder,
    Grid,
    PsiFunction,
    Side,
    frac_integral_matrix,
    hilfer_derivative_matrix,
    hilfer_power_oracle,
)
import psifrac.calculus
from psifrac.calculus import _BLOCK, _left_integral_entries
from psifrac.cli import main
from psifrac.core import PsiKind, make_spec
from psifrac.operators import assemble_composed, energy, principal_eigenpair, solve_e

IDENTITY = PsiFunction(PsiKind.IDENTITY)
EXPM1 = PsiFunction(PsiKind.EXP_MINUS_ONE, k=1.0)
ALL_PSI = [PsiFunction(k) for k in PsiKind]


def grid_for(psi, n=129, T=1.0):
    return Grid.make(T, n, psi)


class TestFracIntegral:
    def test_order_one_is_plain_integration(self):
        g = grid_for(IDENTITY, n=65)
        m = frac_integral_matrix(g, IDENTITY, 1.0, Side.LEFT)
        got = m.entries @ np.ones(g.n)
        assert got == pytest.approx(g.x, abs=1e-13)

    def test_half_order_of_one_identity(self):
        # I^{1/2} 1 at x=1 equals 1/Gamma(1.5) = 2/sqrt(pi)
        g = grid_for(IDENTITY, n=257)
        m = frac_integral_matrix(g, IDENTITY, 0.5, Side.LEFT)
        got = m.entries @ np.ones(g.n)
        assert got[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)
        assert got == pytest.approx(frac_integral_of_one(g.u, 0.5), abs=1e-6)

    def test_half_order_of_one_expm1(self):
        g = grid_for(EXPM1, n=257)
        m = frac_integral_matrix(g, EXPM1, 0.5, Side.LEFT)
        got = m.entries @ np.ones(g.n)
        want = (np.expm1(g.x)) ** 0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("order", [0.0, -0.5, 1.5])
    def test_bad_order_rejected(self, order):
        g = grid_for(IDENTITY, n=16)
        with pytest.raises(ValueError, match="order"):
            frac_integral_matrix(g, IDENTITY, order, Side.LEFT)

    def test_small_grid_rejected(self):
        g = grid_for(IDENTITY, n=4)
        with pytest.raises(ValueError, match="grid_n"):
            frac_integral_matrix(g, IDENTITY, 0.5, Side.LEFT)

    def test_triangular_structure(self):
        g = grid_for(IDENTITY, n=32)
        left = frac_integral_matrix(g, IDENTITY, 0.5, Side.LEFT).entries
        right = frac_integral_matrix(g, IDENTITY, 0.5, Side.RIGHT).entries
        assert np.allclose(left, np.tril(left))
        assert np.allclose(right, np.triu(right))

    def test_right_integral_of_one(self):
        g = grid_for(IDENTITY, n=257)
        m = frac_integral_matrix(g, IDENTITY, 0.5, Side.RIGHT)
        got = m.entries @ np.ones(g.n)
        want = (g.u[-1] - g.u) ** 0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("psi", [IDENTITY, EXPM1], ids=("identity", "expm1"))
    def test_order_one_is_composite_trapezoid(self, psi):
        g = grid_for(psi, n=33)
        m = frac_integral_matrix(g, psi, 1.0, Side.LEFT)
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
        want = hilfer_power_oracle(order, 2.5, IDENTITY, g)
        collar = max(2, int(np.ceil(0.05 * g.n)))
        assert np.abs(m.entries @ f - want)[collar:-1].max() < 1e-4


class TestLeftRule:
    """Rows in blocks, one power per node pair, bit for bit the four-power loop."""

    @pytest.mark.parametrize("order", [0.05, 0.125, 0.25, 0.5, 1.0])
    # 2*_BLOCK +- 1: a last block one row short of full, full, and of one row
    @pytest.mark.parametrize("n", [9, 100, 513, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_integral_matches_reference(self, psi, n, order):
        g = grid_for(psi, n=n)
        got = frac_integral_matrix(g, psi, order, Side.LEFT).entries
        assert np.array_equal(got, left_integral_reference(g.u, order))
        # the reflected nodes, which the right rule runs on
        v = -g.u[::-1]
        assert np.array_equal(_left_integral_entries(v, order), left_integral_reference(v, order))


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
        real_rule, real_d1 = calc._left_integral_entries, calc._d1_entries

        def spy_rule(*args):
            return real_rule(*args).view(_MatmulSpy)

        monkeypatch.setattr(calc, "_left_integral_entries", spy_rule)
        monkeypatch.setattr(calc, "_d1_entries", lambda u: real_d1(u).view(_MatmulSpy))
        monkeypatch.setattr(_MatmulSpy, "products", 0)
        g = grid_for(IDENTITY, n=33)
        hilfer_derivative_matrix(g, IDENTITY, FractionalOrder(alpha, beta))
        assert _MatmulSpy.products == 0


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
            assert np.array_equal(op.a_full.entries, op0.a_full.entries), beta
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
        a0 = assemble_composed(make_spec(alpha=0.75, beta=0.0, grid_n=129)).a_full.entries
        a1 = assemble_composed(make_spec(alpha=0.75, beta=1.0, grid_n=129)).a_full.entries
        assert np.array_equal(a0, a1)
        outs = []
        for beta in ("0", "0.5", "1"):
            out = tmp_path / beta
            argv = ["solve", "--alpha", "0.75", "--beta", beta, "--grid-n", "129"]
            assert main([*argv, "--output-dir", str(out)]) == 0
            outs.append((out / "solve.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestRightReflection:
    """The right rule is the left rule on reflected nodes, bit for bit the direct rule."""

    @pytest.mark.parametrize("order", [0.05, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [9, 100, 513])
    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
    def test_integral_matches_reference(self, psi, n, order):
        g = grid_for(psi, n=n)
        got = frac_integral_matrix(g, psi, order, Side.RIGHT).entries
        assert np.array_equal(got, right_integral_reference(g.u, order))


class TestPowerOracle:
    def test_gamma_ratio_for_nu_third(self):
        # nu=1/3 gives delta=(3+nu)/(1+nu)=2.5 and the ratio Gamma(2.5)/Gamma(1.75)
        nu = 1.0 / 3.0
        delta = (3.0 + nu) / (1.0 + nu)
        assert delta == pytest.approx(2.5, abs=1e-15)
        g = grid_for(IDENTITY, n=65)
        field = hilfer_power_oracle(FractionalOrder(0.75, 0.5), delta, IDENTITY, g)
        coef = math.gamma(2.5) / math.gamma(1.75)
        assert coef == pytest.approx(1.4464, abs=1e-4)
        assert field[-1] == pytest.approx(coef, abs=1e-12)

    def test_classical_derivative_of_x(self):
        g = grid_for(IDENTITY, n=65)
        field = hilfer_power_oracle(FractionalOrder(1.0, 0.0), 2.0, IDENTITY, g)
        assert field == pytest.approx(np.ones(g.n), abs=1e-14)

    def test_constant_field_at_delta_one_plus_alpha(self):
        g = grid_for(IDENTITY, n=65)
        for alpha in (0.6, 0.75, 0.9):
            field = hilfer_power_oracle(FractionalOrder(alpha, 0.5), 1.0 + alpha, IDENTITY, g)
            assert field == pytest.approx(math.gamma(1.0 + alpha) * np.ones(g.n), abs=1e-12)

    def test_gamma_pole_rejected(self):
        g = grid_for(IDENTITY, n=65)
        # delta - alpha <= 0 only happens with out-of-range orders, but the
        # guard must still hold
        with pytest.raises(ValueError, match="delta - alpha"):
            hilfer_power_oracle(FractionalOrder(1.2, 0.0), 1.1, IDENTITY, g)
        with pytest.raises(ValueError, match="delta"):
            hilfer_power_oracle(FractionalOrder(0.75, 0.0), 0.8, IDENTITY, g)


class TestApply:
    def test_identity_operator_returns_field(self):
        from psifrac import OperatorMatrix

        rng = np.random.default_rng(5)
        f = rng.normal(size=16)
        ident = OperatorMatrix(np.eye(16))
        assert ident.entries @ f == pytest.approx(f, abs=0)

    def test_cumulative_values(self):
        g = grid_for(IDENTITY, n=33)
        m = frac_integral_matrix(g, IDENTITY, 1.0, Side.LEFT)
        assert m.entries @ np.ones(g.n) == pytest.approx(g.x, abs=1e-13)


@pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
@pytest.mark.parametrize("p,q", [(0.3, 0.4), (0.5, 0.5), (0.25, 0.25)])
def test_semigroup_error_shrinks(psi, p, q):
    errs = {}
    for n in (128, 256):
        g = grid_for(psi, n=n)
        ip = frac_integral_matrix(g, psi, p, Side.LEFT).entries
        iq = frac_integral_matrix(g, psi, q, Side.LEFT).entries
        ipq = frac_integral_matrix(g, psi, p + q, Side.LEFT).entries
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
    integ = frac_integral_matrix(g, psi, alpha, Side.LEFT)
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
        want = hilfer_power_oracle(order, 2.5, IDENTITY, g)
        collar = max(2, int(np.ceil(0.05 * n)))
        errs.append(np.abs(m.entries @ f - want)[collar:-1].max())
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
