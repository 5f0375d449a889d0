import math

import numpy as np
import pytest

from psifrac import Side, frac_integral_matrix, make_spec, validate_spec
from psifrac.config import parse_config_text
from psifrac.core import (
    FractionalOrder,
    KirchhoffFn,
    KirchhoffKind,
    Nonlinearity,
    NonlinearityKind,
    PsiFunction,
    PsiKind,
)

ALL_PSI = [PsiFunction(k) for k in PsiKind]
ALL_H = [
    Nonlinearity(NonlinearityKind.SQRT),
    Nonlinearity(NonlinearityKind.LOG1P),
    Nonlinearity(NonlinearityKind.SATURATING_LINEAR, c=2.0),
    Nonlinearity(NonlinearityKind.ZERO),
]
ALL_M = [
    KirchhoffFn(KirchhoffKind.CONSTANT, zeta0=1.5, zeta_inf=1.5),
    KirchhoffFn(KirchhoffKind.AFFINE, zeta0=1.0, zeta_inf=3.0, b0=0.5),
    KirchhoffFn(KirchhoffKind.SATURATING, zeta0=0.5, zeta_inf=2.0, scale=10.0),
]


def test_validate_spec_all_good():
    spec = make_spec(alpha=0.75, beta=0.5, nu=0.5, lam=1.0)
    assert validate_spec(spec) == []


def test_validate_spec_alpha_too_small():
    spec = make_spec(alpha=0.4)
    msgs = validate_spec(spec)
    assert len(msgs) == 1
    assert "alpha" in msgs[0] and "1/2" in msgs[0]


def test_validate_spec_nu_out_of_range():
    spec = make_spec(nu=1.2)
    msgs = validate_spec(spec)
    assert len(msgs) == 1
    assert "nu" in msgs[0] and "(0,1)" in msgs[0]


def test_validate_spec_collects_everything():
    spec = make_spec(alpha=0.3, nu=2.0, lam=-1.0, zeta0=-1.0)
    msgs = validate_spec(spec)
    assert len(msgs) >= 4


@pytest.mark.parametrize("psi", ["identity", "square"])
def test_integral_order_floor_keeps_the_rule_finite(psi):
    # the floor on 1 - alpha is (psi(T) - psi(0))/max float; the smallest
    # nonzero order, 2^-53, passes it on (0, 100) and fails it at a span of 1e293
    alpha = 1.0 - 2.0**-53
    spec = make_spec(alpha=alpha, psi=psi, T=100.0, grid_n=33)
    assert validate_spec(spec) == []
    w = frac_integral_matrix(spec.grid, spec.psi, 1.0 - alpha, Side.LEFT).entries
    assert np.isfinite(w).all()
    T = 1e293 if psi == "identity" else math.sqrt(1e293)
    for a, admissible in ((alpha, False), (1.0 - 2.0**-49, True)):
        msgs = validate_spec(make_spec(alpha=a, psi=psi, T=T, grid_n=33))
        assert (msgs == []) == admissible, msgs
        if not admissible:
            assert "integral order 1 - alpha" in msgs[0]


def test_fractional_order_gammas():
    for alpha in (0.6, 0.75, 0.9, 1.0):
        for beta in (0.0, 0.3, 0.5, 1.0):
            o = FractionalOrder(alpha, beta)
            assert 0.0 <= o.g1 < 0.5
            assert 0.0 <= o.g2 < 0.5
            assert o.g1 + o.g2 == pytest.approx(1.0 - alpha, abs=1e-15)


@pytest.mark.parametrize("psi", ALL_PSI, ids=lambda p: p.kind.value)
def test_psi_strictly_increasing(psi):
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, 200)
    delta = rng.uniform(1e-6, 0.5, 200)
    assert np.all(psi(x + delta) > psi(x))
    assert np.isfinite(psi(0.0))
    # derivative positive away from the origin
    xs = rng.uniform(1e-3, 1.0, 100)
    assert np.all(psi.derivative(xs) > 0)


@pytest.mark.parametrize("h", ALL_H, ids=lambda h: h.kind.value)
def test_h_nondecreasing_and_sublinear(h):
    rng = np.random.default_rng(7)
    s1 = rng.uniform(0.0, 100.0, 500)
    s2 = s1 + rng.uniform(1e-9, 10.0, 500)
    assert np.all(h(s2) >= h(s1))
    if h.kind is not NonlinearityKind.ZERO:
        # h(s)/s at 1e6 below 1e-2 of its value at 1
        assert abs((h(1e6) / 1e6) / (h(1.0) / 1.0)) < 1e-2


@pytest.mark.parametrize("m", ALL_M, ids=lambda m: m.kind.value)
def test_kirchhoff_bounds(m):
    t = np.concatenate([[0.0], np.logspace(-6, 9, 400)])
    vals = m(t)
    assert np.all(vals >= m.zeta0 - 1e-12)
    assert np.all(vals <= m.zeta_inf + 1e-12)
    # nondecreasing
    assert np.all(np.diff(vals) >= -1e-12)


def test_kirchhoff_affine_is_capped():
    m = KirchhoffFn(KirchhoffKind.AFFINE, zeta0=1.0, zeta_inf=2.0, b0=1.0)
    assert m(0.0) == 1.0
    assert m(0.5) == 1.5
    assert m(1e9) == 2.0


def test_unknown_catalog_names_rejected():
    with pytest.raises(ValueError, match="unknown psi kind"):
        PsiFunction.from_name("cubic")
    with pytest.raises(ValueError, match="unknown h kind"):
        Nonlinearity.from_name("tanh")
    with pytest.raises(ValueError, match="unknown m kind"):
        KirchhoffFn.from_name("linear", 1.0, 2.0)


def test_grid_mismatch_detected():
    import dataclasses

    spec = make_spec(psi="identity")
    other = PsiFunction(PsiKind.SQUARE)
    broken = dataclasses.replace(spec, psi=other)
    msgs = validate_spec(broken)
    assert any("grid.u" in m for m in msgs)


def test_shift_flag_lowers_h_at_zero():
    h = Nonlinearity(NonlinearityKind.SQRT, shift=0.5)
    assert h(0.0) == -0.5
    s = np.linspace(0.0, 10.0, 50)
    assert np.all(np.diff(h(s)) >= 0)
    with_neg = Nonlinearity(NonlinearityKind.SQRT, shift=-1.0)
    assert any("shift" in m for m in with_neg.violations())


def test_domain_types_are_immutable():
    import dataclasses

    spec = make_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.nu = 0.9
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.order.alpha = 0.6
    with pytest.raises(ValueError):
        spec.grid.x[0] = 1.0  # node arrays are read-only


def test_grid_boundary_and_interior():
    spec = make_spec(grid_n=16)
    assert spec.grid.boundary == (0, 15)
    assert spec.grid.interior == slice(1, 15)


class TestConfig:
    def test_defaults_and_overrides(self):
        values = parse_config_text("alpha = 0.75\nlambda = 2.5\ngrid_n = 65\n")
        assert values["alpha"] == 0.75
        assert values["lambda"] == 2.5
        assert values["grid_n"] == 65
        assert values["psi"] == "identity"

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# a comment\n\nnu = 0.25\n")
        assert values["nu"] == 0.25

    def test_unknown_key_is_error(self):
        with pytest.raises(ValueError, match="unknown key 'gamma'"):
            parse_config_text("gamma = 1.0\n")

    def test_bad_value_is_error(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config_text("alpha = fast\n")

    def test_missing_equals_is_error(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_text("alpha 0.9\n")
