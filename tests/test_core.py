import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifrac import frac_integral_matrix, make_spec, validate_spec
from psifrac.config import parse_config_text, spec_from_config
from psifrac.core import (
    FractionalOrder,
    Grid,
    KirchhoffFn,
    KirchhoffKind,
    Nonlinearity,
    NonlinearityKind,
    ProblemSpec,
    PsiFunction,
    PsiKind,
)

ALL_PSI = [PsiFunction(k) for k in PsiKind]
ALL_H = [
    Nonlinearity(NonlinearityKind.SQRT),
    Nonlinearity(NonlinearityKind.LOG1P),
    Nonlinearity(NonlinearityKind.SATURATING_LINEAR),
    Nonlinearity(NonlinearityKind.ZERO),
]
ALL_M = [
    KirchhoffFn(KirchhoffKind.CONSTANT, zeta0=1.5, zeta_inf=1.5),
    KirchhoffFn(KirchhoffKind.AFFINE, zeta0=1.0, zeta_inf=3.0),
    KirchhoffFn(KirchhoffKind.SATURATING, zeta0=0.5, zeta_inf=2.0),
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
    # the smallest nonzero order, 2^-53, keeps the rule finite on (0, 100) and
    # on the widest interval whose cell widths the stencil admits at n = 33;
    # a little wider, and at a span of 1e293, only the widths are refused
    alpha = 1.0 - 2.0**-53
    widest, refused = (3.0e155, 3.1e155) if psi == "identity" else (3.9e77, 4.0e77)
    for T in (100.0, widest):
        spec = make_spec(alpha=alpha, psi=psi, T=T, grid_n=33)
        assert validate_spec(spec) == []
        w = frac_integral_matrix(spec.grid, spec.grid.psi, 1.0 - alpha).entries
        assert np.isfinite(w).all()
    for T in (refused, 1e293 if psi == "identity" else math.sqrt(1e293)):
        for a in (alpha, 1.0 - 2.0**-49):
            msgs = validate_spec(make_spec(alpha=a, psi=psi, T=T, grid_n=33))
            assert len(msgs) == 1 and msgs[0].startswith("cell widths"), msgs


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


@pytest.mark.parametrize("h", ALL_H, ids=lambda h: h.kind.value)
def test_h_nondecreasing_and_sublinear(h):
    rng = np.random.default_rng(7)
    s1 = rng.uniform(0.0, 100.0, 500)
    s2 = s1 + rng.uniform(1e-9, 10.0, 500)
    assert np.all(h(s2) >= h(s1))
    if h.kind is not NonlinearityKind.ZERO:
        # h(s)/s at 1e6 below 1e-2 of its value at 1
        assert abs((h(1e6) / 1e6) / (h(1.0) / 1.0)) < 1e-2


SPECIAL_S = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, -1.0, 1.0, 1.7976931348623157e308,
]  # fmt: skip


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(NonlinearityKind),
    s=st.one_of(st.sampled_from(SPECIAL_S), st.floats()),
)
def test_h_of_a_float_is_bitwise_its_array_path(kind, s):
    # a Python float (or a numpy scalar) takes h's float path, a 0-d array
    # the array path; signed zeros and nan payloads count
    h = Nonlinearity(kind)
    with np.errstate(all="ignore"):
        want = h(np.asarray(s))
        for got in (h(s), h(np.float64(s))):
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("m", ALL_M, ids=lambda m: m.kind.value)
def test_kirchhoff_bounds(m):
    t = np.concatenate([[0.0], np.logspace(-6, 9, 400)])
    vals = m(t)
    assert np.all(vals >= m.zeta0 - 1e-12)
    assert np.all(vals <= m.zeta_inf + 1e-12)
    # nondecreasing
    assert np.all(np.diff(vals) >= -1e-12)


def test_kirchhoff_affine_is_capped():
    m = KirchhoffFn(KirchhoffKind.AFFINE, zeta0=1.0, zeta_inf=2.0)
    assert m(0.0) == 1.0
    assert m(0.5) == 1.5
    assert m(1e9) == 2.0


@pytest.mark.parametrize(
    "zeta0, zeta_inf, msg",
    [
        (1.0, math.inf, "zeta_inf must be finite"),
        (1.0, math.nan, "zeta_inf must be finite"),
        (math.inf, math.inf, "zeta0 must be positive and finite"),
        (math.nan, 2.0, "zeta0 must be positive and finite"),
    ],
)
def test_kirchhoff_bounds_must_be_finite(zeta0, zeta_inf, msg):
    for kind in KirchhoffKind:
        bad = KirchhoffFn(kind, zeta0=zeta0, zeta_inf=zeta_inf).violations()
        assert any(m.startswith(msg) for m in bad), bad


@pytest.mark.parametrize("kw", [dict(T=math.inf), dict(T=math.nan), dict(psi_k=-math.inf)])
def test_non_finite_node_data_is_refused_before_the_nodes(kw):
    with pytest.raises(ValueError, match="must be finite"):
        make_spec(psi="exp_minus_one", **kw)


def test_unknown_catalog_names_rejected():
    with pytest.raises(ValueError, match="unknown psi kind"):
        PsiFunction.from_name("cubic")
    with pytest.raises(ValueError, match="unknown h kind"):
        Nonlinearity.from_name("tanh")
    with pytest.raises(ValueError, match="unknown m kind"):
        KirchhoffFn.from_name("linear", 1.0, 2.0)


def test_domain_types_are_immutable():
    import dataclasses

    spec = make_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.nu = 0.9
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.order.alpha = 0.6
    with pytest.raises(ValueError):
        spec.grid.x[0] = 1.0  # node arrays are read-only


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

    # (the path of the spec's attribute holding the field, or "" for its own,
    # field) -> a config key and a value other than its default
    REACH = {
        ("order", "alpha"): ("alpha", 0.75),
        ("order", "beta"): ("beta", 1.0),
        ("grid", "T"): ("T", 2.0),
        ("grid", "n"): ("grid_n", 65),
        ("grid.psi", "kind"): ("psi", "square"),
        ("grid.psi", "k"): ("psi_k", 2.0),
        ("m", "kind"): ("m", "affine"),
        ("m", "zeta0"): ("zeta0", 0.5),
        ("m", "zeta_inf"): ("zeta_inf", 3.0),
        ("h", "kind"): ("h", "log1p"),
        ("", "nu"): ("nu", 0.25),
        ("", "lam"): ("lambda", 7.0),
    }

    def test_every_problem_field_is_set_by_a_config_key(self):
        # a field that no key sets is a knob that no run can turn
        import dataclasses
        import operator

        holders = {
            "order": FractionalOrder,
            "grid": Grid,
            "grid.psi": PsiFunction,
            "m": KirchhoffFn,
            "h": Nonlinearity,
        }
        walked = {
            (attr, f.name)
            for attr, cls in holders.items()
            for f in dataclasses.fields(cls)
            if f"{attr}.{f.name}" not in holders
        }
        walked |= {("", f.name) for f in dataclasses.fields(ProblemSpec) if f.name not in holders}
        assert walked == set(self.REACH)
        base = spec_from_config(parse_config_text(""))
        for (attr, name), (key, value) in self.REACH.items():
            spec = spec_from_config(parse_config_text(f"{key} = {value}\n"))
            old, new = (operator.attrgetter(attr)(x) if attr else x for x in (base, spec))
            assert getattr(new, name) != getattr(old, name), (attr, name, key)
