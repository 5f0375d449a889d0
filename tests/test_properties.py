"""Properties over the problem-spec space, at grids of at most 65 nodes.

Every draw is either wholly admissible or takes each value from a range
that straddles its admissible set, so that both the accepted and the
refused side of every check are exercised.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import form_matrix, stiffness_reference, tent_form_reference
from psifrac import (
    assemble_composed,
    linear_majorant,
    make_spec,
    principal_eigenpair,
    solve_e,
    validate_spec,
)
from psifrac.cli import SUBCOMMANDS, main
from psifrac.core import Grid, KirchhoffKind, Nonlinearity, NonlinearityKind, PsiFunction, PsiKind


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# make_spec keyword -> (admissible values, values straddling the admissible set)
FIELDS = dict(
    alpha=(st.one_of(st.just(1.0), _floats(0.55, 1.0)), _floats(0.3, 1.2)),
    beta=(_floats(0.0, 1.0), _floats(-0.2, 1.2)),
    psi=(st.sampled_from([k.value for k in PsiKind]),) * 2,
    psi_k=(_floats(0.1, 3.0), _floats(-1.0, 3.0)),
    nu=(_floats(0.05, 0.95), _floats(-0.2, 1.2)),
    lam=(_floats(0.1, 150.0), _floats(-5.0, 150.0)),
    T=(_floats(0.2, 3.0), _floats(-0.5, 3.0)),
    grid_n=(st.integers(8, 33), st.integers(2, 33)),
    h=(st.sampled_from([k.value for k in NonlinearityKind]),) * 2,
    m=(st.sampled_from([k.value for k in KirchhoffKind]),) * 2,
    zeta0=(_floats(0.1, 3.0), _floats(-0.5, 3.0)),
    zeta_inf=(_floats(3.0, 5.0), _floats(-0.5, 3.0)),
)


@st.composite
def spec_fields(draw, side):
    """make_spec keywords: all admissible (side 0) or each drawn across its limits (side 1)."""
    return {key: draw(pair[side]) for key, pair in FIELDS.items()}


specs = st.integers(0, 1).flatmap(spec_fields).map(lambda fields: make_spec(**fields))


@settings(deadline=None, max_examples=200)
@given(spec=specs)
def test_validate_spec_reports_and_never_raises(spec):
    bad = validate_spec(spec)
    assert isinstance(bad, list) and all(isinstance(msg, str) for msg in bad)


@settings(deadline=None, max_examples=150)
@given(spec=specs)
def test_assemble_composed_returns_or_raises_value_error(spec):
    try:
        op = assemble_composed(spec)
    except ValueError:
        return
    # assembly validates first, so an operator means an admissible spec
    assert not validate_spec(spec)
    assert op.n == spec.grid.n


@settings(deadline=None, max_examples=150)
@given(spec=spec_fields(0).map(lambda fields: make_spec(**fields)), seed=st.integers(0, 2**32 - 1))
def test_solve_interior_matches_dense_solve(spec, seed):
    # the cumulative sums (alpha = 1), the FFT solves (below, uniform grid)
    # and the tent table's triangular solves (below, other grids) all agree
    # with a plain dense solve of A_int = W^-1 K_int, the reference's K_int,
    # to the block's conditioning
    try:
        op = assemble_composed(spec)
    except ValueError:
        return
    block = tent_form_reference(spec)[:, 1:-1] / op.w[:, None]
    cond = np.linalg.cond(block)
    if not cond < 1e10:
        return
    b = np.random.default_rng(seed).standard_normal(op.n - 2)
    want = np.linalg.solve(block, b)
    got = op.solve_interior(b)
    assert got[0] == 0.0 and got[-1] == 0.0
    err = np.linalg.norm(got[1:-1] - want)
    assert err <= 100.0 * cond * np.finfo(float).eps * np.linalg.norm(want)


@settings(deadline=None, max_examples=100)
@given(fields=spec_fields(0), alpha=_floats(0.55, 0.999))
def test_fractional_operator_keeps_the_positivity_the_pair_needs(fields, alpha):
    # below alpha = 1 the tent form gives a positive bottom eigenpair, a
    # positive e and an inverse-positive interior block at every admissible
    # spec drawn here (T <= 3; wider spans are the eigen stopping rule's)
    op = assemble_composed(make_spec(**{**fields, "alpha": alpha}))
    eig = principal_eigenpair(op, tol=1e-9)
    assert eig.lambda1 > 0 and eig.positive_interior
    assert solve_e(op)[1:-1].min() > 0
    inv = np.linalg.inv(form_matrix(op)[:, 1:-1])
    assert inv.min() >= -1e-12 * np.abs(inv).max()


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(list(NonlinearityKind)),
    nu=_floats(1e-6, 1.0 - 1e-9),
    a=_floats(1.0, 10.0),
    log_s_max=_floats(2.0, 300.0),
)
def test_linear_majorant_bounds_every_catalog_h(kind, nu, a, log_s_max):
    # every catalog h is concave: slope 1 already gives b > 0, and the
    # search in log s finds the infimum however many decades s_max spans
    h, s_max = Nonlinearity(kind), 10.0**log_s_max
    assert linear_majorant(h, nu, 1.0, s_max).b > 0
    b = linear_majorant(h, nu, a, s_max).b
    s = np.logspace(-8.0, log_s_max, 100_000)
    g = a * s - h(s) + s ** (-nu)
    assert np.all(b <= g + 1e-15 * np.abs(g))


def _dense_pencil(op):
    """The eigenvalues and eigenvectors of (K_int, W), by scipy."""
    return scipy.linalg.eigh(form_matrix(op)[:, 1:-1], np.diag(op.w))


@settings(deadline=None, max_examples=100)
@given(fields=spec_fields(0), n=st.integers(8, 65))
def test_one_lanczos_pass_finds_the_dense_bottom_or_raises(fields, n):
    # one pass of at most k = min(20, n - 2) Lanczos steps and one
    # inverse-iteration step either meets the residual bound, and then
    # lambda1 and lambda2 are the dense pencil's two smallest eigenvalues,
    # or raises.  Over 2000 random specs: lambda1 within 3.4e-13, lambda2
    # within 6.2e-10, relative
    op = assemble_composed(make_spec(**{**fields, "grid_n": n}))
    try:
        eig = principal_eigenpair(op, tol=1e-10)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
        return
    lam = _dense_pencil(op)[0]
    assert abs(eig.lambda1 - lam[0]) <= 1e-10 * lam[0]
    assert eig.iterations <= min(20, n - 2) + 1
    assert abs(eig.lambda2 - lam[1]) <= 1e-8 * lam[1]


@settings(deadline=None, max_examples=100)
@given(fields=spec_fields(0), n=st.integers(8, 65))
def test_psi1_error_is_within_its_estimate(fields, n):
    # residual / gap estimates psi1's sup-norm error; over 2000 random specs
    # 51 errors exceeded the bare estimate, none by more than 1.5e-15
    op = assemble_composed(make_spec(**{**fields, "grid_n": n}))
    eig = principal_eigenpair(op, tol=1e-10)
    vec = _dense_pencil(op)[1][:, 0]
    vec = vec / vec[np.argmax(np.abs(vec))]
    assert np.abs(eig.psi1[1:-1] - vec).max() <= eig.psi1_error_estimate + 1e-13


@settings(deadline=None, max_examples=200)
@given(
    psi=st.sampled_from([k.value for k in PsiKind]),
    psi_k=_floats(-1.0, 3.0),
    T=_floats(-0.5, 400.0),
    n=st.integers(2, 65),
)
def test_grid_is_the_value_of_t_n_and_psi(psi, psi_k, T, n):
    # x and u are derived from (T, n, psi) alone: bitwise np.linspace's nodes
    # and psi of them, read-only, and equal data give equal grids
    grid = make_spec(psi=psi, psi_k=psi_k, T=T, grid_n=n).grid
    x = np.linspace(0.0, T, n)
    with np.errstate(over="ignore", invalid="ignore"):
        u = PsiFunction.from_name(psi, psi_k)(x)
    for got, want in ((grid.x, x), (grid.u, u)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    twin = make_spec(psi=psi, psi_k=psi_k, T=T, grid_n=n, alpha=0.6, lam=3.0).grid
    assert twin == grid and hash(twin) == hash(grid)
    assert twin == Grid(T, n, PsiFunction.from_name(psi, psi_k))


alpha_one_specs = st.builds(
    lambda psi, k, T, n: make_spec(alpha=1.0, psi=psi, psi_k=k, T=T, grid_n=n),
    st.sampled_from([k.value for k in PsiKind]),
    _floats(0.1, 3.0),
    _floats(0.2, 3.0),
    st.integers(8, 65),
)


@settings(deadline=None, max_examples=100)
@given(spec=alpha_one_specs, seed=st.integers(0, 2**32 - 1))
def test_alpha_one_band_matches_dense(spec, seed):
    # the forms and solves by the band agree with the dense P1 stiffness of
    # the reference, and A's solve is K's of the right side times the masses
    op = assemble_composed(spec)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(op.n)
    f[-1] = 0.0
    k = stiffness_reference(spec)
    v = f[1:-1]
    assert np.all(np.abs(op.form(f) - k @ v) <= 1e-14 * (np.abs(k) @ np.abs(v)))
    want = scipy.linalg.solve(k, v)
    assert np.linalg.norm(op.solve_form(v) - want) <= 1e-12 * np.linalg.norm(want)
    want = scipy.linalg.solve(k / op.w[:, None], v)
    got = op.solve_interior(v)
    assert got[0] == 0.0 and got[-1] == 0.0
    assert np.linalg.norm(got[1:-1] - want) <= 1e-12 * np.linalg.norm(want)


@settings(deadline=None, max_examples=100)
@given(
    fields=spec_fields(0),
    alpha=st.one_of(st.just(1.0), _floats(0.55, 0.999999)),
    seed=st.integers(0, 2**32 - 1),
)
def test_interior_form_is_symmetric_positive_and_solved_backward_stably(fields, alpha, seed):
    # K_int = V_int V_int^T at every alpha: symmetric to rounding, positive
    # definite, and its solve backward stable in the max norm.  Over 5500
    # draws the asymmetry reached 3 eps and the backward error 26 eps, the
    # residual taken through the form's own rounding
    op = assemble_composed(make_spec(**{**fields, "alpha": alpha}))
    eps = np.finfo(float).eps
    m = op.n - 2
    rng = np.random.default_rng(seed)

    def field(v):
        return np.concatenate(([0.0], v, [0.0]))

    x, y = rng.standard_normal((2, m))
    kx, ky = op.form(field(x)), op.form(field(y))
    k = np.abs(form_matrix(op)[:, 1:-1])
    assert abs(x @ ky - y @ kx) <= 16 * eps * (np.abs(x) @ k @ np.abs(y))
    assert x @ kx > 0.0
    z = op.solve_form(kx)
    residual = np.abs(op.form(field(z)) - kx).max()
    assert residual <= 64 * eps * (k.sum(axis=1).max() * np.abs(z).max() + np.abs(kx).max())


@st.composite
def cli_argv(draw):
    sub = draw(st.sampled_from(SUBCOMMANDS))
    side = draw(st.integers(0, 1))
    fields = draw(spec_fields(side))
    argv = [sub]
    # --flag=value, because argparse reads a value such as -1e-05 as a flag
    for key, value in fields.items():
        flag = "--" + ("lambda" if key == "lam" else key.replace("_", "-"))
        argv.append(f"{flag}={value}")
    if side == 0:
        # inside the window (1/(1+nu), 1)
        lo = 1.0 / (1.0 + fields["nu"])
        r = lo + draw(_floats(0.05, 0.95)) * (1.0 - lo)
    else:
        r = draw(_floats(0.5, 1.05))
    tols = [1e-12, 1e-10, 1e-8, 1e-4] + [0.0] * side
    argv.append(f"--r={r}")
    argv.append(f"--tol={draw(st.sampled_from(tols))}")
    argv.append(f"--max-iter={draw(st.integers(1 - side, 60))}")
    if sub == "solve" and draw(st.booleans()):
        argv.append("--from-super")
    if sub == "sweep":
        # at most 5 lambdas, or bounds or a step that could never end the sweep
        lo = draw(_floats(-1.0, 120.0))
        step = draw(st.one_of(_floats(0.5, 30.0), st.just(0.0), _floats(-5.0, -0.5)))
        count = draw(st.integers(-2, 4))
        hi = lo + count * abs(step)
        lo, hi = draw(st.sampled_from([(lo, hi), (lo, math.inf), (math.nan, hi), (lo, math.nan)]))
        argv += [f"--sweep-min={lo}", f"--sweep-max={hi}"]
        argv.append(f"--sweep-step={step}")
    return argv


@settings(deadline=None, max_examples=100)
@given(argv=cli_argv())
def test_cli_exit_status_is_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        assert main([*argv, "--output-dir", str(Path(tmp) / "out")]) in (0, 1, 2)
