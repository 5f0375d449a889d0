"""Independent oracles for the test suite.

Nothing here touches the package's operator matrices: the BVP oracle uses
its own classical three-point stencil with a banded Newton solve, the
sub-solution crossing is a bracketed root of a closed-form scalar
inequality, and the closed forms are evaluated straight from special
functions.  Expected values frozen into tests were computed with these
routines.  The exceptions are frozen copies of straightforward versions
of package code that the package must reproduce exactly: `picard_reference`,
the alpha = 1 projected Picard loop that recomputes every iteration, with
the energy's cell rule written out (reports bit for bit);
`tent_reference`, the per-tent kernel loop of the verifier's test
functions (tent masses bit for bit; at alpha = 1 and identity psi its
step form against the slopes of a field is the verifier's form to
rounding); `mu2_reference`, the
lambda-scan that builds and verifies the full pair at every grid point
(the same threshold); `right_integral_reference`, the right-side
product-integration rule written out on its own (entries bit for bit);
`left_integral_reference`, the left rule with four powers per cell
(entries bit for bit; both rules divide by `math.gamma`, as the package
does); and
`stiffness_reference`, the alpha = 1 interior block K_int, the P1
stiffness, written out from its three diagonals (entries bit for bit);
`tent_form_reference`, the form K summed tent by tent and cell by cell
in one plain product, at every alpha (entries to rounding), and
`tent_energy_reference`, the energy at every alpha from the same tent
derivatives (steps at alpha = 1), added up tent by tent (to rounding);
`write_csv_reference`, the CSV writer that formats row by row, value by
value (file bytes); and `build_parser_reference`, the option parser that
adds every shared option to each subparser (help text, parses and errors).
`form_matrix` is no oracle: it is the package's own form as a dense matrix,
against which the package's solves are checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from psifrac.analysis import build_pair, verify_weak_inequality
from psifrac.cli import SUBCOMMANDS
from psifrac.config import CONFIG_DEFAULTS
from psifrac.solver import SolveReport


def frac_integral_of_one(u: np.ndarray, order: float) -> np.ndarray:
    """Closed form: the order-a left integral of f=1 is (u - u0)^a / Gamma(a+1)."""
    return (u - u[0]) ** order / math.gamma(order + 1.0)


def left_integral_reference(u: np.ndarray, order: float) -> np.ndarray:
    """Left rule with each cell's two end distances raised to both powers."""
    n = len(u)
    a = order
    W = np.zeros((n, n))
    for i in range(1, n):
        uj = u[:i]
        uj1 = u[1 : i + 1]
        big = u[i] - uj
        small = u[i] - uj1
        du = uj1 - uj
        m0 = (big**a - small**a) / a
        m1 = u[i] * m0 - (big ** (a + 1) - small ** (a + 1)) / (a + 1)
        wl = (uj1 * m0 - m1) / du
        wr = (m1 - uj * m0) / du
        W[i, :i] += wl
        W[i, 1 : i + 1] += wr
    return W / math.gamma(a)


def right_integral_reference(u: np.ndarray, order: float) -> np.ndarray:
    """Mirror of the left rule: int_{x_i}^{T} (u - u_i)^(a-1) f du."""
    n = len(u)
    a = order
    W = np.zeros((n, n))
    for i in range(n - 1):
        uj = u[i:-1]
        uj1 = u[i + 1 :]
        big = uj1 - u[i]
        small = uj - u[i]
        du = uj1 - uj
        m0 = (big**a - small**a) / a
        m1 = u[i] * m0 + (big ** (a + 1) - small ** (a + 1)) / (a + 1)
        wl = (uj1 * m0 - m1) / du
        wr = (m1 - uj * m0) / du
        W[i, i:-1] += wl
        W[i, i + 1 :] += wr
    return W / math.gamma(a)


def stiffness_reference(spec):
    """The interior block K_int of the alpha = 1 form, the P1 stiffness, as a dense matrix.

    Row i - 1 (node i) holds -1/du_{i-1}, 1/du_{i-1} + 1/du_i and -1/du_i
    in the columns of the interior nodes i - 1, i and i + 1.
    """
    inv = 1.0 / np.diff(spec.grid.u)
    m = len(inv) - 1
    k = np.zeros((m, m))
    i = np.arange(m)
    k[i, i] = inv[:-1] + inv[1:]
    k[i[1:], i[:-1]] = -inv[1:-1]
    k[i[:-1], i[1:]] = -inv[1:-1]
    return k


def form_matrix(op):
    """K's interior rows against every node, as the operator computes them: n - 2 rows, n columns.

    Column j is `op.form` of the unit field at node j; K_int is
    form_matrix(op)[:, 1:-1].
    """
    return op.form(np.eye(op.n)).T


def classical_e(x: np.ndarray, T: float) -> np.ndarray:
    """Solution of -e'' = 1 with Dirichlet data: x(T-x)/2."""
    return x * (T - x) / 2.0


def newton_fd_bvp(
    lam: float,
    h_fn,
    nu: float,
    T: float = 1.0,
    n: int = 8193,
    u0_scale: float = 30.0,
    tol: float = 1e-12,
    max_iter: int = 100,
):
    """Classical nonlinear two-point BVP solve of -u'' = lam*(h(u) - u^-nu).

    Damped-free Newton on the standard three-point stencil at a fine mesh;
    returns (x, u).  Completely independent of the package discretization
    (different stencil, different linearization, different solver).
    """
    x = np.linspace(0.0, T, n)
    h = x[1] - x[0]
    u = np.maximum(u0_scale * np.sin(np.pi * x / T), 1e-8)
    u[0] = u[-1] = 0.0
    for _ in range(max_iter):
        ui = np.maximum(u[1:-1], 1e-14)
        f = lam * (h_fn(ui) - ui ** (-nu))
        d = 1e-7 * (1.0 + ui)
        fp = lam * ((h_fn(ui + d) - h_fn(ui)) / d + nu * ui ** (-nu - 1.0))
        res = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 - f
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = -1.0 / h**2
        ab[1, :] = 2.0 / h**2 - fp
        ab[2, :-1] = -1.0 / h**2
        step = solve_banded((1, 1), ab, -res)
        u[1:-1] = np.maximum(u[1:-1] + step, 1e-14)
        if np.abs(step).max() < tol * (1.0 + np.abs(u).max()):
            break
    return x, u


def sub_crossing_lambda(r: float, nu: float) -> float:
    """Smallest lambda at which phi = lam^r * sin(pi x)^(2/(1+nu)) is a strong
    subsolution of -u'' = lam*(sqrt(u) - u^-nu) on (0, 1), for the catalog
    case r = 0.8, nu = 1/2.

    With q = 2/(1+nu) and s = sin(pi x), multiplying the sub-inequality by
    s^(2-q) turns it into
        q*pi^2*lam^r*((q-1)*(s^2-1) + s^2) <= lam^(1+r/2)*s^(2-q/2) - lam^(1-r*nu),
    which at the midpoint s = 1 reads q*pi^2*lam^r <= lam^(1+r/2) - lam^(1-r*nu).
    Divided by lam^r its slack lam^(1-r/2) - lam^(1-r-r*nu) - q*pi^2 is
    negative at lam = 1, positive at lam = 1e3 and increasing between, so
    the root is unique.  The midpoint clause is necessary; it is also
    sufficient, since the right side minus the left rises then falls in s
    and is positive as s -> 0, so its minimum over (0, 1] is at s = 1 and
    the returned 77.2847 is the exact threshold.
    """
    q = 2.0 / (1.0 + nu)

    def slack(lam: float) -> float:
        return lam ** (1.0 - r / 2.0) - lam ** (1.0 - r - r * nu) - q * math.pi**2

    return brentq(slack, 1.0, 1e3, xtol=1e-12, rtol=1e-14)


def powers_sup_norm_error(got: np.ndarray, want: np.ndarray, collar: int) -> float:
    """Sup error over interior nodes with the first `collar` nodes excluded."""
    return float(np.abs(got - want)[collar:-1].max())


def _picard_reaction(u_int, phi_int, spec):
    floored = np.maximum(u_int, phi_int)
    return spec.lam * (spec.h(u_int) - floored ** (-spec.nu))


def _picard_energy(u, spec):
    # the cell rule: sum over cells of dx_m ((u_{m+1} - u_m) / du_m)^2
    x, t = spec.grid.x, spec.grid.u
    d = (u[1:] - u[:-1]) / (t[1:] - t[:-1])
    return float((x[1:] - x[:-1]) @ (d * d))


def _picard_residual(u, energy_u, pair, spec, op):
    # A u = (K u) / w
    lhs = spec.m(energy_u) * (op.form(u) / op.w)
    rhs = _picard_reaction(u[1:-1], pair.phi[1:-1], spec)
    return float(np.abs(lhs - rhs).max())


def picard_reference(pair, spec, op, tol=1e-10, max_iter=400, from_super=False, verified=False):
    """Projected Picard iteration that solves every one of its iterations.

    For alpha = 1.  Each iteration freezes M at the iterate's energy, the
    midpoint rule in x of the difference quotients of u, solves on the
    interior, counts and clips to [phi, xi], averages with the old iterate
    once damping is on, and stops when both the step and the residual are
    small, or at the first iterate that repeats bitwise: with no bound
    active that is a fixed point, converged whatever its residual, and
    with one it is pinned, since every later iteration would repeat it.
    `psifrac.solver.solve_between` must return the same report, bit for bit.
    """
    if not pair.ordered():
        raise ValueError("pair is not ordered: phi must not exceed xi anywhere")
    n = spec.grid.n
    span = float(np.abs(pair.xi - pair.phi).max())
    if span == 0.0 and float(np.abs(pair.xi).max()) == 0.0:
        return SolveReport(
            converged=False,
            iterations=0,
            residual_history=(),
            u=np.zeros(n),
            sandwich_ok=True,
            energy_final=0.0,
            kirchhoff_coeff_final=float(spec.m(0.0)),
            positive=False,
            projection_activity=(),
            damped_steps=0,
            override=not verified,
            from_super=from_super,
            stop="degenerate",
        )
    u = (pair.xi if from_super else pair.phi).copy()
    energy_u = _picard_energy(u, spec)
    eps = 1e-12 * (1.0 + float(np.abs(pair.xi).max()))
    residuals = []
    activity = []
    damped = 0
    damping_on = False
    converged = False
    stop = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        rhs = _picard_reaction(u[1:-1], pair.phi[1:-1], spec) / spec.m(energy_u)
        v = op.solve_interior(rhs)
        outside = int(np.count_nonzero((v < pair.phi - eps) | (v > pair.xi + eps)))
        activity.append(outside)
        v = np.clip(v, pair.phi, pair.xi)
        if damping_on:
            v = 0.5 * (v + u)
            damped += 1
        step = float(np.abs(v - u).max())
        u = v
        energy_u = _picard_energy(u, spec)
        residuals.append(_picard_residual(u, energy_u, pair, spec, op))
        if step <= tol * (1.0 + float(np.abs(u).max())) and residuals[-1] <= 100.0 * tol:
            converged, stop = True, "residual"
            break
        if step == 0.0:
            converged = outside == 0
            stop = "fixed point" if converged else "pinned"
            break
        if not damping_on and it % 50 == 0 and it >= 50:
            if residuals[-1] >= residuals[-50]:
                damping_on = True
    sandwich_ok = bool(np.all(u >= pair.phi - eps) and np.all(u <= pair.xi + eps))
    return SolveReport(
        converged=converged,
        iterations=it,
        residual_history=tuple(residuals),
        u=u,
        sandwich_ok=sandwich_ok,
        energy_final=energy_u,
        kirchhoff_coeff_final=float(spec.m(energy_u)),
        positive=bool(np.all(u[1:-1] > 0.0)),
        projection_activity=tuple(activity),
        damped_steps=damped,
        override=not verified,
        from_super=from_super,
        stop=stop,
    )


def tent_reference(spec):
    """Cell-end weights of the interior tents' left derivatives, one tent at a time.

    Returns (wl, wr, node_weights): each tent's three shifted kernels are
    evaluated at every left and right cell end separately.  At alpha = 1
    wl and wr are steps, banded, and at identity psi wl @ d + wr @ d with d
    the slopes of f is the operator's form K f;
    `node_weights` are its masses at every alpha.
    """
    u = spec.grid.u
    x = spec.grid.x
    n = spec.grid.n
    alpha = spec.order.alpha
    ex = 1.0 - alpha
    du = np.diff(u)
    ncell = n - 1
    lv = np.zeros((n - 2, ncell))
    rv = np.zeros((n - 2, ncell))
    coef_scale = 1.0 / gamma_fn(2.0 - alpha)
    ul = u[:-1]
    ur = u[1:]
    for i in range(1, n - 1):
        coefs = (
            1.0 / du[i - 1],
            -(1.0 / du[i - 1] + 1.0 / du[i]),
            1.0 / du[i],
        )
        bases = (u[i - 1], u[i], u[i + 1])
        row_l = np.zeros(ncell)
        row_r = np.zeros(ncell)
        for c, b in zip(coefs, bases):
            dl = ul - b
            # left cell end is a right-limit: include the kink itself
            # (0^0 == 1 realizes the step convention at alpha = 1)
            row_l += np.where(dl >= 0.0, c * np.power(np.maximum(dl, 0.0), ex), 0.0)
            dr = ur - b
            row_r += np.where(dr > 0.0, c * np.power(np.maximum(dr, 0.0), ex), 0.0)
        lv[i - 1] = row_l * coef_scale
        rv[i - 1] = row_r * coef_scale
    half_dx = 0.5 * np.diff(x)
    tw = np.empty(n)
    tw[1:-1] = 0.5 * (x[2:] - x[:-2])
    tw[0] = 0.5 * (x[1] - x[0])
    tw[-1] = 0.5 * (x[-1] - x[-2])
    return lv * half_dx, rv * half_dx, tw


def _tent_derivatives(spec):
    """Row i: the closed-form left derivative of the tent at node i at the cell midpoints.

    One shifted kernel at a time; row 0 is zero and row n-1 holds the half
    tent at T.
    """
    u = spec.grid.u
    n = spec.grid.n
    alpha = spec.order.alpha
    du = np.diff(u)
    mid = 0.5 * (u[:-1] + u[1:])

    def ramp(base):
        # the left derivative of (u - base)_+ at the midpoints
        d = mid - base
        return np.where(d > 0.0, np.abs(d) ** (1.0 - alpha), 0.0) / gamma_fn(2.0 - alpha)

    t = np.zeros((n, n - 1))
    for i in range(1, n - 1):
        left, right = 1.0 / du[i - 1], 1.0 / du[i]
        t[i] = left * ramp(u[i - 1]) - (left + right) * ramp(u[i]) + right * ramp(u[i + 1])
    t[n - 1] = ramp(u[n - 2]) / du[n - 2]
    return t


def tent_form_reference(spec):
    """K's interior rows against every node, from every tent derivative at every cell midpoint.

    Row i of T holds the closed-form left derivative of the tent at node i
    (the half tent at T for i = n-1; row 0 is zero) at the cell midpoints,
    one shifted kernel at a time (steps at alpha = 1), and K = T diag(du) T^T
    as one plain product.  Returns K[1:-1], n - 2 rows of n columns: row
    i - 1 is the form of every unit field against the tent at node i, and
    column 0 is zero.
    """
    t = _tent_derivatives(spec)
    return (t[1:-1] * np.diff(spec.grid.u)) @ t.T


def tent_energy_reference(spec, f):
    """The energy sum_m dx_m (D_left f)(um)^2 at every alpha, f taken tent by tent.

    D_left f at the cell midpoints adds f_i times the tent derivatives of
    `tent_form_reference` over the nodes 1 .. n-1, one tent at a time; at
    alpha = 1 those are steps, and D_left f the difference quotients of f.
    """
    t = _tent_derivatives(spec)
    d = np.zeros(spec.grid.n - 1)
    for i in range(1, spec.grid.n):
        d += f[i] * t[i]
    return float(np.sum(np.diff(spec.grid.x) * d * d))


def mu2_reference(spec, op, eig, e, r, lam_max=150.0, step=0.25):
    """Smallest grid lambda >= 1 at which the full pair verifies on both sides.

    Builds the pair and verifies phi and xi from scratch at every grid
    point; `psifrac.analysis.empirical_mu2` must return the same value and
    raise the same errors, whatever work it saves.
    """
    lam = 1.0
    while lam <= lam_max + 1e-12:
        trial = dataclasses.replace(spec, lam=lam)
        trial_op = dataclasses.replace(op, spec=trial)
        pair = build_pair(trial, eig, e, r)
        sub = verify_weak_inequality(pair.phi, trial_op, "sub")
        sup = verify_weak_inequality(pair.xi, trial_op, "super")
        if sub.passed and sup.passed:
            return lam
        lam += step
    return None


def _csv_value_reference(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv_reference(path, header, rows) -> None:
    """The CSV writer that formats each row, value by value.

    Every `psifrac.cli.write_csv` file must have the same bytes as this
    writer's file of the same rows.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_value_reference(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def build_parser_reference() -> argparse.ArgumentParser:
    """The option parser that adds every shared option to each subparser itself.

    `psifrac.cli.build_parser` must give the same help text, the same
    parses and the same errors.
    """
    p = argparse.ArgumentParser(
        prog="psifrac",
        description="Fractional Kirchhoff sub/supersolution toolbox",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        sp.add_argument("--config", type=Path, default=None, help="key = value config file")
        sp.add_argument("--output-dir", type=Path, required=True)
        for key, (typ, _) in CONFIG_DEFAULTS.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=f"cfg_{key}", type=typ, default=None)
        if name == "solve":
            sp.add_argument("--from-super", action="store_true")
        if name == "sweep":
            sp.add_argument("--sweep-min", type=float, default=0.5)
            sp.add_argument("--sweep-max", type=float, default=60.0)
            sp.add_argument("--sweep-step", type=float, default=0.5)
    return p
