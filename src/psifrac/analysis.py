"""Constructive objects of the existence argument.

This module builds, from computed spectral data, the explicit
sub/supersolution pair: the linear majorant a*s - b of h(s) - s^(-nu), the
threshold zeta(lambda) balancing the Kirchhoff lower bound against h, the
eigenfunction power phi = lambda^r * psi1^(2/(1+nu)), the lifted field
Xi = zeta * e, and the discrete weak-inequality verifier that certifies
the pair against every interior tent test function.

The verifier evaluates the bilinear form of a candidate field against
every interior tent test function (piecewise linear in the transformed
variable u), and the reaction side against the same tents by their
masses.  Both are the operator's pair (K, W): K u is `ComposedOperator.form`,
the cell-midpoint rule of the tent derivatives' products (see
`operators`; at alpha = 1, where the tent derivatives are steps, the P1
stiffness), and W its `w`.  The energy is the same cell-midpoint rule of
D_left u, so the solve, the energy and the verifier share one
discretization, and the form of e is the tent mass: the supersolution
chain holds discretely.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Field, Nonlinearity, ProblemSpec
from .operators import ComposedOperator, EigenPair, energy, tent_masses

__all__ = [
    "Majorant",
    "SubSuperPair",
    "VerifyReport",
    "TentBasis",
    "linear_majorant",
    "zeta_lambda",
    "build_subsolution",
    "build_supersolution",
    "build_pair",
    "verify_weak_inequality",
    "nonexistence_threshold",
    "empirical_mu2",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 120
# the floor of the majorant's search range [_S_MIN, s_max]
_S_MIN = 1e-8
# zeta_lambda's bisection stops at this width relative to its upper end
_ZETA_REL_TOL = 1e-6


@dataclass(frozen=True)
class Majorant:
    """Linear bound h(s) - s^(-nu) <= a*s - b on [_S_MIN, s_max], b > 0."""

    a: float
    b: float
    s_star: float


def _golden_min(g, lo: float, hi: float) -> float:
    """Golden-section minimizer of a unimodal g on [lo, hi] (Kiefer 1953)."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(_GOLDEN_ITERS):
        if g1 <= g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        if hi - lo <= 1e-14 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def linear_majorant(h: Nonlinearity, nu: float, a: float, s_max: float) -> Majorant:
    """Compute b = min over [_S_MIN, s_max] of g(s) = a*s - h(s) + s^(-nu).

    Every catalog h is concave, so g is convex and g(e^t) unimodal: one
    golden-section search in t = log s pins the minimizer, where a search
    in s itself stops far from it once s_max spans many decades.  Raises
    if h is not sublinear at s_max or if b <= 0 (slope a too small).
    """
    if a <= 0:
        raise ValueError(f"majorant slope must be positive, got {a}")
    if not 0 < nu < 1:
        raise ValueError(f"nu must lie in (0,1), got {nu}")
    if not _S_MIN < s_max < math.inf:
        raise ValueError(f"s_max must be finite and exceed {_S_MIN:g}, got {s_max}")
    if h(s_max) / s_max >= a:
        raise ValueError(f"h not sublinear at s_max: h({s_max:g})/{s_max:g} >= {a:g}")

    def g(s):
        return a * s - h(s) + s ** (-nu)

    s_star = math.exp(_golden_min(lambda t: g(math.exp(t)), math.log(_S_MIN), math.log(s_max)))
    b = g(s_star)
    if b <= 0:
        raise ValueError(
            f"majorant slope too small: infimum of a*s - h(s) + s^-nu is {b:.6g} <= 0; raise a"
        )
    return Majorant(a=a, b=b, s_star=s_star)


def zeta_lambda(h: Nonlinearity, lam: float, zeta0: float, e_sup: float) -> float:
    """Smallest zeta with zeta0*zeta >= lam*h(zeta*e_sup), by doubling + bisection.

    Existence for the catalog members follows from h(s)/s -> 0.  The search
    floor 1e-12 is returned directly when the inequality already holds
    there (h == 0, say).  Past a finite zeta*e_sup the doubling raises:
    the threshold lies beyond the float range (for sqrt h it is
    lam^2 * e_sup / zeta0^2), or h fails to be sublinear on it.
    """
    if lam <= 0 or zeta0 <= 0 or e_sup <= 0:
        raise ValueError("lambda, zeta0 and e_sup must all be positive")

    def ok(z):
        return zeta0 * z >= lam * h(z * e_sup)

    z = 1e-12
    if ok(z):
        return z
    while not ok(z):
        z *= 2.0
        if not math.isfinite(z * e_sup):
            raise RuntimeError(
                "no zeta with a finite zeta*e_sup satisfies zeta0*zeta >= lambda*h(zeta*e_sup) "
                f"(lambda={lam:g}, zeta0={zeta0:g}, e_sup={e_sup:g}): either the threshold "
                "lies beyond the float range or h fails to be sublinear on it"
            )
    lo, hi = z / 2.0, z
    while hi - lo > _ZETA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_subsolution(lam: float, r: float, nu: float, eig: EigenPair) -> Field:
    """phi = lambda^r * psi1^(2/(1+nu)), with r in the window (1/(1+nu), 1).

    Refused unless psi1 is positive on the interior.
    """
    lo = 1.0 / (1.0 + nu)
    if not lo < r < 1.0:
        raise ValueError(f"exponent r must lie in ({lo:.6g}, 1), got {r}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not eig.positive_interior:
        # a computed-outcome failure, like a non-positive e
        raise RuntimeError(
            "psi1 is not positive on the interior; cannot raise it into a subsolution"
        )
    return lam**r * eig.psi1 ** (2.0 / (1.0 + nu))


def build_supersolution(zeta: float, e: Field) -> Field:
    """Xi = zeta * e pointwise."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    return zeta * np.asarray(e, dtype=float)


@dataclass(frozen=True)
class SubSuperPair:
    """Ordered candidate pair (phi below, xi above) with its data."""

    phi: Field
    xi: Field
    zeta: float

    def ordered(self) -> bool:
        return bool(np.all(self.phi <= self.xi + 1e-14))


def _positive_e(e: Field) -> np.ndarray:
    """e as a float array, refused unless it is positive on the interior."""
    e = np.asarray(e, dtype=float)
    if np.any(e[1:-1] <= 0):
        # a computed-outcome failure, not caller misuse
        raise RuntimeError(
            "e is not positive on the interior; cannot scale it into a supersolution"
        )
    return e


def build_pair(
    spec: ProblemSpec, eig: EigenPair, e: Field, r: float
) -> SubSuperPair:
    """Assemble the pair, raising zeta until xi dominates phi pointwise.

    zeta starts at the threshold of `zeta_lambda` and is raised to the
    largest interior ratio phi_i / e_i when that is bigger, which is the
    smallest scaling that makes zeta*e >= phi hold exactly.
    """
    e = _positive_e(e)
    phi = build_subsolution(spec.lam, r, spec.nu, eig)
    z = zeta_lambda(spec.h, spec.lam, spec.m.zeta0, float(e.max()))
    ratio = float(np.max(phi[1:-1] / e[1:-1]))
    z = max(z, ratio)
    xi = build_supersolution(z, e)
    pair = SubSuperPair(phi=phi, xi=xi, zeta=z)
    if not pair.ordered():
        raise AssertionError("pair ordering failed after raising zeta; should be impossible")
    return pair


class TentBasis:
    """The masses of the tents at every node, which integrate in du = psi' dx.

    The verifier reads the interior masses and the tent form from the
    operator (`ComposedOperator.w` and `form`); the package builds no
    TentBasis.
    """

    def __init__(self, spec: ProblemSpec):
        self.node_weights = tent_masses(spec.grid.u)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the weak sub/super inequality check for one field."""

    side: str
    passed: bool
    margins: Field
    worst_margin: float
    worst_node: int
    tol_margin: float

    @property
    def verdict(self) -> str:
        return f"{self.side}-pass" if self.passed else f"{self.side}-fail"


def _checked_interior(u: np.ndarray, n: int, side: str) -> np.ndarray:
    """The interior of a field to verify, or of each row of a block, after the checks each passes."""
    if u.ndim > 2 or u.shape[-1:] != (n,):
        raise ValueError(f"field length {u.shape} does not match grid size {n}")
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    scale = 1.0 + np.abs(u).max(axis=-1)
    if np.any(np.maximum(abs(u[..., 0]), abs(u[..., -1])) > 1e-12 * scale):
        raise ValueError("field must vanish at both boundary nodes")
    ui = u[..., 1:-1]
    if np.any(ui <= 0.0):
        raise ValueError(
            "singular-term failure: field must be strictly positive on the interior"
        )
    return ui


def _margins(side, left, ui, lam, spec, w) -> tuple[np.ndarray, np.ndarray]:
    """Margins and tolerance of a field, or of each row of a block with a column `lam`."""
    right = lam * (spec.h(ui) - ui ** (-spec.nu)) * w
    margins = (right - left) if side == "sub" else (left - right)
    return margins, 1e-8 * (1.0 + np.abs(right).max(axis=-1))


def _verdict(
    side: str, left: np.ndarray, ui: np.ndarray, spec: ProblemSpec, w: np.ndarray
) -> VerifyReport:
    """Margins, tolerance and verdict of a field from its left side, interior and tent masses w."""
    margins, tol_margin = _margins(side, left, ui, spec.lam, spec, w)
    worst = int(np.argmin(margins))
    return VerifyReport(
        side=side,
        passed=bool(margins[worst] >= -tol_margin),
        margins=margins,
        worst_margin=float(margins[worst]),
        worst_node=worst + 1,
        tol_margin=float(tol_margin),
    )


def verify_weak_inequality(u: Field, op: ComposedOperator, side: str) -> VerifyReport:
    """Check the weak inequality of the given side against all interior tents.

    For each interior test function w_i computes
    L_i = M(energy(u)) * int (D_left u)(D_left w_i), the row i of K u
    (`op.form`), and R_i = lambda * int (h(u) - u^-nu) w_i by the tent
    masses `op.w`, both in the transformed variable psi(x) (energy(u)
    integrates in x); the margin is R_i - L_i for side="sub" (must be
    >= -tol_margin) and L_i - R_i for side="super".
    tol_margin = 1e-8 * (1 + sup|R|).
    """
    spec = op.spec
    u = np.asarray(u, dtype=float)
    ui = _checked_interior(u, spec.grid.n, side)
    left = spec.m(energy(u, op)) * op.form(u)
    return _verdict(side, left, ui, spec, op.w)


def nonexistence_threshold(lambda1: float, zeta_inf: float, a: float) -> float:
    """mu1 = lambda1 / (zeta_inf * a): no positive solution below this lambda."""
    if lambda1 <= 0 or zeta_inf <= 0 or a <= 0:
        raise ValueError("lambda1, zeta_inf and a must all be positive")
    return lambda1 / (zeta_inf * a)


# lambdas per sub-side block: past the answer at most 31 rows are wasted
_LAMBDA_BLOCK = 32
# empirical_mu2's grid: lambda = 1, 1 + step, ... up to the cap
_MU2_LAM_MAX = 150.0
_MU2_STEP = 0.25


def _sub_passes(spec, p, energy_p, form_p, w, lams) -> list[bool]:
    """Whether phi = s p passes the sub side at each (lambda, s = lambda^r) of `lams`.

    The rows of the block are the fields s p, checked and measured by
    `_checked_interior` and `_margins`.
    """
    lam = np.array([lam for lam, _ in lams])[:, None]
    s = np.array([s for _, s in lams])[:, None]
    # D_left(s * p) = s * D_left p, so its energy is s^2 E(p), its form s B(p)
    left = spec.m(np.array([s_ * s_ * energy_p for _, s_ in lams]))[:, None] * (s * form_p)
    ui = _checked_interior(s * p, spec.grid.n, "sub")
    margins, tol_margin = _margins("sub", left, ui, lam, spec, w)
    return (margins.min(axis=1) >= -tol_margin).tolist()


def empirical_mu2(
    spec: ProblemSpec, op: ComposedOperator, eig: EigenPair, e: Field, r: float
) -> float | None:
    """Smallest lambda >= 1 (grid search) at which both verifications pass.

    Returns None when no lambda up to _MU2_LAM_MAX passes.  The existence proof
    guarantees such a threshold exists but gives no formula, so it is
    located empirically.

    Both fields rescale fixed ones: phi = lambda^r * p with p the
    subsolution at lambda = 1, and xi = zeta * e.  Their energies and tent
    forms are computed once and scaled at each lambda; the reaction side
    is evaluated on the fields themselves, after the checks
    `verify_weak_inequality` makes.  The sub side is checked first, for
    blocks of grid lambdas at once, and the pair (with its zeta) is built
    and xi checked only where it passes, lambda by lambda in grid order.
    A block in which some check refuses or some float operation fails is
    evaluated one lambda at a time, so that the failure shows at the
    lambda where a scan by single lambdas meets it.
    """
    n = spec.grid.n
    # build_pair's refusals, in its order; p is phi at lambda = 1
    e = _positive_e(e)
    p = build_subsolution(1.0, r, spec.nu, eig)
    energy_p, form_p = energy(p, op), op.form(p)
    energy_e, form_e = energy(e, op), op.form(e)
    # the grid by repeated addition, each lambda with its scalar lambda^r
    grid = []
    lam = 1.0
    while lam <= _MU2_LAM_MAX + 1e-12:
        grid.append((lam, lam**r))
        lam += _MU2_STEP
    sub_passes = functools.partial(_sub_passes, spec, p, energy_p, form_p, op.w)
    for lo in range(0, len(grid), _LAMBDA_BLOCK):
        block = grid[lo : lo + _LAMBDA_BLOCK]
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                passed = sub_passes(block)
        except (FloatingPointError, ValueError):
            passed = None
        for i, (lam, _) in enumerate(block):
            ok = passed[i] if passed is not None else sub_passes(block[i : i + 1])[0]
            if ok:
                trial = dataclasses.replace(spec, lam=lam)
                pair = build_pair(trial, eig, e, r)
                z = pair.zeta
                left = spec.m(z * z * energy_e) * (z * form_e)
                xi_int = _checked_interior(pair.xi, n, "super")
                if _verdict("super", left, xi_int, trial, op.w).passed:
                    return lam
    return None
