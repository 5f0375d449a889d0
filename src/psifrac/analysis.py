"""Constructive objects of the existence argument.

This module builds, from computed spectral data, the explicit
sub/supersolution pair: the linear majorant a*s - b of h(s) - s^(-nu), the
threshold zeta(lambda) balancing the Kirchhoff lower bound against h, the
eigenfunction power phi = lambda^r * psi1^(2/(1+nu)), the lifted field
Xi = zeta * e, and the discrete weak-inequality verifier that certifies
the pair against every interior tent test function.

The verifier integrates the bilinear form cell by cell: the derivative of
a tent test function (piecewise linear in the transformed variable u) is
known in closed form, so the quadrature pairs the matrix derivative of the
candidate field with exact one-sided cell-end values of the test
derivative.  Smearing a tent's kink through a difference stencil would
pollute the hats adjacent to the boundary with O(1) artifacts; the
closed-form route reproduces the supersolution chain discretely.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .core import Field, Nonlinearity, ProblemSpec
from .operators import ComposedOperator, EigenPair, energy_of_derivative

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


@dataclass(frozen=True)
class Majorant:
    """Linear bound h(s) - s^(-nu) <= a*s - b on the scan range, b > 0."""

    a: float
    b: float
    s_star: float


def _golden_min(g, lo: float, hi: float, iters: int = 120) -> float:
    """Golden-section minimizer of g on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(iters):
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


def linear_majorant(
    h: Nonlinearity, nu: float, a: float, s_max: float, s_min: float = 1e-8, n_scan: int = 20000
) -> Majorant:
    """Compute b = inf over (0, s_max] of g(s) = a*s - h(s) + s^(-nu).

    Log-spaced scan (>= 10^4 points) locates the best cell; golden-section
    refinement pins the minimizer.  Raises if h is not sublinear at s_max
    or if the infimum is nonpositive (slope a too small).
    """
    if a <= 0:
        raise ValueError(f"majorant slope must be positive, got {a}")
    if not 0 < nu < 1:
        raise ValueError(f"nu must lie in (0,1), got {nu}")
    if h(s_max) / s_max >= a:
        raise ValueError(f"h not sublinear at s_max: h({s_max:g})/{s_max:g} >= {a:g}")

    def g(s):
        return a * s - h(s) + s ** (-nu)

    s = np.logspace(math.log10(s_min), math.log10(s_max), n_scan)
    vals = g(s)
    k = int(np.argmin(vals))
    lo = s[max(k - 1, 0)]
    hi = s[min(k + 1, n_scan - 1)]
    s_star = _golden_min(g, lo, hi)
    b = float(g(s_star))
    # endpoint of the scan may beat the refined interior point
    if vals[-1] < b:
        s_star, b = float(s[-1]), float(vals[-1])
    if b <= 0:
        raise ValueError(
            f"majorant slope too small: infimum of a*s - h(s) + s^-nu is {b:.6g} <= 0; raise a"
        )
    return Majorant(a=a, b=b, s_star=float(s_star))


def zeta_lambda(
    h: Nonlinearity, lam: float, zeta0: float, e_sup: float, rel_tol: float = 1e-6
) -> float:
    """Smallest zeta with zeta0*zeta >= lam*h(zeta*e_sup), by doubling + bisection.

    Existence for the catalog members follows from h(s)/s -> 0.  The search
    floor 1e-12 is returned directly when the inequality already holds
    there (h == 0, say).  The doubling goes on while zeta*e_sup stays a
    finite float, so only an h that is not sublinear on the float range
    raises.
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
                "h not sublinear numerically: no zeta with a finite zeta*e_sup satisfies the bound"
            )
    lo, hi = z / 2.0, z
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_subsolution(lam: float, r: float, nu: float, eig: EigenPair) -> Field:
    """phi = lambda^r * psi1^(2/(1+nu)), with r in the window (1/(1+nu), 1).

    Refused unless psi1 is positive on the interior, which the alpha < 1
    discretization does not deliver.
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
    r: float
    zeta: float

    def ordered(self) -> bool:
        return bool(np.all(self.phi <= self.xi + 1e-14))


def _positive_e(e: Field) -> np.ndarray:
    """e as a float array, refused unless it is positive on the interior."""
    e = np.asarray(e, dtype=float)
    if np.any(e[1:-1] <= 0):
        # a computed-outcome failure (coarse fractional discretization),
        # not caller misuse
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
    pair = SubSuperPair(phi=phi, xi=xi, r=r, zeta=z)
    if not pair.ordered():
        raise AssertionError("pair ordering failed after raising zeta; should be impossible")
    return pair


class TentBasis:
    """Interior tent test functions and their closed-form left derivatives.

    The tent at node i is piecewise linear in u with value 1 at u_i and 0
    at its neighbors.  Its left Hilfer-type derivative is a combination of
    three shifted kernels (u - u_k)_+^(1-alpha) / Gamma(2-alpha), which is
    independent of the type parameter beta.  Below alpha = 1 all tents
    share one kernel table, and each tent's cell-end weights are three
    row-scaled slices of it.  At alpha = 1 the kernels degenerate to steps
    and the tent derivatives to its two piecewise-constant slopes: each
    tent keeps two weights, on its left and its right cell, the same at
    the left and the right cell ends, and the form is an O(n) sum.

    Both the bilinear form and the tent masses are trapezoid sums in
    du = psi' dx, the measure in which the right derivative is the adjoint
    of the left one, so the form of e reproduces the tent masses (A e = 1).
    """

    def __init__(self, spec: ProblemSpec):
        u = spec.grid.u
        n = spec.grid.n
        alpha = spec.order.alpha
        ex = 1.0 - alpha
        du = np.diff(u)
        # tent i combines the kernels based at u_{i-1}, u_i, u_{i+1}
        c0 = 1.0 / du[:-1]
        c1 = -(1.0 / du[:-1] + 1.0 / du[1:])
        c2 = 1.0 / du[1:]
        coef_scale = 1.0 / gamma_fn(2.0 - alpha)
        half_du = 0.5 * du
        # trapezoid weights (in u) of the nodal tent values, for the reaction side
        tw = np.empty(n)
        tw[1:-1] = 0.5 * (u[2:] - u[:-2])
        tw[0] = 0.5 * (u[1] - u[0])
        tw[-1] = 0.5 * (u[-1] - u[-2])
        self.node_weights = tw
        if ex == 0.0:
            # the steps' sums over the tent's left cell and its right cell;
            # beyond them c0 + c1 + c2 vanishes
            self._steps = (c0 * coef_scale * half_du[:-1], (c0 + c1) * coef_scale * half_du[1:])
            return
        self._steps = None
        # kernel table t[k, j] = (u_j - u_k)_+^(1-alpha), built in place; it
        # vanishes at the kink, so both cell ends read the same table
        t = u[None, :] - u[:, None]
        np.maximum(t, 0.0, out=t)
        np.power(t, ex, out=t, where=t > 0.0)

        def weights(cols: slice) -> np.ndarray:
            w = c0[:, None] * t[:-2, cols]
            w += c1[:, None] * t[1:-1, cols]
            w += c2[:, None] * t[2:, cols]
            w *= coef_scale
            w *= half_du
            return w

        # left cell ends u_j, j < n-1, and right cell ends u_{j+1}
        self._wl = weights(slice(None, -1))
        self._wr = weights(slice(1, None))

    def bilinear(self, d_u: np.ndarray) -> np.ndarray:
        """Cell-trapezoid of (d_u)*(tent derivative) against every tent.

        d_u holds the nodal values of the candidate field's left derivative.
        Returns one value per interior node.
        """
        if self._steps is None:
            return self._wl @ d_u[:-1] + self._wr @ d_u[1:]
        left, right = self._steps
        # left cell ends, then right cell ends, of the tent's two cells
        return (left * d_u[:-2] + right * d_u[1:-1]) + (left * d_u[1:-1] + right * d_u[2:])


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
    """The interior of a field to verify, after the checks every such field passes."""
    if u.shape != (n,):
        raise ValueError(f"field length {u.shape} does not match grid size {n}")
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    scale = 1.0 + float(np.abs(u).max())
    if abs(u[0]) > 1e-12 * scale or abs(u[-1]) > 1e-12 * scale:
        raise ValueError("field must vanish at both boundary nodes")
    ui = u[1:-1]
    if np.any(ui <= 0.0):
        raise ValueError(
            "singular-term failure: field must be strictly positive on the interior"
        )
    return ui


def _verdict(
    side: str, left: np.ndarray, ui: np.ndarray, spec: ProblemSpec, basis: TentBasis
) -> VerifyReport:
    """Margins, tolerance and verdict of a field from its left side and interior values."""
    react = spec.lam * (spec.h(ui) - ui ** (-spec.nu))
    right = react * basis.node_weights[1:-1]
    margins = (right - left) if side == "sub" else (left - right)
    tol_margin = 1e-8 * (1.0 + float(np.abs(right).max()))
    worst = int(np.argmin(margins))
    return VerifyReport(
        side=side,
        passed=bool(margins[worst] >= -tol_margin),
        margins=margins,
        worst_margin=float(margins[worst]),
        worst_node=worst + 1,
        tol_margin=tol_margin,
    )


def verify_weak_inequality(
    u: Field,
    op: ComposedOperator,
    side: str,
    basis: TentBasis | None = None,
) -> VerifyReport:
    """Check the weak inequality of the given side against all interior tents.

    For each interior test function w_i computes
    L_i = M(energy(u)) * int (D_left u)(D_left w_i) and
    R_i = lambda * int (h(u) - u^-nu) w_i, both by trapezoid quadrature in
    the transformed variable psi(x) (energy(u) itself integrates in x);
    the margin is R_i - L_i for side="sub" (must be >= -tol_margin) and
    L_i - R_i for side="super".  tol_margin = 1e-8 * (1 + sup|R|).
    """
    spec = op.spec
    u = np.asarray(u, dtype=float)
    ui = _checked_interior(u, spec.grid.n, side)
    if basis is None:
        basis = TentBasis(spec)
    d_u = op.apply_left(u)
    left = spec.m(energy_of_derivative(d_u, op)) * basis.bilinear(d_u)
    return _verdict(side, left, ui, spec, basis)


def nonexistence_threshold(lambda1: float, zeta_inf: float, a: float) -> float:
    """mu1 = lambda1 / (zeta_inf * a): no positive solution below this lambda."""
    if lambda1 <= 0 or zeta_inf <= 0 or a <= 0:
        raise ValueError("lambda1, zeta_inf and a must all be positive")
    return lambda1 / (zeta_inf * a)


def empirical_mu2(
    spec: ProblemSpec,
    op: ComposedOperator,
    eig: EigenPair,
    e: Field,
    r: float,
    lam_max: float = 150.0,
    step: float = 0.25,
) -> float | None:
    """Smallest lambda >= 1 (grid search) at which both verifications pass.

    Returns None when no lambda up to lam_max passes.  The existence proof
    guarantees such a threshold exists but gives no formula, so it is
    located empirically.

    Both fields rescale fixed ones: phi = lambda^r * p with p the
    subsolution at lambda = 1, and xi = zeta * e.  Their left derivatives,
    energies and tent forms are computed once and scaled at each lambda;
    the reaction side is evaluated on the fields themselves, after the
    checks `verify_weak_inequality` makes.  The sub side is checked first,
    and the pair (with its zeta) is built and xi checked only where it
    passes.
    """
    if 1.0 > lam_max + 1e-12:
        # an empty grid builds and refuses nothing
        return None
    n = spec.grid.n
    # build_pair's refusals, in its order; p is phi at lambda = 1
    d_e = op.apply_left(_positive_e(e))
    p = build_subsolution(1.0, r, spec.nu, eig)
    basis = TentBasis(spec)
    d_p = op.apply_left(p)
    energy_p, form_p = energy_of_derivative(d_p, op), basis.bilinear(d_p)
    energy_e, form_e = energy_of_derivative(d_e, op), basis.bilinear(d_e)
    lam = 1.0
    while lam <= lam_max + 1e-12:
        trial = dataclasses.replace(spec, lam=lam)
        s = lam**r
        # D_left(s * p) = s * D_left p, so its energy is s^2 E(p), its form s B(p)
        left = spec.m(s * s * energy_p) * (s * form_p)
        if _verdict("sub", left, _checked_interior(s * p, n, "sub"), trial, basis).passed:
            pair = build_pair(trial, eig, e, r)
            z = pair.zeta
            left = spec.m(z * z * energy_e) * (z * form_e)
            xi_int = _checked_interior(pair.xi, n, "super")
            if _verdict("super", left, xi_int, trial, basis).passed:
                return lam
        lam += step
    return None
