"""Domain types: fractional orders, kernel functions, grids, and problem data.

Everything here is an immutable value object; instances can be shared freely
between threads or processes.  Function catalogs (the kernel-generating map,
the Kirchhoff coefficient, the reaction nonlinearity) are closed enums with
fixed analytic members so that the hypotheses placed on them can be checked
by tests instead of being assumed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Field",
    "FractionalOrder",
    "PsiKind",
    "PsiFunction",
    "Grid",
    "KirchhoffKind",
    "KirchhoffFn",
    "NonlinearityKind",
    "Nonlinearity",
    "ProblemSpec",
    "validate_spec",
    "cell_width_violations",
]

# A field is a plain float vector with one value per grid node.
Field = np.ndarray


@dataclass(frozen=True)
class FractionalOrder:
    """Order/type pair (alpha, beta) of the fractional derivative.

    alpha must lie in (1/2, 1] and beta in [0, 1].  The derivatives are
    built from one integral of order 1 - alpha, the Riemann-Liouville
    form, for every beta; beta = 1 adds the Caputo shift (see `calculus`).
    Every nonzero 1 - alpha (at least 2^-53) keeps the integral rule
    finite on the intervals `validate_spec` admits.  g1 and g2, the Hilfer definition's outer
    and inner integral orders, stay because the benchmark's span counters
    (`perfbench/spans.py`) read them; no derivative is built from them.
    """

    alpha: float
    beta: float = 0.5

    @property
    def g1(self) -> float:
        """Exponent of the outer (post-derivative) integral."""
        return self.beta * (1.0 - self.alpha)

    @property
    def g2(self) -> float:
        """Exponent of the inner (pre-derivative) integral."""
        return (1.0 - self.beta) * (1.0 - self.alpha)

    def violations(self) -> list[str]:
        out = []
        if not 0.5 < self.alpha <= 1.0:
            out.append(f"alpha must exceed 1/2 and be at most 1 (got {self.alpha})")
        if not 0.0 <= self.beta <= 1.0:
            out.append(f"beta must lie in [0, 1] (got {self.beta})")
        return out


class PsiKind(enum.Enum):
    IDENTITY = "identity"
    EXP_MINUS_ONE = "exp_minus_one"
    SQUARE = "square"
    LOG1P = "log1p"


@dataclass(frozen=True)
class PsiFunction:
    """Kernel-generating map psi: strictly increasing on (0, T], psi(0) finite.

    The catalog members and their derivatives:

    ==============  ================  ==============
    kind            psi(x)            psi'(x)
    ==============  ================  ==============
    identity        x                 1
    exp_minus_one   exp(k x) - 1      k exp(k x)
    square          x^2               2 x
    log1p           log(1 + x)        1 / (1 + x)
    ==============  ================  ==============

    Note psi' may vanish at x = 0 (square); downstream quadrature works in
    the transformed variable u = psi(x) and never divides by psi'.
    """

    kind: PsiKind = PsiKind.IDENTITY
    k: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is PsiKind.IDENTITY:
            return x.copy()
        if self.kind is PsiKind.EXP_MINUS_ONE:
            return np.expm1(self.k * x)
        if self.kind is PsiKind.SQUARE:
            return x * x
        return np.log1p(x)

    def violations(self) -> list[str]:
        out = []
        if self.kind is PsiKind.EXP_MINUS_ONE and not self.k > 0:
            out.append(f"psi_k must be positive for exp_minus_one (got {self.k})")
        return out

    @classmethod
    def from_name(cls, name: str, k: float = 1.0) -> "PsiFunction":
        try:
            kind = PsiKind(name)
        except ValueError:
            names = ", ".join(m.value for m in PsiKind)
            raise ValueError(f"unknown psi kind {name!r}; expected one of {names}") from None
        return cls(kind, k)


@dataclass(frozen=True)
class Grid:
    """Uniform node set on [0, T] together with its psi-transform.

    x holds the n uniform nodes, u the transformed values psi(x_i); the
    boundary index set is always {0, n-1}.
    """

    T: float
    n: int
    x: np.ndarray = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def make(cls, T: float, n: int, psi: PsiFunction) -> "Grid":
        x = np.linspace(0.0, float(T), int(n))
        # an overflowing psi(T) is reported by violations(), not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            g = cls(float(T), int(n), x, psi(x))
        g.x.setflags(write=False)
        g.u.setflags(write=False)
        return g

    def violations(self) -> list[str]:
        out = []
        if not self.T > 0:
            out.append(f"T must be positive (got {self.T})")
        if self.n < 8:
            out.append(f"grid_n must be at least 8 (got {self.n})")
        if len(self.x) != self.n or len(self.u) != self.n:
            out.append("node arrays must have length grid_n")
            return out
        if not np.all(np.isfinite(self.u)):
            out.append("transformed nodes must be finite (psi(T) overflows)")
            return out
        if not np.all(np.diff(self.x) > 0):
            out.append("nodes must be strictly increasing")
        if not np.all(np.diff(self.u) > 0):
            out.append("transformed nodes must be strictly increasing (psi not increasing?)")
        return out


class KirchhoffKind(enum.Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    SATURATING = "saturating"


@dataclass(frozen=True)
class KirchhoffFn:
    """Nonlocal coefficient M with hard bounds zeta0 <= M(t) <= zeta_inf.

    The affine member zeta0 + t is capped at zeta_inf so the upper bound
    is enforced rather than assumed; the saturating member is
    zeta0 + (zeta_inf - zeta0) * t/(t + 1).
    """

    kind: KirchhoffKind = KirchhoffKind.CONSTANT
    zeta0: float = 1.0
    zeta_inf: float = 1.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind is KirchhoffKind.CONSTANT:
            out = np.full_like(t, self.zeta0)
        elif self.kind is KirchhoffKind.AFFINE:
            out = np.minimum(self.zeta0 + t, self.zeta_inf)
        else:
            out = self.zeta0 + (self.zeta_inf - self.zeta0) * t / (t + 1.0)
        return float(out) if out.ndim == 0 else out

    def violations(self) -> list[str]:
        out = []
        # written so that NaN fails each check
        if not 0 < self.zeta0 < np.inf:
            out.append(f"zeta0 must be positive and finite (got {self.zeta0})")
        if not self.zeta_inf < np.inf:
            out.append(f"zeta_inf must be finite (got {self.zeta_inf})")
        elif not self.zeta_inf >= self.zeta0:
            out.append(f"zeta_inf must be at least zeta0 (got {self.zeta_inf} < {self.zeta0})")
        return out

    @classmethod
    def from_name(cls, name: str, zeta0: float, zeta_inf: float) -> "KirchhoffFn":
        try:
            kind = KirchhoffKind(name)
        except ValueError:
            names = ", ".join(m.value for m in KirchhoffKind)
            raise ValueError(f"unknown m kind {name!r}; expected one of {names}") from None
        return cls(kind, zeta0, zeta_inf)


class NonlinearityKind(enum.Enum):
    SQRT = "sqrt"
    LOG1P = "log1p"
    SATURATING_LINEAR = "saturating_linear"
    ZERO = "zero"


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term h: continuous, nondecreasing, sublinear at infinity.

    Catalog: sqrt(s), log(1+s), s/(1+s) and 0; each satisfies
    h(s)/s -> 0 analytically.
    """

    kind: NonlinearityKind = NonlinearityKind.SQRT

    def __call__(self, s):
        if isinstance(s, float):
            # bitwise the array path below, without a 0-d array per call
            s = float(s)  # not a numpy scalar
            pos = s if not s <= 0.0 else 0.0  # np.maximum(s, 0.0): nan stays, -0.0 becomes 0.0
            if self.kind is NonlinearityKind.SQRT:
                return math.sqrt(pos)
            if self.kind is NonlinearityKind.LOG1P:
                # math.log1p rounds differently from numpy's
                return float(np.log1p(pos))
            if self.kind is NonlinearityKind.ZERO:
                return 0.0
            if s != -1.0:  # numpy divides by zero there
                return s / (1.0 + s)
        s = np.asarray(s, dtype=float)
        if self.kind is NonlinearityKind.SQRT:
            out = np.sqrt(np.maximum(s, 0.0))
        elif self.kind is NonlinearityKind.LOG1P:
            out = np.log1p(np.maximum(s, 0.0))
        elif self.kind is NonlinearityKind.SATURATING_LINEAR:
            out = s / (1.0 + s)
        else:
            out = np.zeros_like(s)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_name(cls, name: str) -> "Nonlinearity":
        try:
            kind = NonlinearityKind(name)
        except ValueError:
            names = ", ".join(m.value for m in NonlinearityKind)
            raise ValueError(f"unknown h kind {name!r}; expected one of {names}") from None
        return cls(kind)


@dataclass(frozen=True)
class ProblemSpec:
    """All data of the boundary-value problem on (0, T)."""

    order: FractionalOrder
    psi: PsiFunction
    grid: Grid
    m: KirchhoffFn
    h: Nonlinearity
    nu: float
    lam: float

    def violations(self) -> list[str]:
        out = []
        if not 0.0 < self.nu < 1.0:
            out.append(f"nu must lie in (0,1) (got {self.nu})")
        if not 0 < self.lam < np.inf:
            out.append(f"lambda must be positive and finite (got {self.lam})")
        return out


def validate_spec(spec: ProblemSpec) -> list[str]:
    """Collect every invariant violation in the problem data.

    Returns an empty list iff the spec is admissible.  Reports and never
    raises, so a CLI can surface all problems at once.
    """
    out = []
    out += spec.order.violations()
    out += spec.psi.violations()
    grid_bad = spec.grid.violations()
    out += grid_bad
    out += spec.m.violations()
    out += spec.violations()
    # cross-field consistency: the grid must carry this psi's transform
    if not grid_bad:
        expect = spec.psi(spec.grid.x)
        if not np.allclose(expect, spec.grid.u, rtol=1e-13, atol=1e-15):
            out.append("grid.u does not match psi(grid.x); rebuild the grid with this psi")
        out += cell_width_violations(spec.grid.u)
    return out


def cell_width_violations(u: np.ndarray) -> list[str]:
    """The stencil's bound on the cell widths of increasing transformed nodes u.

    The d/du stencil divides by products of two neighbouring cell widths;
    bounded by them, the span stays below 1.4e154 * n, so the integral
    rule's (psi(T) - psi(0))/(1 - alpha) stays finite for 1 - alpha >= 2^-53.
    """
    du = np.diff(u)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(over="ignore"):
        sums = du[:-1] + du[1:]
        # map is lazy: each product is reduced to its range before the next is formed
        products = map(np.multiply, (du[:-1], du[:-1], du[1:]), (du[1:], sums, sums))
        if all(tiny <= p.min() and p.max() <= huge for p in products):
            return []
    return [
        f"cell widths in psi(x) must keep their pairwise products in the normal "
        f"float range [{tiny:g}, {huge:g}] (got widths {du.min():g} to {du.max():g})"
    ]


def make_spec(
    alpha: float = 0.75,
    beta: float = 0.5,
    psi: str = "identity",
    psi_k: float = 1.0,
    nu: float = 0.5,
    lam: float = 1.0,
    T: float = 1.0,
    grid_n: int = 129,
    h: str = "sqrt",
    m: str = "constant",
    zeta0: float = 1.0,
    zeta_inf: float = 1.0,
) -> ProblemSpec:
    """Convenience constructor used by the CLI and tests.

    Refuses a non-finite T or psi_k with a ValueError before it builds the
    nodes, which no such value can give.
    """
    for name, value in (("T", T), ("psi_k", psi_k)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite (got {value})")
    psif = PsiFunction.from_name(psi, psi_k)
    return ProblemSpec(
        order=FractionalOrder(alpha, beta),
        psi=psif,
        grid=Grid.make(T, grid_n, psif),
        m=KirchhoffFn.from_name(m, zeta0, zeta_inf),
        h=Nonlinearity.from_name(h),
        nu=nu,
        lam=lam,
    )

