"""Discrete fractional integrals and Hilfer-type derivatives on a grid.

All quadrature is performed in the transformed variable u = psi(x), which
turns the kernel (psi(x) - psi(s))^(a-1) psi'(s) ds into the plain
power kernel (u_i - u)^(a-1) du.  The integrand is interpolated piecewise
linearly in u and the two moment integrals of each cell are evaluated in
closed form, so the weakly singular kernel is integrated exactly against
the interpolant (product integration; no free parameters, no tuning).
The right-side integral is the left rule applied to the reflected nodes.

The left derivative is Riemann-Liouville: d/du after an integral of order
1 - alpha.  The type beta cancels on the fields it differentiates
(f(0) = 0; Kilbas, Srivastava & Trujillo 2006, sec. 2.4) except at
beta = 1, alpha < 1, the Caputo type, which first subtracts f(0).  No
right derivative is built: below alpha = 1 the composed operator is the
weak form of `operators`, which needs only the left one.

Every builder reads the transformed nodes from `grid.u`; its psi argument
names the map the grid was built with.  Matrix assembly is
row-independent; assembled matrices are immutable and safe to share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Field, FractionalOrder, Grid, PsiFunction

__all__ = [
    "Side",
    "OperatorMatrix",
    "frac_integral_matrix",
    "hilfer_derivative_matrix",
    "hilfer_power_oracle",
]


# rows per block in the row-block loops: small temporaries, no Python step per row
_BLOCK = 64


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square matrix acting on grid fields."""

    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {e.shape}")
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _left_integral_entries(
    u: np.ndarray, order: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Row i approximates 1/Gamma(a) * int_0^{x_i} (u_i - u)^(a-1) f du.

    Product integration: on each cell [u_j, u_{j+1}] the interpolant
    f ~ linear and the moments m0 = int (u_i-u)^(a-1) du and
    m1 = int (u_i-u)^(a-1) u du are exact.  Rows go in blocks of _BLOCK:
    the distances d = u_i - u_j, clipped at 0, are raised to the powers a
    and a+1 once per block, and the cell ends are the shifted columns.
    Cells at or above the diagonal have both ends at distance 0, so their
    weights come out exact zeros.  The rule is written into `out` (zeros,
    possibly a view) when given.
    """
    n = len(u)
    a = order
    W = np.zeros((n, n)) if out is None else out
    du = u[1:] - u[:-1]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        ui = u[lo:hi, None]
        d = np.maximum(ui - u[:hi], 0.0)
        p = d**a
        d **= a + 1  # d now holds the distances to the power a+1
        m0 = (p[:, :-1] - p[:, 1:]) / a
        m1 = ui * m0 - (d[:, :-1] - d[:, 1:]) / (a + 1)
        W[lo:hi, : hi - 1] = (u[1:hi] * m0 - m1) / du[: hi - 1]
        W[lo:hi, 1:hi] += (m1 - u[: hi - 1] * m0) / du[: hi - 1]
    W /= math.gamma(a)
    return W


def frac_integral_matrix(grid: Grid, psi: PsiFunction, order: float, side: Side) -> OperatorMatrix:
    """Riemann-Liouville fractional integral of the given order and side.

    order must lie in (0, 1]; order=1 reduces to the composite trapezoid
    rule in the transformed variable.  The right integral
    int_{x_i}^{T} (u - u_i)^(a-1) f du is the left one in the variable -u,
    whose nodes -u[::-1] increase: the left rule written through the
    reversed view of the matrix, upper-triangular and C-contiguous.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"integral order must lie in (0, 1], got {order}")
    bad = grid.violations()
    if bad:
        raise ValueError("invalid grid: " + "; ".join(bad))
    u = grid.u
    if side is Side.LEFT:
        return OperatorMatrix(_left_integral_entries(u, order))
    W = np.zeros((len(u), len(u)))
    _left_integral_entries(-u[::-1], order, W[::-1, ::-1])
    return OperatorMatrix(W)


def _d1_stencil(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d/du on the (generally non-uniform) transformed nodes, row by row.

    Row i has the three coefficients c[i] in columns start[i] .. start[i]+2.
    Three-point second-order stencils: central in the interior, one-sided
    at the two endpoints.  Differentiating in u realizes (1/psi') d/dx
    without evaluating psi' (which may vanish at x=0).
    """
    n = len(u)
    c = np.empty((n, 3))
    h1 = u[1:-1] - u[:-2]
    h2 = u[2:] - u[1:-1]
    c[1:-1, 0] = -h2 / (h1 * (h1 + h2))
    c[1:-1, 1] = (h2 - h1) / (h1 * h2)
    c[1:-1, 2] = h1 / (h2 * (h1 + h2))
    a, b = u[1] - u[0], u[2] - u[1]
    c[0] = -(2 * a + b) / (a * (a + b)), (a + b) / (a * b), -a / (b * (a + b))
    a, b = u[-2] - u[-3], u[-1] - u[-2]
    c[-1] = b / (a * (a + b)), -(a + b) / (a * b), (a + 2 * b) / (b * (a + b))
    start = np.clip(np.arange(n) - 1, 0, n - 3)
    return c, start


def _d1_entries(u: np.ndarray) -> np.ndarray:
    """The d/du stencil as a dense matrix."""
    n = len(u)
    c, start = _d1_stencil(u)
    D = np.zeros((n, n))
    rows = np.arange(n)
    for k in range(3):
        D[rows, start + k] = c[:, k]
    return D


def _stencil_times(c: np.ndarray, start: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The stencil (c, start) of `_d1_stencil` times the matrix x.

    Each row of the product combines three rows of x: O(n^2) in place of a
    dense O(n^3) product, in blocks of _BLOCK rows.
    """
    out = np.empty_like(x)
    for lo in range(0, len(start), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        s = start[rows]
        out[rows] = c[rows, 0:1] * x[s] + c[rows, 1:2] * x[s + 1] + c[rows, 2:3] * x[s + 2]
    return out


def _left_derivative_entries(u: np.ndarray, order: FractionalOrder) -> np.ndarray:
    """D1 . I^{1-alpha}, the stencil acting on the integral as three-row combinations.

    At alpha = 1 these are the stencil matrix's entries, bit for bit.  At
    beta = 1, alpha < 1, column 0 loses each row's sum: f - f(0) is
    differentiated.
    """
    g = 1.0 - order.alpha
    if g <= 0.0:
        return _d1_entries(u)
    c, start = _d1_stencil(u)
    entries = _stencil_times(c, start, _left_integral_entries(u, g))
    if order.beta == 1.0:
        entries[:, 0] -= entries.sum(axis=1)
    return entries


def hilfer_derivative_matrix(
    grid: Grid, psi: PsiFunction, order: FractionalOrder
) -> OperatorMatrix:
    """Left Hilfer-type fractional derivative of order alpha and type beta as a matrix.

    D1 . I^{1-alpha}; at beta = 1, alpha < 1 it acts on f - f(0), and at
    alpha = 1 it is D1 exactly.  No right derivative is built.
    """
    bad = grid.violations()
    if bad:
        raise ValueError("invalid grid: " + "; ".join(bad))
    return OperatorMatrix(_left_derivative_entries(grid.u, order))


def hilfer_power_oracle(
    order: FractionalOrder, delta: float, psi: PsiFunction, grid: Grid
) -> Field:
    """Closed-form left-derivative image of (psi(x) - psi(0))^(delta-1).

    Returns Gamma(delta)/Gamma(delta-alpha) * (psi(x)-psi(0))^(delta-1-alpha),
    the analytic action of the left derivative on the power family; the
    type parameter beta drops out for this family.  Used as the quadrature
    oracle bypassing the matrices entirely.
    """
    if delta <= 1.0:
        raise ValueError(f"delta must exceed 1, got {delta}")
    arg = delta - order.alpha
    if arg <= 0.0:
        raise ValueError(
            f"delta - alpha must be positive (Gamma pole at {arg}); got delta={delta}, "
            f"alpha={order.alpha}"
        )
    u = grid.u
    w = u - u[0]
    coef = math.gamma(delta) / math.gamma(arg)
    expo = delta - 1.0 - order.alpha
    if abs(expo) < 1e-12:
        # degenerate constant image; snap float residue so 0^0 cannot bite
        expo = 0.0
    with np.errstate(divide="ignore"):
        out = coef * np.power(w, expo)
    if expo < 0:
        out[0] = np.inf
    return out

