"""Discrete left fractional integrals and Hilfer-type derivatives on a grid.

All quadrature is performed in the transformed variable u = psi(x), which
turns the kernel (psi(x) - psi(s))^(a-1) psi'(s) ds into the plain
power kernel (u_i - u)^(a-1) du.  The integrand is interpolated piecewise
linearly in u and the two moment integrals of each cell are evaluated in
closed form, so the weakly singular kernel is integrated exactly against
the interpolant (product integration; no free parameters, no tuning).
The rule chooses its construction by its nodes: on a uniform grid
(np.linspace's nodes, the test `operators` applies too) a cell's weights
depend only on its lag behind the row's node, so the rule is one row of
2n powers in distance form copied down the diagonals (the convolution
structure of fractional quadrature; Lubich 1986); on every other grid the
distances of each row block are raised to the two powers.

The left derivative is Riemann-Liouville: d/du after an integral of order
1 - alpha.  The type beta cancels on the fields it differentiates
(f(0) = 0; Kilbas, Srivastava & Trujillo 2006, sec. 2.4) except at
beta = 1, alpha < 1, the Caputo type, which first subtracts f(0).  No
right integral or derivative is built: below alpha = 1 the composed
operator is the weak form of `operators`, which needs only the left one.

Every builder reads the transformed nodes from `grid.u`, which the grid
derives from its own psi.  Matrix assembly is row-independent; assembled
matrices are immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Field, FractionalOrder, Grid, PsiFunction

__all__ = [
    "OperatorMatrix",
    "frac_integral_matrix",
    "hilfer_derivative_matrix",
    "hilfer_power_oracle",
]


# rows per block in the row-block loops: small temporaries, no Python step per row
_BLOCK = 64


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


def _is_uniform(u: np.ndarray) -> bool:
    """Whether the nodes are exactly np.linspace's between their ends."""
    return np.array_equal(u, np.linspace(u[0], u[-1], len(u)))


def _left_integral_entries(u: np.ndarray, order: float) -> np.ndarray:
    """Row i approximates 1/Gamma(a) * int_0^{x_i} (u_i - u)^(a-1) f du.

    `_lag_weights` on uniform nodes, `_block_weights` on every other node set.
    """
    if _is_uniform(u):
        return _lag_weights(u, order)
    return _block_weights(u, order)


def _block_weights(u: np.ndarray, a: float) -> np.ndarray:
    """The rule on any increasing nodes, in blocks of _BLOCK rows.

    Product integration: on each cell [u_j, u_{j+1}] the interpolant
    f ~ linear and the moments m0 = int (u_i-u)^(a-1) du and
    m1 = int (u_i-u)^(a-1) u du are exact.  The distances d = u_i - u_j,
    clipped at 0, are raised to the powers a and a+1 once per block, and
    the cell ends are the shifted columns.  Cells at or above the diagonal
    have both ends at distance 0, so their weights come out exact zeros.
    """
    n = len(u)
    W = np.zeros((n, n))
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


def _lag_weights(u: np.ndarray, a: float) -> np.ndarray:
    """The rule on uniform nodes, where a weight depends only on the lag i - j.

    The cell k cells behind a row's node lies between the distances
    t_{k-1} and t_k from it, t_k = u_k - u_0 taken from the nodes.  With
    m0 = (t_k^a - t_{k-1}^a)/a and Q = (t_k^(a+1) - t_{k-1}^(a+1))/(a+1),
    its far end weighs (Q - t_{k-1} m0)/dt and its near end
    (t_k m0 - Q)/dt, dt = t_k - t_{k-1}: 2n powers in all.  Both weights
    share one rounded m0 and Q, so a row integrates 1 and u - u_0 to a few
    ulps (the block loop, to a few hundred at n = 1025).  Node j >= 1 of
    row i is the near end at lag i - j + 1 and the far end at lag i - j,
    so rows and columns 1 on are one lower-triangular Toeplitz copy of
    that lag row; column 0 is only ever a far end.
    """
    n = len(u)
    t = u - u[0]
    p, q = t**a, t ** (a + 1)
    m0 = (p[1:] - p[:-1]) / a
    Q = (q[1:] - q[:-1]) / (a + 1)
    dt = (t[1:] - t[:-1]) * math.gamma(a)
    far = (Q - t[:-1] * m0) / dt
    lags = (t[1:] * m0 - Q) / dt  # the near ends, at lags 1 .. n-1
    lags[1:] += far[:-1]
    # row i of the windows over (lag row reversed, then zeros) reads lags i, i-1, ..., 0, 0, ...
    windows = np.zeros(2 * n - 3)
    windows[: n - 1] = lags[::-1]
    W = np.zeros((n, n))
    W[1:, 1:] = np.lib.stride_tricks.sliding_window_view(windows, n - 1)[::-1]
    W[1:, 0] = far
    return W


def _grid_nodes(grid: Grid) -> np.ndarray:
    """The transformed nodes of a grid, refused unless the grid is valid."""
    bad = grid.violations()
    if bad:
        raise ValueError("invalid grid: " + "; ".join(bad))
    return grid.u


def frac_integral_matrix(grid: Grid, psi: PsiFunction, order: float) -> OperatorMatrix:
    """Left Riemann-Liouville fractional integral of the given order.

    order must lie in (0, 1]; order=1 reduces to the composite trapezoid
    rule in the transformed variable.  psi is not read (the grid holds it);
    it stays as in `hilfer_derivative_matrix`, which keeps it for perfbench.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"integral order must lie in (0, 1], got {order}")
    return OperatorMatrix(_left_integral_entries(_grid_nodes(grid), order))


def _d1_stencil(u: np.ndarray) -> np.ndarray:
    """d/du on the (generally non-uniform) transformed nodes, row by row.

    Row i has the three coefficients c[i] in columns i-1 .. i+1, and rows 0
    and n-1 in columns 0 .. 2 and n-3 .. n-1.  Three-point second-order
    stencils: central in the interior, one-sided at the two endpoints.
    Differentiating in u realizes (1/psi') d/dx without evaluating psi'
    (which may vanish at x=0).
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
    return c


def _stencil_times(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The stencil c of `_d1_stencil` times the matrix x.

    Each row of the product combines three rows of x: O(n^2) in place of a
    dense O(n^3) product.  The two end rows are formed on their own; the
    interior rows go in blocks of _BLOCK, whose three row sets are slices of x.
    """
    n = len(c)
    out = np.empty_like(x)
    for i, s in ((0, 0), (n - 1, n - 3)):
        out[i] = c[i, 0] * x[s] + c[i, 1] * x[s + 1] + c[i, 2] * x[s + 2]
    for lo in range(1, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        x0, x1, x2 = x[lo - 1 : hi - 1], x[lo:hi], x[lo + 1 : hi + 1]
        out[lo:hi] = c[lo:hi, 0:1] * x0 + c[lo:hi, 1:2] * x1 + c[lo:hi, 2:3] * x2
    return out


def hilfer_derivative_matrix(
    grid: Grid, psi: PsiFunction, order: FractionalOrder
) -> OperatorMatrix:
    """Left Hilfer-type fractional derivative of order alpha and type beta as a matrix.

    D1 . I^{1-alpha}, the stencil acting on the integral as three-row
    combinations; at alpha = 1 it acts on the identity, so the entries are
    D1's own.  At beta = 1, alpha < 1 column 0 loses each row's sum: the
    derivative acts on f - f(0).  No right derivative is built.  psi is
    not read (the grid holds it); it stays because `perfbench/spans.py`
    reads order as positional argument 2.
    """
    u = _grid_nodes(grid)
    g = 1.0 - order.alpha
    inner = _left_integral_entries(u, g) if g > 0.0 else np.eye(len(u))
    entries = _stencil_times(_d1_stencil(u), inner)
    if g > 0.0 and order.beta == 1.0:
        entries[:, 0] -= entries.sum(axis=1)
    return OperatorMatrix(entries)


def hilfer_power_oracle(order: FractionalOrder, delta: float, grid: Grid) -> Field:
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
