"""The composed Kirchhoff differential operator, its eigenpair, and helpers.

The operator A realizes u -> D_right(D_left u) with homogeneous Dirichlet
data: its two boundary rows are unit rows.  All solves work on the
interior block, with what the assembly stored; the stored objects are
immutable afterwards.

At every alpha, A = W^-1 K is the weak form the verifier integrates
(Ervin & Roop 2006): K_ij = int (D_left w_i)(D_left w_j) du over the tents
w_i, piecewise linear in u = psi(x), by the cell-midpoint rule, and W the
tent masses.  K = V V^T is symmetric positive definite, so A has a real
spectrum; V, the table of tent derivatives at the cell midpoints, is
square and upper-triangular.  Neither K nor A is formed.

At alpha = 1 the tent derivatives are steps, V is upper-bidiagonal and K
is the P1 stiffness matrix: only the cell widths and the tent masses are
kept, products are two difference passes and solves two cumulative sums,
in numpy alone.  Below alpha = 1 the table is kept: products are two
passes over it and solves two triangular solves with it (LAPACK dtrtrs,
so scipy.linalg loads only there).

At every alpha the Kirchhoff energy is the cell-midpoint rule in x of
D_left u: the table's values below alpha = 1, and at alpha = 1 the
difference quotients of u.

Products, left derivatives, solves and energies also take a block of
fields, one per row (the Picard sweep's lambda values), and return for
each row bitwise what they return for that row alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _BLOCK, OperatorMatrix
from .core import Field, ProblemSpec, validate_spec

__all__ = [
    "ComposedOperator",
    "EigenPair",
    "assemble_composed",
    "principal_eigenpair",
    "solve_e",
    "energy",
    "energies",
    "tent_masses",
]


def _by_row(fn, x: np.ndarray) -> np.ndarray:
    """fn of a field, or of each row of a block.

    A product with a 2-D block is another BLAS call, not bitwise the one of each row.
    """
    return fn(x) if x.ndim == 1 else np.stack([fn(row) for row in x])


@dataclass(frozen=True)
class _Stiffness:
    """A = W^-1 K at alpha = 1, K = V V^T the P1 stiffness, kept as the cell widths and tent masses.

    V is upper-bidiagonal, V[k, k] = 1/sqrt(du_k) and V[k, k+1] =
    -1/sqrt(du_{k+1}), so (K f)_i = s_{i-1} - s_i with s the slopes of f on
    the cells: a product is two difference passes and a solve two
    cumulative sums, elementwise along each row of a block.
    """

    du: np.ndarray
    w: np.ndarray
    span: float
    kind = "stiffness"

    def bandwidth(self) -> tuple[int, int]:
        return (1, 1)

    def left(self, f: np.ndarray) -> np.ndarray:
        return np.diff(f) / self.du

    def times(self, f: np.ndarray) -> np.ndarray:
        out = f.copy()  # unit boundary rows
        s = self.left(f)
        np.subtract(s[..., :-1], s[..., 1:], out=out[..., 1:-1])
        out[..., 1:-1] /= self.w
        return out

    def dense(self) -> np.ndarray:
        return self.times(np.eye(len(self.du) + 1)).T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K_int x = W rhs in slope form: the slopes s_k = s_0 - (b_1 + ... + b_k).

        x(T) = 0 fixes s_0 = sum_k du_k (b_1 + ... + b_k) / (u_{n-1} - u_0),
        and x is the cumulative sum of du * s without its last entry.
        """
        rhs = np.asarray_chkfinite(rhs)
        c = np.zeros(rhs.shape[:-1] + self.du.shape)
        np.multiply(self.w, rhs, out=c[..., 1:])
        np.cumsum(c[..., 1:], axis=-1, out=c[..., 1:])
        s = np.multiply(c, self.du)
        s0 = np.sum(s, axis=-1, keepdims=True) / self.span
        np.subtract(s0, c, out=s)
        s *= self.du
        return np.cumsum(s, axis=-1, out=s)[..., :-1]


def _k_solve(table: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b, K = V V^T: two solves with V^T = table[1:].T, F-ordered and read in place.

    scipy.linalg loads here, at the first solve below alpha = 1, and not at alpha = 1.
    """
    from scipy.linalg.lapack import dtrtrs

    for trans in (1, 0):
        b, info = dtrtrs(table[1:].T, b, lower=1, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtrs on the tent table failed (info {info})")
    return b


@dataclass(frozen=True)
class _Tents:
    """A = W^-1 K below alpha = 1, kept as the table of tent derivatives.

    V = table[1:] is square and upper-triangular: its rows are the interior
    tents and the half tent at T, its columns the cells, and K = V V^T.  The
    interior block K_int is K's leading block, so K_int x = b is K z = (b, 0)
    less the multiple of g = K^-1 e_last that zeroes z's last entry.
    """

    table: np.ndarray
    w: np.ndarray
    root_du: np.ndarray
    g: np.ndarray
    kind = "tent table"

    def bandwidth(self) -> tuple[int, int]:
        return (len(self.w) - 1, len(self.w) - 1)

    def left(self, f: np.ndarray) -> np.ndarray:
        return _by_row(lambda r: r @ self.table, f) / self.root_du

    @classmethod
    def of(cls, table: np.ndarray, w: np.ndarray, du: np.ndarray) -> _Tents:
        # the table is checked once, as a dense LU checks its matrix
        last = np.append(np.zeros(len(table) - 2), 1.0)
        return cls(table, w, np.sqrt(du), _k_solve(np.asarray_chkfinite(table), last))

    def times(self, f: np.ndarray) -> np.ndarray:
        out = f.copy()  # unit boundary rows
        out[..., 1:-1] = _by_row(lambda r: self.table[1:-1] @ (r @ self.table) / self.w, f)
        return out

    def dense(self) -> np.ndarray:
        a = np.eye(len(self.table))
        a[1:-1] = self.table[1:-1] @ self.table.T / self.w[:, None]
        return a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _by_row(self._solve, np.asarray_chkfinite(rhs))

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        z = _k_solve(self.table, np.append(self.w * rhs, 0.0))
        return z[:-1] - (z[-1] / self.g[-1]) * self.g[:-1]


@dataclass(frozen=True)
class ComposedOperator:
    """Dirichlet realization of D_right(D_left u) on the grid, in weak form below alpha = 1.

    Field indices stay aligned with grid nodes (unit boundary rows of A).
    `_a` holds A as the assembly built it, with what its solves use: the
    cell widths and tent masses at alpha = 1, the tent table below.
    `a_full` and `interior_block()` build the dense matrices on request,
    for tests only.
    """

    spec: ProblemSpec
    _a: _Stiffness | _Tents = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.spec.grid.n

    @functools.cached_property
    def cell_widths(self) -> np.ndarray:
        """The cell widths of the grid in x, which weigh the energy's cells."""
        dx = np.diff(self.spec.grid.x)
        dx.setflags(write=False)
        return dx

    @property
    def a_full(self) -> OperatorMatrix:
        """A as a dense matrix, boundary rows included."""
        return OperatorMatrix(self._a.dense())

    @property
    def factorization(self) -> str:
        """How interior solves are made: "stiffness" (cumulative sums) or "tent table" (K's factor)."""
        return self._a.kind

    @property
    def interior_bandwidth(self) -> tuple[int, int]:
        """(kl, ku) of the interior block: (1, 1) at alpha = 1, full below."""
        return self._a.bandwidth()

    def interior_block(self) -> np.ndarray:
        return self._a.dense()[1:-1, 1:-1]

    def solve_block(self, rhs_interior: np.ndarray) -> np.ndarray:
        """The interior block's solve: A_int^{-1} rhs, without boundary entries.

        rhs may be a block with one right-hand side per row; row j of the
        result is bitwise the solve of row j alone.
        """
        return self._a.solve(rhs_interior)

    def apply_block(self, v: np.ndarray) -> np.ndarray:
        """The interior block's product: A_int v, without boundary entries."""
        # zero boundary values add exact zeros to the interior rows
        return self.apply_full(np.concatenate(([0.0], v, [0.0])))[1:-1]

    def solve_interior(self, rhs_interior: np.ndarray) -> Field:
        """Solve A u = rhs on the interior with zero Dirichlet data."""
        rhs_interior = np.asarray(rhs_interior, dtype=float)
        if rhs_interior.shape != (self.n - 2,):
            raise ValueError(
                f"rhs length {rhs_interior.shape} does not match interior size {self.n - 2}"
            )
        out = np.zeros(self.n)
        out[1:-1] = self.solve_block(rhs_interior)
        return out

    def apply_full(self, f: Field) -> Field:
        """A f, of a field or of each row of a block (bitwise the row's own product)."""
        return self._a.times(np.asarray(f, dtype=float))

    def apply_left(self, f: Field) -> np.ndarray:
        """D_left f at the cell midpoints: difference quotients at alpha = 1, the table below.

        Of a field, or of each row of a block (bitwise the row's own).
        """
        return self._a.left(np.asarray(f, dtype=float))


def tent_masses(u: np.ndarray) -> np.ndarray:
    """The masses int w_i du of the tents at every node, the half tents at both ends included."""
    ends = np.concatenate(([u[0]], u, [u[-1]]))
    return 0.5 * (ends[2:] - ends[:-2])


def _tent_table(u: np.ndarray, alpha: float) -> np.ndarray:
    """The table of tent derivatives for alpha < 1: K's upper-triangular factor.

    The tent at node i is c0 (u - u_{i-1})_+ + c1 (u - u_i)_+ +
    c2 (u - u_{i+1})_+, so its left derivative T_i, for every beta, is the
    same combination of the kernels (u - u_k)_+^(1-alpha) / Gamma(2-alpha).
    K_ij sums du_m T_i(um) T_j(um) over the cell midpoints um.  The table
    holds sqrt(du_m) T_i(um) in row i, column m, built in blocks of _BLOCK
    tents; row 0 is zero and row n-1 is the half tent at T, so that A also
    acts on fields with u(T) != 0.  Tent i vanishes on the cells before
    cell i-1, so rows 1 .. n-1 are upper-triangular.
    """
    n = len(u)
    m = n - 2
    du = u[1:] - u[:-1]
    mid = 0.5 * (u[:-1] + u[1:])
    c0 = 1.0 / du[:-1]
    c2 = 1.0 / du[1:]
    c1 = -(c0 + c2)
    scale = np.sqrt(du) / math.gamma(2.0 - alpha)
    table = np.zeros((n, n - 1))
    inner = table[1:-1]
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        # kernels based at u_lo .. u_{lo+_BLOCK+1} at the midpoints of cells lo on;
        # the tents of this block vanish on the cells before
        t = mid[lo:] - u[lo : lo + _BLOCK + 2, None]
        np.maximum(t, 0.0, out=t)
        np.power(t, 1.0 - alpha, out=t, where=t > 0.0)
        tents = c0[rows, None] * t[:-2] + c1[rows, None] * t[1:-1] + c2[rows, None] * t[2:]
        tents *= scale[lo:]
        inner[rows, lo:] = tents
    table[-1, -1] = scale[-1] * (0.5 * du[-1]) ** (1.0 - alpha) / du[-1]
    return table


def assemble_composed(spec: ProblemSpec) -> ComposedOperator:
    """Build the composed operator for the problem data.

    A is the tent form W^-1 K at every alpha.  At alpha = 1 it is kept as
    the cell widths and tent masses (K the P1 stiffness); below, as the
    table of `_tent_table`, which also gives D_left at the cell midpoints.
    Rows 0 and n-1 are unit rows enforcing u = 0 at the boundary.
    """
    bad = validate_spec(spec)
    if bad:
        raise ValueError("invalid problem spec: " + "; ".join(bad))
    u = spec.grid.u
    du, w = np.diff(u), tent_masses(u)[1:-1]
    for a in (du, w):
        a.setflags(write=False)
    if spec.order.alpha == 1.0:
        return ComposedOperator(spec, _Stiffness(du, w, float(u[-1] - u[0])))
    table = _tent_table(u, spec.order.alpha)
    table.setflags(write=False)
    return ComposedOperator(spec, _Tents.of(table, w, du))


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair of the composed operator with diagnostics.

    psi1 is sup-normalized with positive sign and zero boundary values.
    positive_interior reports whether every interior value is strictly
    positive: a computed outcome, which the subsolution refuses to raise
    into a power when it fails.  lambda2 is the Ritz value next to lambda1
    (None after one Arnoldi step), the next eigenvalue the ones vector reaches.
    """

    lambda1: float
    psi1: Field
    iterations: int
    residual: float
    positive_interior: bool
    threshold: float
    lambda2: float | None

    @property
    def psi1_min_interior(self) -> float:
        return float(self.psi1[1:-1].min())

    @property
    def psi1_error_estimate(self) -> float | None:
        """residual / |lambda2 - lambda1|, psi1's error bound were A symmetric."""
        gap = 0.0 if self.lambda2 is None else abs(self.lambda2 - self.lambda1)
        return self.residual / gap if gap else None


def _inverse_arnoldi(op: ComposedOperator, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """At most k >= 1 Arnoldi steps on A^{-1} from the ones vector: Ritz vector and values.

    Returns the dominant Ritz vector x = V_j y and the Ritz values by
    decreasing |mu|.  After step j the dominant Ritz pair (mu, y) of H_j,
    |y| = 1, leaves the Arnoldi residual h_{j+1,j} y_j v_{j+1}, so
    w = A^{-1} x, sup-normalized, has A w - w / mu of about
    ||h_{j+1,j} v_{j+1}||_inf |y_j| / (mu^2 ||x||_inf).  The pass stops once
    that is at most tol / |mu|, or when the Krylov space becomes invariant.
    Gram-Schmidt is applied twice per step.
    """
    basis = np.zeros((op.n - 2, k))
    hess = np.zeros((k + 1, k))
    basis[:, 0] = 1.0 / np.sqrt(op.n - 2)
    for j in range(k):
        w = op.solve_block(basis[:, j])
        for _ in range(2):
            c = basis[:, : j + 1].T @ w
            w -= basis[:, : j + 1] @ c
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        mus, ys = np.linalg.eig(hess[: j + 1, : j + 1])
        order = np.argsort(-np.abs(mus))
        mus, y = mus[order].real, ys[:, order[0]].real
        x = basis[:, : j + 1] @ y
        est = np.abs(w).max() * abs(y[j]) / (mus[0] ** 2 * np.abs(x).max())
        invariant = hess[j + 1, j] <= 1e-14 * np.abs(hess[: j + 1, j]).max()
        if j + 1 == k or est <= tol / abs(mus[0]) or invariant:
            return x, mus
        basis[:, j + 1] = w / hess[j + 1, j]


def principal_eigenpair(op: ComposedOperator, tol: float = 1e-9) -> EigenPair:
    """Smallest-magnitude eigenpair by one pass of shift-invert Arnoldi on the cached factors.

    Builds at most k = min(20, n - 2) Arnoldi vectors of A^{-1} from the
    ones vector, through the interior block's solve, and stops once the
    dominant Ritz pair's residual bound is a tenth of the acceptance
    threshold.  That pair approximates (1/lambda1, psi1): the spectrum is
    real (below alpha = 1 A = W^-1 K is similar to the symmetric
    W^-1/2 K W^-1/2).  One inverse-iteration step from the Ritz vector and
    its Rayleigh quotient give the pair, accepted if its eigen-residual is
    at most 10 * tol * |lambda1|.  `iterations` counts the interior solves,
    the Arnoldi steps plus that one step: at most k + 1.  Raises
    RuntimeError otherwise, with the residual and its threshold.
    """
    x, mus = _inverse_arnoldi(op, min(20, op.n - 2), tol)
    w = op.solve_block(x)
    solves = len(mus) + 1
    # sup-normalize, then orient by the dominant component
    v = w / np.abs(w).max()
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    av = op.apply_block(v)
    lam = float(v @ av) / float(v @ v)
    resid = float(np.abs(av - lam * v).max())
    threshold = 10.0 * tol * abs(lam)
    if not resid <= threshold:
        raise RuntimeError(
            f"shift-invert Arnoldi did not converge in {solves} interior solves: "
            f"residual {resid:.3g} above {threshold:.3g} (lambda {lam:.6g})"
        )
    return EigenPair(
        lambda1=lam,
        psi1=np.concatenate(([0.0], v, [0.0])),
        iterations=solves,
        residual=resid,
        positive_interior=bool(np.all(v > 0.0)),
        threshold=threshold,
        lambda2=float(1.0 / mus[1]) if len(mus) > 1 else None,
    )


def solve_e(op: ComposedOperator) -> Field:
    """Solution of A e = 1 on the interior with e = 0 at the boundary.

    Below alpha = 1 this is K e = W: the form of e against every tent is
    the tent's mass.  Positivity of e on the interior is a computed outcome,
    checked by the callers that scale e into a supersolution.
    """
    return op.solve_interior(np.ones(op.n - 2))


def energy(u: Field, op: ComposedOperator) -> float:
    """The Kirchhoff argument int |D_left u|^2 dx: the cell-midpoint rule in x of `apply_left`.

    The sum over cells of dx_m (D_left u)(um)^2, the tent derivatives' rule
    at every alpha; at identity psi below alpha = 1 it is u^T W (A u).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n,):
        raise ValueError(f"field length {u.shape} does not match grid size {op.n}")
    return float(energies(u[None], op)[0])


def energies(block: np.ndarray, op: ComposedOperator) -> np.ndarray:
    """The energy of each row of a block of fields, bitwise `energy` of that row.

    Each row's sum is its own dot product: a matrix-vector product of the
    whole block would sum in another order.
    """
    d_u = op.apply_left(block)
    dx = op.cell_widths
    return np.array([dx @ row for row in d_u * d_u])
