"""The composed Kirchhoff differential operator, its eigenpair, and helpers.

The operator realizes u -> D_right(D_left u) with homogeneous Dirichlet
data as the pair (K, W) of the weak form (Ervin & Roop 2006):
K_ij = int (D_left w_i)(D_left w_j) du over the tents w_i, piecewise
linear in u = psi(x), by the cell-midpoint rule, and W the tent masses.
`ComposedOperator.form` is K on the interior rows, `solve_form` solves the
interior block K_int, and `w` holds W's interior diagonal.  The verifier,
the comparison check and `empirical_mu2` read K u and W directly; the
eigen solve and Picard want A = W^-1 K and divide by w (or multiply a
right side by it) in place.  Neither K nor A is formed, and all solves
work with what the assembly stored, immutable afterwards.

K = V V^T is symmetric positive definite, so the pencil (K, W) has a
real spectrum; V, the table of tent derivatives at the cell midpoints, is
square and upper-triangular.  Its row 0 is zero: the value at node 0
enters no form, left derivative or energy, at any alpha.

At alpha = 1 the tent derivatives are steps, V is upper-bidiagonal and K
is the P1 stiffness matrix: only the cell widths and the tent masses are
kept, products are two difference passes and solves two cumulative sums.
Below alpha = 1 on a uniform grid (identity psi) the table's interior
rows are Toeplitz, so only row 1 and the corner are kept, O(n) numbers:
products are FFT convolutions with row 1, and solves FFT convolutions
with its power-series inverse.  On every other grid the n x (n - 1)
table is kept, built in blocks of tents from three kernel rows per
tent: products are two passes over it and solves two block triangular
solves with it, by the inverses of its diagonal blocks.  Every alpha
runs in numpy alone.

At every alpha the Kirchhoff energy is the cell-midpoint rule in x of
D_left u: the table's values below alpha = 1 (by FFT on a uniform
grid), and at alpha = 1 the difference quotients of u.

Forms, left derivatives, solves and energies also take a block of
fields, one per row (the Picard sweep's lambda values), and return for
each row bitwise what they return for that row alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _BLOCK, _is_uniform
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

# rows per diagonal block of the tent table's triangular solves
_TRI_BLOCK = 128


def _by_row(fn, x: np.ndarray) -> np.ndarray:
    """fn of a field, or of each row of a block.

    A product with a 2-D block is another BLAS call, not bitwise the one of each row.
    """
    return fn(x) if x.ndim == 1 else np.stack([fn(row) for row in x])


@dataclass(frozen=True)
class _Stiffness:
    """K at alpha = 1, V V^T the P1 stiffness, kept as the cell widths and tent masses.

    V is upper-bidiagonal, V[k, k] = 1/sqrt(du_k) and V[k, k+1] =
    -1/sqrt(du_{k+1}), so (K f)_i = s_{i-1} - s_i with s the slopes of f on
    the cells, the first f_1/du_0: a product is two difference passes and a
    solve two cumulative sums, elementwise along each row of a block.
    """

    du: np.ndarray
    w: np.ndarray
    span: float
    kind = "stiffness"

    def left(self, f: np.ndarray) -> np.ndarray:
        d = np.diff(f)
        d[..., 0] = f[..., 1]  # f_0 enters nothing, as below alpha = 1
        return d / self.du

    def form(self, f: np.ndarray) -> np.ndarray:
        s = self.left(f)
        return s[..., :-1] - s[..., 1:]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K_int x = b in slope form: the slopes s_k = s_0 - (b_1 + ... + b_k).

        x(T) = 0 fixes s_0 = sum_k du_k (b_1 + ... + b_k) / (u_{n-1} - u_0),
        and x is the cumulative sum of du * s without its last entry.
        """
        b = np.asarray_chkfinite(b)
        c = np.zeros(b.shape[:-1] + self.du.shape)
        np.cumsum(b, axis=-1, out=c[..., 1:])
        s = np.multiply(c, self.du)
        s0 = np.sum(s, axis=-1, keepdims=True) / self.span
        np.subtract(s0, c, out=s)
        s *= self.du
        return np.cumsum(s, axis=-1, out=s)[..., :-1]


def _diagonal_blocks(a: np.ndarray, s: int) -> np.ndarray:
    """The s x s diagonal blocks of each matrix of the stack a, as a writeable view."""
    k, m, _ = a.shape
    st = a.strides
    shape, strides = (k, m // s, s, s), (st[0], s * (st[1] + st[2]), st[1], st[2])
    return np.lib.stride_tricks.as_strided(a, shape, strides)


def _block_inverses(v: np.ndarray) -> np.ndarray:
    """The inverses of the upper-triangular v's diagonal blocks of _TRI_BLOCK rows, stacked.

    The last block is padded with the identity.  The blocks are inverted in
    place, all at once, by doubling: inv [[A, B], [0, C]] =
    [[A^-1, -A^-1 B C^-1], [0, C^-1]].  A zero on v's diagonal raises
    LinAlgError.
    """
    m = len(v)
    inv = np.zeros((-(-m // _TRI_BLOCK), _TRI_BLOCK, _TRI_BLOCK))
    for k, lo in enumerate(range(0, m, _TRI_BLOCK)):
        hi = min(lo + _TRI_BLOCK, m)
        inv[k, : hi - lo, : hi - lo] = v[lo:hi, lo:hi]
    pivots = _diagonal_blocks(inv, 1)[..., 0, 0]
    pivots[-1, m - _TRI_BLOCK * (len(inv) - 1) :] = 1.0
    if not np.all(pivots != 0.0):
        row = 1 + int(np.flatnonzero(pivots == 0.0)[0])
        raise np.linalg.LinAlgError(f"the tent table has a zero on its diagonal (row {row})")
    np.divide(1.0, pivots, out=pivots)
    s = 1
    while s < _TRI_BLOCK:
        pairs = _diagonal_blocks(inv, 2 * s)
        # B is read before its place takes -A^-1 B C^-1
        pairs[..., :s, s:] = -(pairs[..., :s, :s] @ pairs[..., :s, s:]) @ pairs[..., s:, s:]
        s *= 2
    return inv


def _k_solve(v: np.ndarray, inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b, K = V V^T with V = v upper-triangular, by block back-substitution.

    V y = b goes backwards and V^T x = y forwards, right-looking, block by
    block of _TRI_BLOCK rows with the inverses `inv` of V's diagonal
    blocks: both passes read V's rows right of the diagonal block.
    """
    m = len(v)
    x = b.copy()
    starts = range(0, m, _TRI_BLOCK)
    for k in reversed(starts):
        hi = min(k + _TRI_BLOCK, m)
        x[k:hi] = inv[k // _TRI_BLOCK, : hi - k, : hi - k] @ (x[k:hi] - v[k:hi, hi:] @ x[hi:])
    for k in starts:
        hi = min(k + _TRI_BLOCK, m)
        x[k:hi] = inv[k // _TRI_BLOCK, : hi - k, : hi - k].T @ x[k:hi]
        x[hi:] -= x[k:hi] @ v[k:hi, hi:]
    return x


@dataclass(frozen=True)
class _Tents:
    """K below alpha = 1, kept as the table of tent derivatives.

    V = table[1:] is square and upper-triangular: its rows are the interior
    tents and the half tent at T, its columns the cells, and K = V V^T.  `inv`
    holds the inverses of V's diagonal blocks, which K's solves use.  The
    interior block K_int is K's leading block, so K_int x = b is K z = (b, 0)
    less the multiple of g = K^-1 e_last that zeroes z's last entry.
    """

    table: np.ndarray
    w: np.ndarray
    root_du: np.ndarray
    inv: np.ndarray
    g: np.ndarray
    kind = "tent table"

    def left(self, f: np.ndarray) -> np.ndarray:
        return _by_row(lambda r: r @ self.table, f) / self.root_du

    @classmethod
    def of(cls, table: np.ndarray, w: np.ndarray, du: np.ndarray) -> _Tents:
        # the table is checked once, as a dense LU checks its matrix
        v = np.asarray_chkfinite(table)[1:]
        inv = _block_inverses(v)
        inv.setflags(write=False)
        last = np.append(np.zeros(len(v) - 1), 1.0)
        return cls(table, w, np.sqrt(du), inv, _k_solve(v, inv, last))

    def form(self, f: np.ndarray) -> np.ndarray:
        return _by_row(lambda r: self.table[1:-1] @ (r @ self.table), f)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _by_row(self._solve, np.asarray_chkfinite(b))

    def _solve(self, b: np.ndarray) -> np.ndarray:
        z = _k_solve(self.table[1:], self.inv, np.append(b, 0.0))
        return z[:-1] - (z[-1] / self.g[-1]) * self.g[:-1]


def _series_inverse(r: np.ndarray) -> np.ndarray:
    """s with r s = 1 + O(z^m) as power series, m = len(r), by Newton doubling.

    If r s_k = 1 + z^k E(z), then s_2k = s_k (1 - z^k E) mod z^2k: the
    terms k .. 2k - 1 of r s_k are E's first k, and the new terms are s_k
    E's first k, negated.  Both products are real FFTs of length 2k, so
    the whole costs O(m log m).
    """
    s = np.array([1.0 / r[0]])
    k = 1
    while k < len(r):
        s_hat = np.fft.rfft(s, 2 * k)
        # the terms of r s_k past 2k wrap onto those below k, which are not read
        e = np.fft.irfft(np.fft.rfft(r[: 2 * k], 2 * k) * s_hat, 2 * k)[k:]
        s = np.concatenate((s, -np.fft.irfft(s_hat * np.fft.rfft(e, 2 * k), 2 * k)[:k]))
        k *= 2
    return s[: len(r)]


def _lower(a_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T(a)^T x, the convolution a * x, from a's transform `a_hat` of length 2 m.

    T(a) is the upper-triangular Toeplitz matrix of the m entries of a; x
    has at most m entries, zero-padded, or is a block of such rows.  No
    term of the first m wraps.
    """
    m = len(a_hat) - 1
    return np.fft.irfft(a_hat * np.fft.rfft(x, 2 * m), 2 * m)[..., :m]


def _upper(a_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T(a) x, the correlation of a with x, as `_lower` takes its arguments."""
    m = len(a_hat) - 1
    return np.fft.irfft(a_hat.conj() * np.fft.rfft(x, 2 * m), 2 * m)[..., :m]


def _toeplitz_k_solve(s_hat: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(T(r) T(r)^T)^-1 c = T(s)^T T(s) c, s = r's series inverse, by `_upper` then `_lower`."""
    return _lower(s_hat, _upper(s_hat, c))


@dataclass(frozen=True)
class _Toeplitz:
    """K below alpha = 1 on a uniform grid, kept as the tent table's row 1 and corner.

    There the kernel at a cell midpoint depends only on how many cells lie
    between it and the kernel's node: V = table[1:] is T(r), the
    upper-triangular Toeplitz matrix of r = table[1], but for its corner,
    the half tent h at T.  K_int, made of the interior rows alone, is the
    leading block of T(r) T(r)^T, whose inverse is T(s)^T T(s) with s the
    series inverse of r, so K_int x = b eliminates the unknown at T with
    g = T(s)^T T(s) e_last as `_Tents` does; h enters only f @ table.
    Products and solves are pairs of real FFT convolutions, with the
    transforms `r_hat` and `s_hat` of r and s.
    """

    r_hat: np.ndarray
    s_hat: np.ndarray
    h: float
    w: np.ndarray
    root_du: np.ndarray
    g: np.ndarray
    kind = "toeplitz"

    @classmethod
    def of(cls, r: np.ndarray, h: float, w: np.ndarray, du: np.ndarray) -> _Toeplitz:
        # the symbol is checked once, as `_Tents.of` checks its table
        np.asarray_chkfinite(np.append(r, h))
        if r[0] == 0.0:
            raise np.linalg.LinAlgError("the tent table has a zero on its diagonal (row 1)")
        r_hat, s_hat = (np.fft.rfft(a, 2 * len(r)) for a in (r, _series_inverse(r)))
        g = _toeplitz_k_solve(s_hat, np.append(np.zeros(len(r) - 1), 1.0))
        for a in (r_hat, s_hat, g):
            a.setflags(write=False)
        return cls(r_hat, s_hat, float(h), w, np.sqrt(du), g)

    def _times_table(self, f: np.ndarray) -> np.ndarray:
        """f @ table: T(r)^T of the interior values, and h f(T) at the last cell."""
        y = _lower(self.r_hat, f[..., 1:-1])
        y[..., -1] += f[..., -1] * self.h
        return y

    def left(self, f: np.ndarray) -> np.ndarray:
        return self._times_table(f) / self.root_du

    def form(self, f: np.ndarray) -> np.ndarray:
        return _upper(self.r_hat, self._times_table(f))[..., :-1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        z = _toeplitz_k_solve(self.s_hat, np.asarray_chkfinite(b))
        return z[..., :-1] - (z[..., -1:] / self.g[-1]) * self.g[:-1]


@dataclass(frozen=True)
class ComposedOperator:
    """Dirichlet realization of D_right(D_left u) on the grid, as the pair (K, W).

    `form` is K on the interior rows, the form of a field against every
    interior tent, and `w` the interior tent masses; A = W^-1 K is never
    formed, and a caller that wants it divides by `w` (or multiplies a
    right side by it) where it says so.  `_a` holds K as the assembly
    built it, with what its solves use: the cell widths and tent masses at
    alpha = 1; below, the tent table's row 1 and corner on a uniform grid,
    and the whole table on any other.
    """

    spec: ProblemSpec
    _a: _Stiffness | _Toeplitz | _Tents = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.spec.grid.n

    @property
    def w(self) -> np.ndarray:
        """The interior tent masses, W's diagonal."""
        return self._a.w

    @functools.cached_property
    def cell_widths(self) -> np.ndarray:
        """The cell widths of the grid in x, which weigh the energy's cells."""
        dx = np.diff(self.spec.grid.x)
        dx.setflags(write=False)
        return dx

    @property
    def factorization(self) -> str:
        """How interior solves are made: "stiffness" (cumulative sums), "toeplitz"
        (FFTs with row 1's series inverse) or "tent table" (K's factor); the
        interior block is tridiagonal for the first and full for the others."""
        return self._a.kind

    def form(self, f: Field) -> np.ndarray:
        """K f on the interior rows: the form of f against every interior tent.

        f holds all n nodal values, or is a block of such fields, one per
        row (each row's form bitwise its own); f_0 enters nothing.
        """
        return self._a.form(np.asarray(f, dtype=float))

    def solve_form(self, b: np.ndarray) -> np.ndarray:
        """K_int^-1 b, without boundary entries: the interior field whose form is b.

        b may be a block with one right-hand side per row; row j of the
        result is bitwise the solve of row j alone.
        """
        return self._a.solve(b)

    def solve_interior(self, rhs_interior: np.ndarray) -> Field:
        """Solve A u = rhs on the interior with zero Dirichlet data: K_int u = W rhs."""
        rhs_interior = np.asarray(rhs_interior, dtype=float)
        if rhs_interior.shape != (self.n - 2,):
            raise ValueError(
                f"rhs length {rhs_interior.shape} does not match interior size {self.n - 2}"
            )
        out = np.zeros(self.n)
        out[1:-1] = self.solve_form(self.w * rhs_interior)
        return out

    def apply_left(self, f: Field) -> np.ndarray:
        """D_left f at the cell midpoints: difference quotients at alpha = 1, the table below.

        Of a field, or of each row of a block (bitwise the row's own); f_0
        enters nothing.
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
    holds sqrt(du_m) T_i(um) in row i, column m; row 0 is zero and row n-1
    is the half tent at T, so that K also acts on fields with u(T) != 0.
    Tent i vanishes on the cells before cell i-1, so rows 1 .. n-1 are
    upper-triangular.
    """
    n = len(u)
    # allocated first: a table too large fails here, before any O(n) work
    return _fill_tents(np.zeros((n, n - 1)), u, alpha, n - 2)


def _symbol(u: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The tent table's row 1 and its corner, the half tent at T, by `_fill_tents`' block loop.

    On a uniform grid they are all of the table: row i is row 1 shifted
    i - 1 cells right.
    """
    rows = _fill_tents(np.zeros((3, len(u) - 1)), u, alpha, 1)
    return rows[1], rows[2, -1]


def _fill_tents(table: np.ndarray, u: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """Write the tents at nodes 1 .. m and the half tent at T into the zeroed table.

    The tents go in blocks of _BLOCK, each tent from three kernel rows
    over the cells where it does not vanish.  Returns the table.
    """
    du = u[1:] - u[:-1]
    mid = 0.5 * (u[:-1] + u[1:])
    c0 = 1.0 / du[:-1]
    c2 = 1.0 / du[1:]
    c1 = -(c0 + c2)
    scale = np.sqrt(du) / math.gamma(2.0 - alpha)
    inner = table[1:-1]
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, min(lo + _BLOCK, m))
        # kernels based at u_lo .. u_{lo+_BLOCK+1} at the midpoints of cells lo on;
        # the tents of this block vanish on the cells before
        t = mid[lo:] - u[lo : rows.stop + 2, None]
        np.maximum(t, 0.0, out=t)
        np.power(t, 1.0 - alpha, out=t, where=t > 0.0)
        tents = c0[rows, None] * t[:-2] + c1[rows, None] * t[1:-1] + c2[rows, None] * t[2:]
        tents *= scale[lo:]
        inner[rows, lo:] = tents
    table[-1, -1] = scale[-1] * (0.5 * du[-1]) ** (1.0 - alpha) / du[-1]
    return table


def assemble_composed(spec: ProblemSpec) -> ComposedOperator:
    """Build the composed operator for the problem data.

    K is the tent form at every alpha.  At alpha = 1 it is kept as the
    cell widths and tent masses (K the P1 stiffness).  Below, on a uniform
    grid, as the table's row 1 and corner from `_symbol`, and on any
    other grid as the table of `_tent_table`; either also gives D_left at
    the cell midpoints.  Only the interior rows are kept: u = 0 at both
    ends.
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
    if _is_uniform(u):
        return ComposedOperator(spec, _Toeplitz.of(*_symbol(u, spec.order.alpha), w, du))
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
    (None after one Lanczos step): by interlacing at least the pencil's
    second eigenvalue, and equal to it once the pass has resolved it.
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
        """residual / (lambda2 - lambda1): an estimate of psi1's error, not a bound.

        The gap theorem bounds psi1's W-angle by the W-norm residual over the
        gap (Parlett, ch. 11); `residual` is the sup norm's.
        """
        gap = 0.0 if self.lambda2 is None else abs(self.lambda2 - self.lambda1)
        return self.residual / gap if gap else None


def _inverse_lanczos(op: ComposedOperator, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """At most k >= 1 Lanczos steps on A^{-1}, self-adjoint in <x, y>_W = x^T W y.

    Starts from the interior nodes: positive, so the pass reaches psi1,
    with parts of both parities about the midpoint.  Returns the dominant
    Ritz vector x = Q_j y and the Ritz values, decreasing; only the lower
    triangle of the tridiagonal T_j is filled.  The dominant Ritz pair
    (mu, y), |y| = 1, leaves the Lanczos residual y_j r, r = beta_j q_{j+1},
    so w = A^{-1} x, sup-normalized, has A w - w / mu of about
    ||r||_inf |y_j| / (mu^2 ||x||_inf).  The pass stops once that is at
    most tol / mu, or when the Krylov space becomes invariant.  Each step
    W-orthogonalizes twice against every earlier vector.
    """
    basis = np.zeros((op.n - 2, k))
    tri = np.zeros((k, k))
    start = op.spec.grid.x[1:-1]
    basis[:, 0] = start / np.sqrt(start @ (op.w * start))
    for j in range(k):
        r = op.solve_form(op.w * basis[:, j])
        h = np.zeros(j + 1)
        for _ in range(2):
            c = basis[:, : j + 1].T @ (op.w * r)
            r -= basis[:, : j + 1] @ c
            h += c
        tri[j, j] = h[j]
        beta = np.sqrt(r @ (op.w * r))
        mus, ys = np.linalg.eigh(tri[: j + 1, : j + 1])
        mus, y = mus[::-1], ys[:, -1]
        x = basis[:, : j + 1] @ y
        est = np.abs(r).max() * abs(y[j]) / (mus[0] ** 2 * np.abs(x).max())
        if j + 1 == k or est <= tol / mus[0] or beta <= 1e-14 * np.abs(h).max():
            return x, mus
        tri[j + 1, j] = beta
        basis[:, j + 1] = r / beta


def principal_eigenpair(op: ComposedOperator, tol: float = 1e-9) -> EigenPair:
    """Smallest eigenpair of the pencil (K, W) by one pass of shift-invert Lanczos.

    Builds at most k = min(20, n - 2) Lanczos vectors of A^{-1} from the
    interior nodes, A^{-1} x = K_int^{-1} (W x) by `solve_form`, and stops
    once the dominant Ritz pair's residual bound is a tenth of the
    acceptance threshold.  That pair approximates (1/lambda1, psi1).  One
    inverse-iteration step from the Ritz vector and the pencil's Rayleigh
    quotient v^T K v / v^T W v give the pair, accepted if its
    eigen-residual ||A v - lambda1 v||_inf is at most 10 * tol * |lambda1|.
    `iterations` counts the interior solves, the Lanczos steps plus that
    one step: at most k + 1.  Raises RuntimeError otherwise, with the
    residual and its threshold.
    """
    x, mus = _inverse_lanczos(op, min(20, op.n - 2), tol)
    w = op.solve_form(op.w * x)
    solves = len(mus) + 1
    # sup-normalize, then orient by the dominant component
    v = w / np.abs(w).max()
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    psi1 = np.concatenate(([0.0], v, [0.0]))
    kv = op.form(psi1)
    lam = float(v @ kv) / float(v @ (op.w * v))
    resid = float(np.abs(kv / op.w - lam * v).max())
    threshold = 10.0 * tol * abs(lam)
    if not resid <= threshold:
        raise RuntimeError(
            f"shift-invert Lanczos did not converge in {solves} interior solves: "
            f"residual {resid:.3g} above {threshold:.3g} (lambda {lam:.6g})"
        )
    return EigenPair(
        lambda1=lam,
        psi1=psi1,
        iterations=solves,
        residual=resid,
        positive_interior=bool(np.all(v > 0.0)),
        threshold=threshold,
        lambda2=float(1.0 / mus[1]) if len(mus) > 1 else None,
    )


def solve_e(op: ComposedOperator) -> Field:
    """Solution of A e = 1 on the interior with e = 0 at the boundary.

    That is K e = W: the form of e against every tent is the tent's
    mass.  Positivity of e on the interior is a computed outcome,
    checked by the callers that scale e into a supersolution.
    """
    return op.solve_interior(np.ones(op.n - 2))


def energy(u: Field, op: ComposedOperator) -> float:
    """The Kirchhoff argument int |D_left u|^2 dx: the cell-midpoint rule in x of `apply_left`.

    The sum over cells of dx_m (D_left u)(um)^2, the tent derivatives' rule
    at every alpha; at identity psi below alpha = 1 it is u^T K u.
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
