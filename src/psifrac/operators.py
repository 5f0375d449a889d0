"""The composed Kirchhoff differential operator, its eigenpair, and helpers.

The operator A realizes u -> D_right(D_left u) with homogeneous Dirichlet
data: its two boundary rows are unit rows.  All solves work on the
interior block, whose LU factorization is computed once at assembly and
reused; the stored objects are immutable afterwards.

At alpha = 1, D_left is the d/du stencil and A = -D1.D1: both have
bandwidth (2, 2) and are built from the stencil as their five diagonals,
with no n x n array.  They are multiplied diagonal by diagonal, and the
interior block is factored in LAPACK band storage (dgbtrf) whenever that
band with its fill, 2 kl + ku + 1 rows, is smaller than the dense block.

Below alpha = 1, A = W^-1 K is the weak form the verifier integrates
(Ervin & Roop 2006): K_ij = int (D_left w_i)(D_left w_j) du over the tents
w_i, piecewise linear in u = psi(x), by the cell-midpoint rule, and W the
tent masses.  K is symmetric positive definite, so A has a real spectrum;
it is full, built and factored dense.  The Kirchhoff energy reads D_left u
at the cell midpoints from the table of tent derivatives K is built from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dgbtrf, dgbtrs, dlauum
from scipy.special import gamma as gamma_fn

from .calculus import _BLOCK, OperatorMatrix, stencil_diagonals
from .core import Field, ProblemSpec, validate_spec

__all__ = [
    "ComposedOperator",
    "EigenPair",
    "assemble_composed",
    "principal_eigenpair",
    "solve_e",
    "energy",
    "tent_masses",
]

# A stored square matrix is a dense array, or a tuple of its diagonals
# (offset, entries) from the main one outward, entries in row order.


def _times(a, x: np.ndarray) -> np.ndarray:
    """a @ x, summed over the diagonals from the main one outward when a is stored by them."""
    if isinstance(a, np.ndarray):
        return a @ x
    (_, main), *rest = a
    y = main * x
    for d, v in rest:
        if d > 0:
            y[:-d] += v * x[d:]
        else:
            y[-d:] += v * x[:d]
    return y


def _dense(a) -> np.ndarray:
    """The dense matrix of a stored one."""
    if isinstance(a, np.ndarray):
        return a
    n = len(a[0][1])
    out = np.zeros((n, n))
    for d, v in a:
        i = np.arange(len(v)) + max(0, -d)
        out[i, i + d] = v
    return out


def _interior_band(a: tuple, m: int, kl: int, ku: int) -> np.ndarray:
    """The interior block of A, stored by diagonals, in LAPACK storage for dgbtrf.

    ab[kl + ku + i - j, j] = A[i + 1, j + 1] for -kl <= j - i <= ku, under
    kl rows of fill.
    """
    ab = np.zeros((2 * kl + ku + 1, m), order="F")
    for d, v in a:
        ab[kl + ku - d, max(d, 0) : m + min(d, 0)] = v[1 : 1 + m - abs(d)]
    return ab


@dataclass(frozen=True)
class _InteriorLU:
    """LU factors of the interior block, in band storage or dense."""

    bandwidth: tuple[int, int]
    banded: bool
    lu: np.ndarray
    piv: np.ndarray

    @classmethod
    def of(cls, a, n: int, kl: int, ku: int) -> _InteriorLU:
        """Factor the interior block of the stored A, of bandwidth (kl, ku).

        The band is factored when it is the smaller storage, with the kl
        rows of fill that LU with partial pivoting needs; else the block
        is factored dense.
        """
        m = n - 2
        if (2 * kl + ku + 1) * m < m * m:
            return cls.of_band(_interior_band(a, m, kl, ku), kl, ku)
        return cls((kl, ku), False, *lu_factor(_dense(a)[1:-1, 1:-1]))

    @classmethod
    def of_band(cls, ab: np.ndarray, kl: int, ku: int) -> _InteriorLU:
        """Factor a block given in LAPACK band storage, which is overwritten."""
        # outside the band every entry is an exact zero, so checking the
        # band is lu_factor's finiteness check
        lu, piv, info = dgbtrf(np.asarray_chkfinite(ab), kl, ku, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gbtrf")
        if info > 0:
            # a zero pivot is reported as lu_factor reports it, not raised
            warnings.warn(
                f"Diagonal number {info} is exactly zero. Singular matrix.", LinAlgWarning
            )
        return cls((kl, ku), True, lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if not self.banded:
            return lu_solve((self.lu, self.piv), rhs)
        kl, ku = self.bandwidth
        x, info = dgbtrs(self.lu, kl, ku, np.asarray_chkfinite(rhs), self.piv)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gbtrs")
        return x


@dataclass(frozen=True)
class ComposedOperator:
    """Dirichlet realization of D_right(D_left u) on the grid, in weak form below alpha = 1.

    Field indices stay aligned with grid nodes (unit boundary rows of A);
    interior solves use the cached factorization of the interior block.
    A is kept as the assembly built it: by its diagonals at alpha = 1,
    dense otherwise; `_left`, D_left at the energy's quadrature points, is
    the diagonals of D1 or the table of `_tent_operator`.  Products and
    solves go through the methods.  `a_full` and `interior_block()` build
    the dense matrices on request, for tests and inspection; no pipeline
    step asks for them.
    """

    spec: ProblemSpec
    _a: np.ndarray | tuple = field(repr=False, compare=False)
    _left: np.ndarray | tuple = field(repr=False, compare=False)
    _lu: _InteriorLU = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.spec.grid.n

    @property
    def a_full(self) -> OperatorMatrix:
        """A as a dense matrix, boundary rows included."""
        return OperatorMatrix(_dense(self._a))

    @property
    def factorization(self) -> str:
        """How the interior block is factored: "banded" or "dense"."""
        return "banded" if self._lu.banded else "dense"

    @property
    def interior_bandwidth(self) -> tuple[int, int]:
        """(kl, ku) of the interior block: (2, 2) at alpha = 1, full below."""
        return self._lu.bandwidth

    def interior_block(self) -> np.ndarray:
        return _dense(self._a)[1:-1, 1:-1]

    def solve_block(self, rhs_interior: np.ndarray) -> np.ndarray:
        """The interior block's solve: A_int^{-1} rhs, without boundary entries."""
        return self._lu.solve(rhs_interior)

    def apply_block(self, v: np.ndarray) -> np.ndarray:
        """The interior block's product: A_int v, without boundary entries."""
        if isinstance(self._a, np.ndarray):
            return self._a[1:-1, 1:-1] @ v
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
        return _times(self._a, np.asarray(f, dtype=float))

    def apply_left(self, f: Field) -> np.ndarray:
        """D_left f at the energy's quadrature points: nodes at alpha = 1, cell midpoints below."""
        f = np.asarray(f, dtype=float)
        if isinstance(self._left, tuple):
            return _times(self._left, f)
        return (f @ self._left) / np.sqrt(np.diff(self.spec.grid.u))


def tent_masses(u: np.ndarray) -> np.ndarray:
    """The masses int w_i du of the tents at every node, the half tents at both ends included."""
    ends = np.concatenate(([u[0]], u, [u[-1]]))
    return 0.5 * (ends[2:] - ends[:-2])


def _tent_operator(u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """W^-1 K for alpha < 1, with unit boundary rows, and the table K comes from.

    The tent at node i is c0 (u - u_{i-1})_+ + c1 (u - u_i)_+ +
    c2 (u - u_{i+1})_+, so its left derivative T_i, for every beta, is the
    same combination of the kernels (u - u_k)_+^(1-alpha) / Gamma(2-alpha).
    K_ij sums du_m T_i(um) T_j(um) over the cell midpoints um.  The table
    holds sqrt(du_m) T_i(um) in row i, column m, built in blocks of _BLOCK
    tents; its row n-1 is the half tent at T, so that A also acts on fields
    with u(T) != 0.  Its interior rows U over all cells but the last are
    upper-triangular: U U^T comes from LAPACK dlauum, into a new array, and
    the last cell's column s adds s s^T.
    """
    n = len(u)
    m = n - 2
    du = u[1:] - u[:-1]
    mid = 0.5 * (u[:-1] + u[1:])
    c0 = 1.0 / du[:-1]
    c2 = 1.0 / du[1:]
    c1 = -(c0 + c2)
    scale = np.sqrt(du) / gamma_fn(2.0 - alpha)
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
    table[-1, -1] = last = scale[-1] * (0.5 * du[-1]) ** (1.0 - alpha) / du[-1]
    s = inner[:, -1]
    # C-ordered arrays pass to LAPACK as their transposes: L = U^T is
    # lower-triangular, and L^T L = U U^T lands in L's lower triangle,
    # which is U's upper one; U's strict lower triangle stays zero
    k = dlauum(inner[:, :-1].T, lower=1, overwrite_c=0)[0].T
    dsyr(1.0, s, lower=1, a=k.T, overwrite_a=1)
    # K = k + k^T with the diagonal halved first, which is exact
    k.flat[:: m + 1] *= 0.5
    w = tent_masses(u)[1:-1]
    a = np.zeros((n, n))
    a_inner = a[1:-1, 1:-1]
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        a_inner[rows] = (k[rows] + k[:, rows].T) / w[rows, None]
    a[1:-1, -1] = s * last / w
    a[0, 0] = a[-1, -1] = 1.0
    return a, table


def assemble_composed(spec: ProblemSpec) -> ComposedOperator:
    """Build the composed operator for the problem data.

    At alpha = 1 the diagonals of D_left = D1 and of A = -D1.D1 come from
    the stencil.  Below, A is the tent form W^-1 K of `_tent_operator`, and
    the table it is built from gives D_left at the cell midpoints.  Rows 0
    and n-1 are unit rows enforcing u = 0 at the boundary.
    """
    bad = validate_spec(spec)
    if bad:
        raise ValueError("invalid problem spec: " + "; ".join(bad))
    n = spec.grid.n
    if spec.order.alpha == 1.0:
        left, a = stencil_diagonals(spec.grid)
        for _, v in (*left, *a):
            v.setflags(write=False)
        kl = ku = 2
    else:
        a, left = _tent_operator(spec.grid.u, spec.order.alpha)
        a.setflags(write=False)
        left.setflags(write=False)
        # a fractional interior block is full
        kl = ku = n - 3
    return ComposedOperator(spec, a, left, _InteriorLU.of(a, n, kl, ku))


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair of the composed operator with diagnostics.

    psi1 is sup-normalized with positive sign and zero boundary values.
    positive_interior reports whether every interior value is strictly
    positive: a computed outcome, which the subsolution refuses to raise
    into a power when it fails.
    """

    lambda1: float
    psi1: Field
    iterations: int
    residual: float
    positive_interior: bool

    @property
    def psi1_min_interior(self) -> float:
        return float(self.psi1[1:-1].min())


def _inverse_arnoldi(op: ComposedOperator, v: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k steps of Arnoldi on A^{-1} from v: the orthonormal basis and its Hessenberg.

    Gram-Schmidt is applied twice per step.  Stops early when the Krylov
    space becomes invariant, so the basis may have fewer than k columns.
    """
    basis = np.zeros((v.size, k))
    hess = np.zeros((k + 1, k))
    basis[:, 0] = v / np.linalg.norm(v)
    for j in range(k):
        w = op.solve_block(basis[:, j])
        for _ in range(2):
            c = basis[:, : j + 1].T @ w
            w -= basis[:, : j + 1] @ c
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        invariant = hess[j + 1, j] <= 1e-14 * np.abs(hess[: j + 1, j]).max()
        if invariant or j + 1 == k:
            return basis[:, : j + 1], hess[: j + 1, : j + 1]
        basis[:, j + 1] = w / hess[j + 1, j]
    raise ValueError("k must be positive")


def principal_eigenpair(
    op: ComposedOperator, tol: float = 1e-9, max_iter: int = 5000
) -> EigenPair:
    """Smallest-magnitude eigenpair by shift-invert Arnoldi on the cached LU.

    Builds up to 20 Arnoldi vectors of A^{-1} from the normalized ones
    vector, applying A^{-1} through the interior LU factorization.  The
    Ritz pair of largest |mu| gives lambda1 = 1/mu, its real part: the
    spectrum is real (below alpha = 1 A = W^-1 K is similar to the
    symmetric W^-1/2 K W^-1/2).  One inverse-iteration step from the Ritz
    vector then applies the stopping rule: its Rayleigh quotient differs from the Ritz value by at
    most tol (relative) and the eigen-residual is below 10 * tol * |lambda1|.
    Otherwise Arnoldi restarts from the improved vector.  max_iter bounds
    the total number of LU solves, Arnoldi steps included, and
    `iterations` reports that total.  Raises on non-convergence.
    """
    m = op.n - 2
    v = np.ones(m)
    lam = 0.0
    solves = 0
    converged = False
    while not converged and solves < max_iter:
        basis, hess = _inverse_arnoldi(op, v, min(20, m, max_iter - solves))
        solves += basis.shape[1]
        mus, ys = np.linalg.eig(hess)
        top = int(np.argmax(np.abs(mus)))
        lam = 1.0 / float(mus[top].real)
        v = basis @ ys[:, top].real
        if solves == max_iter:
            break
        w = op.solve_block(v)
        solves += 1
        w = w / np.abs(w).max()
        lam_new = float(w @ op.apply_block(w)) / float(w @ w)
        drift = abs(lam_new - lam)
        v = w
        lam = lam_new
        if drift <= tol * abs(lam):
            converged = float(np.abs(op.apply_block(v) - lam * v).max()) <= 10.0 * tol * abs(lam)
    if not converged:
        raise RuntimeError(
            f"shift-invert Arnoldi did not converge in {max_iter} LU solves "
            f"(last lambda {lam:.6g})"
        )
    # orient by the dominant component, then sup-normalize on the full grid
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    full = np.zeros(op.n)
    full[1:-1] = v / np.abs(v).max()
    resid = float(np.abs(op.apply_block(full[1:-1]) - lam * full[1:-1]).max())
    return EigenPair(
        lambda1=lam,
        psi1=full,
        iterations=solves,
        residual=resid,
        positive_interior=bool(np.all(full[1:-1] > 0.0)),
    )


def solve_e(op: ComposedOperator) -> Field:
    """Solution of A e = 1 on the interior with e = 0 at the boundary.

    Below alpha = 1 this is K e = W: the form of e against every tent is
    the tent's mass.  Positivity of e on the interior is a computed outcome,
    checked by the callers that scale e into a supersolution.
    """
    return op.solve_interior(np.ones(op.n - 2))


def energy(u: Field, op: ComposedOperator) -> float:
    """The Kirchhoff argument int |D_left u|^2 dx from the samples of `apply_left`.

    The trapezoid of the nodal D1 u at alpha = 1; below, the midpoint rule
    of the tent derivatives K is built from, u^T W (A u) at identity psi.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n,):
        raise ValueError(f"field length {u.shape} does not match grid size {op.n}")
    d_u = op.apply_left(u)
    if op.spec.order.alpha == 1.0:
        return float(np.trapezoid(d_u * d_u, op.spec.grid.x))
    return float(np.diff(op.spec.grid.x) @ (d_u * d_u))
