"""The composed Kirchhoff differential operator, its eigenpair, and helpers.

The full operator A is the right derivative applied to the left one, with
the two boundary rows replaced by unit rows (homogeneous Dirichlet).  All
solves work on the interior block, whose LU factorization is computed once
at assembly and reused; the stored objects are immutable afterwards.

At alpha = 1, D_left is the d/du stencil and A = -D1.D1: both have
bandwidth (2, 2) and are built from the stencil as their five diagonals,
with no n x n array.  They are multiplied diagonal by diagonal, and the
interior block is factored in LAPACK band storage (dgbtrf) whenever that
band with its fill, 2 kl + ku + 1 rows, is smaller than the dense block.
A fractional operator (alpha < 1) is full: built, multiplied and factored
dense.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .calculus import (
    OperatorMatrix,
    Side,
    hilfer_derivative_matrix,
    right_derivative_times,
    stencil_diagonals,
)
from .core import Field, ProblemSpec, validate_spec

__all__ = [
    "ComposedOperator",
    "EigenPair",
    "assemble_composed",
    "principal_eigenpair",
    "solve_e",
    "energy",
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
    """Dirichlet realization of D_right(D_left u) on the grid.

    Field indices stay aligned with grid nodes (unit boundary rows of A);
    interior solves use the cached factorization of the interior block.
    A and D_left are kept as the assembly built them: by their diagonals
    at alpha = 1, dense otherwise.  Products and solves go through the
    methods.  `a_full`, `d_left` and `interior_block()` build the dense
    matrices on request, for tests and inspection; no pipeline step asks
    for them.
    """

    spec: ProblemSpec
    _a: np.ndarray | tuple = field(repr=False, compare=False)
    _d_left: np.ndarray | tuple = field(repr=False, compare=False)
    _lu: _InteriorLU = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.spec.grid.n

    @property
    def a_full(self) -> OperatorMatrix:
        """A as a dense matrix, boundary rows included."""
        return OperatorMatrix(_dense(self._a))

    @property
    def d_left(self) -> OperatorMatrix:
        """The nodal left derivative as a dense matrix."""
        return OperatorMatrix(_dense(self._d_left))

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
        """The nodal left derivative D_left f."""
        return _times(self._d_left, np.asarray(f, dtype=float))


def assemble_composed(spec: ProblemSpec) -> ComposedOperator:
    """Build the composed operator for the problem data.

    At alpha = 1 the diagonals of D_left = D1 and of A = -D1.D1 come from
    the stencil.  Below, interior rows are (hilfer_right @ hilfer_left),
    with the right derivative's factors applied to the left matrix one at
    a time.  Rows 0 and n-1 are unit rows enforcing u = 0 at the boundary.
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
        left = hilfer_derivative_matrix(spec.grid, spec.psi, spec.order, Side.LEFT).entries
        a = right_derivative_times(spec.grid, spec.order, left)
        a[0, :] = 0.0
        a[0, 0] = 1.0
        a[-1, :] = 0.0
        a[-1, -1] = 1.0
        a.setflags(write=False)
        # a fractional interior block is full
        kl = ku = n - 3
    return ComposedOperator(spec, a, left, _InteriorLU.of(a, n, kl, ku))


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair of the composed operator with diagnostics.

    psi1 is sup-normalized with positive sign and zero boundary values.
    positive_interior reports whether every interior value is strictly
    positive; for alpha < 1 the discrete operator can lose positivity,
    which is reported here rather than asserted.
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
    Ritz pair of largest |mu| gives lambda1 = 1/mu; a complex Ritz value
    means the bottom of the spectrum is a complex pair, and that raises at
    once.  One inverse-iteration step from the Ritz vector then applies the
    stopping rule: its Rayleigh quotient differs from the Ritz value by at
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
        # real Ritz values come back with a zero imaginary part; rounding
        # can split a near-double real one by about sqrt(eps)
        if abs(mus[top].imag) > 1e-6 * abs(mus[top]):
            pair = 1.0 / mus[top]
            raise RuntimeError(
                f"the Ritz value of A^-1 of largest magnitude is complex after {solves} "
                f"LU solves (lambda {pair.real:.6g} +/- {abs(pair.imag):.6g}i): the bottom "
                "of the spectrum is a complex pair, so there is no real principal "
                "eigenpair at this discretization"
            )
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

    Positivity of e on the interior is checked and reported by the caller;
    for alpha = 1 it always holds, for alpha < 1 it is a diagnostic.
    """
    return op.solve_interior(np.ones(op.n - 2))


def energy(u: Field, op: ComposedOperator) -> float:
    """Trapezoid quadrature of |D_left u|^2 over the grid (the Kirchhoff argument)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n,):
        raise ValueError(f"field length {u.shape} does not match grid size {op.n}")
    return energy_of_derivative(op.apply_left(u), op)


def energy_of_derivative(d_u: np.ndarray, op: ComposedOperator) -> float:
    """The energy of u from its nodal left derivative d_u = D_left u.

    For callers that need d_u anyway: the quadrature is `energy`'s own, so
    the result is bitwise the same without a second matrix-vector product.
    """
    return float(np.trapezoid(d_u * d_u, op.spec.grid.x))
