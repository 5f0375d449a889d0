"""The composed Kirchhoff differential operator, its eigenpair, and helpers.

The full operator is the matrix product of the right and left fractional
derivative matrices with the two boundary rows replaced by unit rows
(homogeneous Dirichlet).  All solves work on the interior block, whose LU
factorization is computed once at assembly and reused; the stored objects
are immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .calculus import OperatorMatrix, Side, hilfer_derivative_matrix, right_derivative_times
from .core import Field, ProblemSpec, validate_spec

__all__ = [
    "ComposedOperator",
    "EigenPair",
    "assemble_composed",
    "principal_eigenpair",
    "solve_e",
    "energy",
]


@dataclass(frozen=True)
class ComposedOperator:
    """Dirichlet realization of D_right(D_left u) on the grid.

    a_full keeps field indices aligned with grid nodes (unit boundary
    rows); interior solves use the cached factorization of the interior
    block.
    """

    a_full: OperatorMatrix
    d_left: OperatorMatrix
    spec: ProblemSpec
    _lu: tuple = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.a_full.n

    def interior_block(self) -> np.ndarray:
        return self.a_full.entries[1:-1, 1:-1]

    def solve_interior(self, rhs_interior: np.ndarray) -> Field:
        """Solve A u = rhs on the interior with zero Dirichlet data."""
        rhs_interior = np.asarray(rhs_interior, dtype=float)
        if rhs_interior.shape != (self.n - 2,):
            raise ValueError(
                f"rhs length {rhs_interior.shape} does not match interior size {self.n - 2}"
            )
        out = np.zeros(self.n)
        out[1:-1] = lu_solve(self._lu, rhs_interior)
        return out

    def apply_full(self, f: Field) -> Field:
        return self.a_full.entries @ np.asarray(f, dtype=float)


def assemble_composed(spec: ProblemSpec) -> ComposedOperator:
    """Build the composed operator for the problem data.

    Interior rows are (hilfer_right @ hilfer_left), with the right
    derivative's factors applied to the left matrix one at a time; rows 0
    and n-1 are unit rows enforcing u = 0 at the boundary.
    """
    bad = validate_spec(spec)
    if bad:
        raise ValueError("invalid problem spec: " + "; ".join(bad))
    left = hilfer_derivative_matrix(spec.grid, spec.psi, spec.order, Side.LEFT)
    a = right_derivative_times(spec.grid, spec.order, left.entries)
    a[0, :] = 0.0
    a[0, 0] = 1.0
    a[-1, :] = 0.0
    a[-1, -1] = 1.0
    lu = lu_factor(a[1:-1, 1:-1])
    return ComposedOperator(OperatorMatrix(a), left, spec, lu)


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
        w = lu_solve(op._lu, basis[:, j])
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
    a_int = op.interior_block()
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
        w = lu_solve(op._lu, v)
        solves += 1
        w = w / np.abs(w).max()
        lam_new = float(w @ (a_int @ w)) / float(w @ w)
        drift = abs(lam_new - lam)
        v = w
        lam = lam_new
        if drift <= tol * abs(lam):
            converged = float(np.abs(a_int @ v - lam * v).max()) <= 10.0 * tol * abs(lam)
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
    resid = float(np.abs(a_int @ full[1:-1] - lam * full[1:-1]).max())
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
    return energy_of_derivative(op.d_left.entries @ u, op)


def energy_of_derivative(d_u: np.ndarray, op: ComposedOperator) -> float:
    """The energy of u from its nodal left derivative d_u = D_left u.

    For callers that need d_u anyway: the quadrature is `energy`'s own, so
    the result is bitwise the same without a second matrix-vector product.
    """
    return float(np.trapezoid(d_u * d_u, op.spec.grid.x))
