"""Projected Picard iteration sandwiched between a sub/supersolution pair.

Each step freezes the Kirchhoff coefficient at the current iterate's
energy, solves the linear Dirichlet problem, and projects the result back
onto the order interval [phi, xi].  Starting from phi the iteration climbs
toward the minimal solution; `from_super=True` starts at xi and descends
toward the maximal one.  Whether the two limits agree is recorded per run,
never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import SubSuperPair, TentBasis
from .core import Field, ProblemSpec
from .operators import ComposedOperator, energy

__all__ = ["SolveReport", "picard_step", "solve_between", "comparison_check"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a sandwiched solve."""

    converged: bool
    iterations: int
    residual_history: tuple[float, ...]
    u: Field
    sandwich_ok: bool
    energy_final: float
    kirchhoff_coeff_final: float
    positive: bool
    projection_activity: tuple[int, ...]
    damped_steps: int
    override: bool
    from_super: bool

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")

    @property
    def projection_last10(self) -> int:
        return int(sum(self.projection_activity[-10:]))


def _reaction(u_int: np.ndarray, phi_int: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    # singular term evaluated at the floor max(u, phi): the sub-solution
    # keeps the continuum quotient finite, the floor mirrors it discretely
    floored = np.maximum(u_int, phi_int)
    return spec.lam * (spec.h(u_int) - floored ** (-spec.nu))


def _residual(u: Field, m_u: float, reaction: np.ndarray, op: ComposedOperator) -> float:
    """Sup of M(E(u)) A u - reaction over the interior, given m_u = M(E(u)) and u's reaction."""
    lhs = m_u * (op.apply_full(u)[1:-1])
    return float(np.abs(lhs - reaction).max())


def picard_step(
    u_k: Field, pair: SubSuperPair, spec: ProblemSpec, op: ComposedOperator
) -> Field:
    """One frozen-coefficient solve followed by projection onto [phi, xi]."""
    u_k = np.asarray(u_k, dtype=float)
    if np.any(u_k[1:-1] <= 0.0):
        raise ValueError("iterate must be strictly positive on the interior")
    eps = 1e-12 * (1.0 + float(np.abs(pair.xi).max()))
    if np.any(u_k < pair.phi - eps) or np.any(u_k > pair.xi + eps):
        raise ValueError("iterate must lie in the order interval [phi, xi]")
    reaction = _reaction(u_k[1:-1], pair.phi[1:-1], spec)
    v = op.solve_interior(reaction / spec.m(energy(u_k, op)))
    return np.clip(v, pair.phi, pair.xi)


def solve_between(
    pair: SubSuperPair,
    spec: ProblemSpec,
    op: ComposedOperator,
    tol: float = 1e-10,
    max_iter: int = 400,
    from_super: bool = False,
    verified: bool = False,
) -> SolveReport:
    """Iterate picard_step until the step and the nonlinear residual are small.

    Convergence requires both the sup step below tol*(1+|u|) and the
    nonlinear residual below 100*tol, or an iterate that repeats bitwise
    with no projection active: that is a fixed point of the unprojected
    map, and its residual is rounding.  Non-convergence is reported, not
    raised.  Residual non-monotonicity over 50-step windows switches on
    damped averaging, which is counted in the report.  `verified=False`
    records that the caller skipped (or failed) pair verification.

    An iterate that repeats bitwise (step exactly 0) is a fixed point of
    the projected map, as it is below mu1 once u is pinned at phi.  Every
    later iteration would recompute the same solve, projection count and
    residual, so they are recorded without being recomputed; the report,
    its iteration count, residual history and damped steps included, is
    the same as if each iteration had been solved.
    """
    if not pair.ordered():
        raise ValueError("pair is not ordered: phi must not exceed xi anywhere")
    n = spec.grid.n
    span = float(np.abs(pair.xi - pair.phi).max())
    if span == 0.0 and float(np.abs(pair.xi).max()) == 0.0:
        # degenerate interval: only possible when both fields vanish
        return SolveReport(
            converged=False,
            iterations=0,
            residual_history=(),
            u=np.zeros(n),
            sandwich_ok=True,
            energy_final=0.0,
            kirchhoff_coeff_final=float(spec.m(0.0)),
            positive=False,
            projection_activity=(),
            damped_steps=0,
            override=not verified,
            from_super=from_super,
        )
    u = (pair.xi if from_super else pair.phi).copy()
    # M(E(u)) and the reaction of each iterate serve its residual and the
    # next iteration's solve
    energy_u = energy(u, op)
    m_u = spec.m(energy_u)
    reaction = _reaction(u[1:-1], pair.phi[1:-1], spec)
    eps = 1e-12 * (1.0 + float(np.abs(pair.xi).max()))
    residuals: list[float] = []
    activity: list[int] = []
    damped = 0
    damping_on = False
    converged = False
    step = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        if step == 0.0:
            # u repeated bitwise, and the solve, clip, count and residual are
            # functions of u alone (damping too: 0.5 * (u + u) == u)
            activity.append(activity[-1])
            residuals.append(residuals[-1])
        else:
            # the linear solve with M frozen at the iterate's energy
            v = op.solve_interior(reaction / m_u)
            activity.append(int(np.count_nonzero((v < pair.phi - eps) | (v > pair.xi + eps))))
            v = np.clip(v, pair.phi, pair.xi)
            if damping_on:
                v = 0.5 * (v + u)
            step = float(np.abs(v - u).max())
            u = v
            energy_u = energy(u, op)
            m_u = spec.m(energy_u)
            reaction = _reaction(u[1:-1], pair.phi[1:-1], spec)
            residuals.append(_residual(u, m_u, reaction, op))
        if damping_on:
            damped += 1
        # a bitwise fixed point that no bound clips solves the equation to
        # rounding, whose floor can exceed 100 * tol on fine grids
        fixed = step == 0.0 and activity[-1] == 0
        if step <= tol * (1.0 + float(np.abs(u).max())) and (
            residuals[-1] <= 100.0 * tol or fixed
        ):
            converged = True
            break
        if not damping_on and it % 50 == 0 and it >= 50:
            if residuals[-1] >= residuals[-50]:
                damping_on = True
    sandwich_ok = bool(np.all(u >= pair.phi - eps) and np.all(u <= pair.xi + eps))
    return SolveReport(
        converged=converged,
        iterations=it,
        residual_history=tuple(residuals),
        u=u,
        sandwich_ok=sandwich_ok,
        energy_final=energy_u,
        kirchhoff_coeff_final=float(m_u),
        positive=bool(np.all(u[1:-1] > 0.0)),
        projection_activity=tuple(activity),
        damped_steps=damped,
        override=not verified,
        from_super=from_super,
    )


def comparison_check(
    theta1: Field,
    theta2: Field,
    spec: ProblemSpec,
    op: ComposedOperator,
    basis: TentBasis | None = None,
) -> str:
    """Discrete comparison-principle check at p = 2.

    Evaluates the ordered-form hypothesis
    M(energy(theta1)) * B(theta1, w) <= M(energy(theta2)) * B(theta2, w)
    for every interior tent w, then checks theta1 <= theta2 pointwise.
    B is the form of `TentBasis.form`, W (A theta); below alpha = 1 its
    interior block W A_int = K_int has an entrywise nonnegative inverse at
    the catalog corners.  Returns "hypothesis-fails", "consistent", or
    "counterexample" (the hypothesis holds but the ordering does not: the
    discrete comparison principle fails for this pair).
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    n = spec.grid.n
    if theta1.shape != (n,) or theta2.shape != (n,):
        raise ValueError("fields must match the grid size")
    scale = 1.0 + max(float(np.abs(theta1).max()), float(np.abs(theta2).max()))
    for th in (theta1, theta2):
        if abs(th[0]) > 1e-12 * scale or abs(th[-1]) > 1e-12 * scale:
            raise ValueError("both fields must vanish at the boundary nodes")
    if basis is None:
        basis = TentBasis(spec)
    b1 = spec.m(energy(theta1, op)) * basis.form(theta1, op)
    b2 = spec.m(energy(theta2, op)) * basis.form(theta2, op)
    slack = 1e-9 * (1.0 + float(np.abs(b2).max()))
    if not np.all(b1 <= b2 + slack):
        return "hypothesis-fails"
    order_slack = 1e-9 * scale
    if np.all(theta1 <= theta2 + order_slack):
        return "consistent"
    return "counterexample"
