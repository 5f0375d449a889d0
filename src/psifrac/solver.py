"""Projected Picard iteration sandwiched between a sub/supersolution pair.

Each step freezes the Kirchhoff coefficient at the current iterate's
energy, solves the linear Dirichlet problem, and projects the result back
onto the order interval [phi, xi].  Starting from phi the iteration climbs
toward the minimal solution; `from_super=True` starts at xi and descends
toward the maximal one.  Whether the two limits agree is recorded per run,
never assumed.

Each step solves A v = reaction / M as K_int v = W (reaction / M), and
the residual M A u - reaction reads A u as (K u) / w: both keep A's
scaling, which the stopping rule's absolute 100 * tol assumes.

The iteration runs on a block: one row per pair (a sweep's lambda
values), all advanced by the same step.  Each step makes one solve for
every row still iterating (at alpha = 1 two cumulative sums along every
row) and does the elementwise work on the whole block; every
operator call returns for each row bitwise what it returns for that row
alone, so each row's report is the one its own loop would give.  A row
leaves the block once it converges, reaches max_iter or repeats bitwise
with a bound active (pinned), and its report holds the iterations it
computed; `solve_between` is the block of one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .analysis import SubSuperPair
from .core import Field, ProblemSpec
from .operators import ComposedOperator, energies, energy

__all__ = ["SolveReport", "picard_block", "solve_between", "comparison_check"]

STOPS = ("residual", "fixed point", "pinned", "max_iter")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a sandwiched solve.

    `stop` says why the iteration ended: "residual" (converged with the
    residual below 100 * tol), "fixed point" (converged on an iterate that
    repeats bitwise with no bound active, its residual at the rounding
    floor), "pinned" (an iterate that repeats bitwise with a bound active:
    not converged) or "max_iter"; "degenerate" for the zero interval.
    Each of the `iterations` made one solve.
    """

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
    stop: str

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")

    @property
    def projection_last10(self) -> int:
        return int(sum(self.projection_activity[-10:]))

    @property
    def pinned_nodes(self) -> int:
        """The projection count of the last iteration."""
        return self.projection_activity[-1] if self.projection_activity else 0


def _reaction(u_int: np.ndarray, phi_int: np.ndarray, lam, spec: ProblemSpec) -> np.ndarray:
    # singular term evaluated at the floor max(u, phi): the sub-solution
    # keeps the continuum quotient finite, the floor mirrors it discretely
    floored = np.maximum(u_int, phi_int)
    return lam * (spec.h(u_int) - floored ** (-spec.nu))


class _Block:
    """The iterates still iterating, one row each, with what their next step needs.

    Row j holds its pair's phi and xi, its lambda, its tolerance eps and
    the bounds phi - eps and xi + eps past which a solve counts as
    projected; the iterate's energy, M(E) and reaction serve its residual
    and next solve.
    """

    def __init__(self, op, spec, lams, pairs, u):
        self.op, self.spec = op, spec
        self.lam = np.array(lams, dtype=float)[:, None]
        self.phi = np.array([p.phi for p in pairs], dtype=float)
        self.xi = np.array([p.xi for p in pairs], dtype=float)
        self.eps = 1e-12 * (1.0 + np.abs(self.xi).max(axis=1, keepdims=True))
        self.below, self.above = self.phi - self.eps, self.xi + self.eps
        self.set(u)

    def set(self, u: np.ndarray) -> None:
        self.u = u
        self.energy = energies(u, self.op)
        self.m = self.spec.m(self.energy)
        self.reaction = _reaction(u[:, 1:-1], self.phi[:, 1:-1], self.lam, self.spec)

    def take(self, rows: np.ndarray) -> None:
        """Keep only the given rows."""
        for name in ("lam", "phi", "xi", "eps", "below", "above", "u", "energy", "m", "reaction"):
            setattr(self, name, getattr(self, name)[rows])

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear solves with M frozen at each iterate's energy, clipped to [phi, xi].

        Returns the clipped fields and, per row, the nodes the clip moved.
        """
        v = np.zeros(self.u.shape)
        v[:, 1:-1] = self.op.solve_form(self.op.w * (self.reaction / self.m[:, None]))
        outside = ((v < self.below) | (v > self.above)).sum(axis=1)
        return np.clip(v, self.phi, self.xi, out=v), outside

    def residuals(self) -> np.ndarray:
        """Sup over the interior of M(E(u)) A u - reaction, per row, A u = (K u) / w."""
        lhs = self.m[:, None] * (self.op.form(self.u) / self.op.w)
        return np.abs(lhs - self.reaction).max(axis=1)


class _Record:
    """One row's history, damping switch and stopping rule."""

    def __init__(self, tol: float):
        self.tol = tol
        self.residuals: list[float] = []
        self.activity: list[int] = []
        self.damped = 0
        self.damping_on = False
        self.converged = False
        self.stop = "max_iter"

    def add(self, it: int, outside: int, residual: float, step: float, u_max: float) -> bool:
        """Record iteration it; True once it converged or pinned."""
        self.activity.append(outside)
        self.residuals.append(residual)
        if self.damping_on:
            self.damped += 1
        # a bitwise fixed point that no bound clips solves the equation to
        # rounding, whose floor can exceed 100 * tol on fine grids
        fixed = step == 0.0 and outside == 0
        tol = self.tol
        if step <= tol * (1.0 + u_max) and (residual <= 100.0 * tol or fixed):
            self.converged = True
            self.stop = "residual" if residual <= 100.0 * tol else "fixed point"
            return True
        if step == 0.0:
            # a bound is active, and every later iteration would repeat this one
            self.stop = "pinned"
            return True
        if not self.damping_on and it % 50 == 0 and it >= 50:
            if self.residuals[-1] >= self.residuals[-50]:
                self.damping_on = True
        return False


def _report(rec, u, energy_u, m_u, pair, eps, from_super, verified) -> SolveReport:
    return SolveReport(
        converged=rec.converged,
        iterations=len(rec.residuals),
        residual_history=tuple(rec.residuals),
        u=u,
        sandwich_ok=bool(np.all(u >= pair.phi - eps) and np.all(u <= pair.xi + eps)),
        energy_final=energy_u,
        kirchhoff_coeff_final=m_u,
        positive=bool(np.all(u[1:-1] > 0.0)),
        projection_activity=tuple(rec.activity),
        damped_steps=rec.damped,
        override=not verified,
        from_super=from_super,
        stop=rec.stop,
    )


def picard_block(
    pairs: Sequence[SubSuperPair],
    spec: ProblemSpec,
    lams: Sequence[float],
    op: ComposedOperator,
    tol: float = 1e-10,
    max_iter: int = 400,
    from_super: bool = False,
    verified: bool = False,
) -> Iterator[tuple[int, SolveReport]]:
    """Solve for every pair at once: pair j with spec's data at lambda = lams[j].

    Yields (j, report) as each pair leaves the block, so the rows not yet
    yielded are the ones still iterating.  Each report is the one of
    `solve_between` on that pair alone: see there for the stopping rules.
    """
    if len(pairs) != len(lams):
        raise ValueError(f"{len(pairs)} pairs for {len(lams)} lambda values")
    for pair in pairs:
        if not pair.ordered():
            raise ValueError("pair is not ordered: phi must not exceed xi anywhere")
    rows = []
    for j, pair in enumerate(pairs):
        if float(np.abs(pair.xi - pair.phi).max()) == 0.0 and float(np.abs(pair.xi).max()) == 0.0:
            # degenerate interval: only possible when both fields vanish
            rec = _Record(tol)
            rec.stop = "degenerate"
            zero = np.zeros(spec.grid.n)
            yield j, _report(rec, zero, 0.0, float(spec.m(0.0)), pair, 0.0, from_super, verified)
        else:
            rows.append(j)
    if not rows:
        return
    start = [pairs[j].xi if from_super else pairs[j].phi for j in rows]
    block = _Block(op, spec, [lams[j] for j in rows], [pairs[j] for j in rows], np.array(start))
    records = [_Record(tol) for _ in rows]
    for it in range(1, max_iter + 1):
        v, outside = block.step()
        if any(rec.damping_on for rec in records):
            damping = np.array([rec.damping_on for rec in records])
            v[damping] = 0.5 * (v[damping] + block.u[damping])
        steps = np.abs(v - block.u).max(axis=1)
        block.set(v)
        residuals = block.residuals()
        u_max = np.abs(v).max(axis=1)
        keep = []
        for i, (rec, out, res, step, top) in enumerate(
            zip(records, outside.tolist(), residuals.tolist(), steps.tolist(), u_max.tolist())
        ):
            if not (rec.add(it, out, res, step, top) or it == max_iter):
                keep.append(i)
                continue
            j = rows[i]
            yield j, _report(
                rec, v[i].copy(), float(block.energy[i]), float(block.m[i]), pairs[j],
                float(block.eps[i, 0]), from_super, verified,
            )  # fmt: skip
        if not keep:
            return
        if len(keep) < len(records):
            block.take(np.array(keep))
            rows = [rows[i] for i in keep]
            records = [records[i] for i in keep]


def solve_between(
    pair: SubSuperPair,
    spec: ProblemSpec,
    op: ComposedOperator,
    tol: float = 1e-10,
    max_iter: int = 400,
    from_super: bool = False,
    verified: bool = False,
) -> SolveReport:
    """Iterate the projected Picard step until the step and the nonlinear residual are small.

    Convergence requires both the sup step below tol*(1+|u|) and the
    nonlinear residual below 100*tol, or an iterate that repeats bitwise
    with no projection active: that is a fixed point of the unprojected
    map, and its residual is rounding.  Non-convergence is reported, not
    raised.  Residual non-monotonicity over 50-step windows switches on
    damped averaging, which is counted in the report.  `verified=False`
    records that the caller skipped (or failed) pair verification.

    An iterate that repeats bitwise (step exactly 0) with a bound active is
    a fixed point of the projected map only, as below mu1 once u is pinned
    at phi: the solve stops there with stop "pinned", not converged.  This
    is `picard_block` with one pair.
    """
    ((_, report),) = picard_block(
        [pair], spec, [spec.lam], op, tol, max_iter, from_super, verified
    )
    return report


def comparison_check(
    theta1: Field,
    theta2: Field,
    spec: ProblemSpec,
    op: ComposedOperator,
) -> str:
    """Discrete comparison-principle check at p = 2.

    Evaluates the ordered-form hypothesis
    M(energy(theta1)) * B(theta1, w) <= M(energy(theta2)) * B(theta2, w)
    for every interior tent w, then checks theta1 <= theta2 pointwise.
    B(theta, w) is the row of K theta (`op.form`) at w's node; K's interior
    block K_int has an entrywise nonnegative inverse at the catalog corners.
    Returns "hypothesis-fails", "consistent", or "counterexample" (the
    hypothesis holds but the ordering does not: the discrete comparison
    principle fails for this pair).
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
    b1 = spec.m(energy(theta1, op)) * op.form(theta1)
    b2 = spec.m(energy(theta2, op)) * op.form(theta2)
    slack = 1e-9 * (1.0 + float(np.abs(b2).max()))
    if not np.all(b1 <= b2 + slack):
        return "hypothesis-fails"
    order_slack = 1e-9 * scale
    if np.all(theta1 <= theta2 + order_slack):
        return "consistent"
    return "counterexample"
