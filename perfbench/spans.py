"""In-memory span tracer for the benchmark's traced pass.

`Tracer.patch` replaces a public psifrac function in every module namespace
that holds it (or a method on its class, or an entry of a dict) with a
wrapper that records a span: name, start, end, parent span and the
invocation it belongs to.  `Tracer.restore` puts every original back.  No
psifrac source is changed; the spans are taken around the calls one module
makes into another, which is the layer boundary.

A span's self time is its duration minus the durations of its direct
children; the children of one span never overlap, because the program is
single-threaded.  Counts (eigen iterations, Picard iterations, dense
products) are read from the objects the wrapped functions return.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from psifrac.cli import SUBCOMMANDS

MODULES = ("calculus", "operators", "analysis", "solver", "cli")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(counts, args, kwargs, result) tallies work."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owners, attr: str, name: str, count=None) -> None:
        """Wrap `attr` once and install the wrapper on every owner holding the original."""
        original = _get(owners[0], attr)
        if original is None:
            raise AttributeError(f"cannot trace {name}: {attr} is gone; update perfbench/spans.py")
        wrapper = self.wrap(name, original, count)
        for owner in owners:
            if _get(owner, attr) is original:
                self._patches.append((owner, attr, original))
                _set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)

    def self_times(self) -> tuple[Counter, dict[str, float], dict[str, list[float]]]:
        """Calls, summed self time and every inclusive duration, per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            durations[name].append(end - start)
        return calls, self_s, durations

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, invocation."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# --- psifrac instrumentation ---------------------------------------------------


def _count_products(counts, args, kwargs, result) -> None:
    # hilfer_derivative_matrix(grid, psi, order, side): one O(n^3) product per
    # nonzero integral order, 2 n^3 flops each
    order = args[2] if len(args) > 2 else kwargs["order"]
    products = (order.g1 > 0.0) + (order.g2 > 0.0)
    counts["calculus.dense_products"] += products
    counts["calculus.gflop_computed"] += products * 2.0 * result.n**3 / 1e9


def _count_eigen(counts, args, kwargs, result) -> None:
    counts["operators.eigen_iterations"] += result.iterations


def _count_solve(counts, args, kwargs, result) -> None:
    counts["solver.solves"] += 1
    counts["solver.picard_iterations"] += result.iterations
    counts["solver.converged"] += bool(result.converged)
    counts["solver.damped_steps"] += result.damped_steps


# module functions traced where every layer calls them: "<module>.<function>" -> count
FUNCTIONS = {
    "calculus.hilfer_derivative_matrix": _count_products,
    "calculus.frac_integral_matrix": None,
    "operators.assemble_composed": None,
    "operators.principal_eigenpair": _count_eigen,
    "operators.solve_e": None,
    "operators.energy": None,
    "analysis.linear_majorant": None,
    "analysis.build_pair": None,
    "analysis.verify_weak_inequality": None,
    "analysis.empirical_mu2": None,
    "solver.solve_between": _count_solve,
    "cli.write_csv": None,
}
# methods traced on their class: span name -> (module, class, method)
METHODS = {
    "operators.ComposedOperator.solve_interior": ("operators", "ComposedOperator", "solve_interior"),
    "analysis.TentBasis": ("analysis", "TentBasis", "__init__"),
}
# cli.main is wrapped by the caller of the traced pass
SPANS = (*FUNCTIONS, *METHODS, "cli.main", *(f"cli.{sub}" for sub in SUBCOMMANDS))


def instrument(tracer: Tracer) -> None:
    """Patch the public functions of every psifrac layer where they are called."""
    modules = {name: importlib.import_module(f"psifrac.{name}") for name in MODULES}
    for name, count in FUNCTIONS.items():
        module, attr = name.split(".")
        home = modules[module]
        owners = (vars(home),) + tuple(vars(m) for m in modules.values() if m is not home)
        tracer.patch(owners, attr, name, count)
    for name, (module, cls, attr) in METHODS.items():
        tracer.patch((getattr(modules[module], cls),), attr, name)
    for sub in SUBCOMMANDS:
        tracer.patch((modules["cli"]._COMMANDS,), sub, f"cli.{sub}")


def _q(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, as name -> (value, unit)."""
    calls, self_s, durations = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        out[f"{name}.calls"] = (float(calls[name]), "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for module in MODULES:
        total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        out[f"{module}.self_s"] = (total, "s")
    c = tracer.counts
    solves = durations["solver.solve_between"]
    iterations = c["solver.picard_iterations"]
    out.update(
        {
            "calculus.dense_products": (c["calculus.dense_products"], "count"),
            "calculus.gflop_computed": (c["calculus.gflop_computed"], "GFLOP"),
            "operators.eigen_iterations": (c["operators.eigen_iterations"], "count"),
            "solver.solve_between.ms.p50": (1e3 * _q(solves, 50), "ms"),
            "solver.solve_between.ms.p95": (1e3 * _q(solves, 95), "ms"),
            "solver.picard_iterations": (iterations, "count"),
            "solver.s_per_iteration": (sum(solves) / iterations if iterations else 0.0, "s"),
            "solver.converged_frac": (
                c["solver.converged"] / c["solver.solves"] if c["solver.solves"] else 0.0,
                "1",
            ),
            "solver.damped_steps": (c["solver.damped_steps"], "count"),
        }
    )
    return out
