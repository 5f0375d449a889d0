"""psifrac: discrete psi-Hilfer fractional calculus on an interval and a
sub/supersolution solver for the singular fractional Kirchhoff problem.

The package splits into:

- `core`      domain types and the psi / Kirchhoff / nonlinearity catalogs
- `calculus`  fractional integral and derivative matrices with oracles
- `operators` the composed Dirichlet operator, eigenpair, and e-problem
- `analysis`  majorant, threshold, sub/supersolution pair, verification
- `solver`    projected Picard iteration inside the order interval
- `cli`       the `psifrac` command-line harness
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    Majorant,
    SubSuperPair,
    VerifyReport,
    build_pair,
    build_subsolution,
    build_supersolution,
    empirical_mu2,
    linear_majorant,
    nonexistence_threshold,
    verify_weak_inequality,
    zeta_lambda,
)
from .calculus import (
    OperatorMatrix,
    Side,
    frac_integral_matrix,
    hilfer_derivative_matrix,
    hilfer_power_oracle,
)
from .core import (
    Field,
    FractionalOrder,
    Grid,
    KirchhoffFn,
    Nonlinearity,
    ProblemSpec,
    PsiFunction,
    make_spec,
    validate_spec,
)
from .operators import (
    ComposedOperator,
    EigenPair,
    assemble_composed,
    energy,
    principal_eigenpair,
    solve_e,
)
from .solver import SolveReport, comparison_check, picard_block, solve_between

__all__ = [
    "__version__",
    "Field",
    "FractionalOrder",
    "PsiFunction",
    "Grid",
    "KirchhoffFn",
    "Nonlinearity",
    "ProblemSpec",
    "make_spec",
    "validate_spec",
    "Side",
    "OperatorMatrix",
    "frac_integral_matrix",
    "hilfer_derivative_matrix",
    "hilfer_power_oracle",
    "ComposedOperator",
    "EigenPair",
    "assemble_composed",
    "principal_eigenpair",
    "solve_e",
    "energy",
    "Majorant",
    "SubSuperPair",
    "VerifyReport",
    "linear_majorant",
    "zeta_lambda",
    "build_subsolution",
    "build_supersolution",
    "build_pair",
    "verify_weak_inequality",
    "nonexistence_threshold",
    "empirical_mu2",
    "SolveReport",
    "picard_block",
    "solve_between",
    "comparison_check",
]
