"""Mixed-strategy solver for chance-constrained stochastic optimal control.

A pure policy that must respect a risk bound usually leaves slack; this
package closes the resulting duality gap by randomizing once, at time
zero, over at most two pure policies found through Lagrangian duality.
There is one risk channel: a policy's cost and risk, the bound and the
multiplier are plain floats. Backends own the bound and answer
multiplier queries (finite candidate sets, finite-horizon MDPs via
dynamic programming, and linear-Gaussian obstacle avoidance via a
mixed-binary program); the dual layer is backend-agnostic.
"""

from .core import (
    CostVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    PureCandidate,
    SolverLimitError,
    lagrangian_value,
    mix_costs,
    wilson_ci_99,
)
from .dual import (
    OptimalityReport,
    check_optimality,
    recover_mixture_scalar,
    solve_mixed_scalar,
)

__all__ = [
    "CostVector",
    "InfeasibleProblemError",
    "InvalidInputError",
    "LagrangianOracle",
    "MixedControlError",
    "MixedSolution",
    "OptimalityReport",
    "PureCandidate",
    "SolverLimitError",
    "check_optimality",
    "lagrangian_value",
    "mix_costs",
    "recover_mixture_scalar",
    "solve_mixed_scalar",
    "wilson_ci_99",
]

__version__ = "0.1.0"
