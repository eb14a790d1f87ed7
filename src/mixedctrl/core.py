"""Shared value types for the mixed-strategy control solver.

A problem has one risk channel: each policy has a cost c0 and a risk
c1, and the risk must stay at or below one bound. All three, and the
multiplier on the risk, are plain floats. A problem backend exposes a
Lagrangian oracle that owns the bound: given a nonnegative multiplier
it returns one pure policy that minimizes ``c0 + lam * (c1 - bound)``
over the backend's policy class. Everything downstream (the chord dual
search, mixture recovery, optimality checking) is written against that
interface, so the structured types here are deliberately small and
immutable, and a mixture stores only its components: its aggregate, its
multiplier and its saving are derived from them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import betainc

# Default tolerances. Probability-style sums are checked at PROB_TOL; a
# mixing weight may round below zero by at most MIX_TOL.
PROB_TOL = 1e-9
MIX_TOL = 1e-12


class MixedControlError(Exception):
    """Base class for solver errors."""


class InvalidInputError(MixedControlError):
    """Malformed problem data or arguments violating a precondition."""


class InfeasibleProblemError(MixedControlError):
    """No policy (pure or mixed) satisfies the risk bound."""


class NonMonotoneOracleError(MixedControlError):
    """Oracle returned risks that increase with the multiplier."""


class SolverLimitError(MixedControlError):
    """A solver stopped at a work limit before it could certify its answer."""


class InvalidPolicyError(MixedControlError):
    """Policy leaves a reachable state without an admissible action."""


@dataclass(frozen=True)
class CostVector:
    """Objective value c0 and the risk c1 of one policy or mixture."""

    c0: float
    c1: float

    def __post_init__(self):
        for name in ("c0", "c1"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class PureCandidate:
    """One pure policy plus its exact cost vector.

    ``policy`` is an opaque backend handle (an index, a lookup table, a
    control plan); the solver layers never inspect it.
    """

    policy: object
    cost: CostVector


@dataclass(frozen=True, eq=False)
class MixedSolution:
    """Randomized mixture over pure candidates, chosen once up front.

    Only the components are given. ``aggregate`` is their weighted cost;
    ``dual``, the multiplier at which the first (risky) and the last
    (safe) component are both Lagrangian-minimal, is the slope of the
    chord between them floored at 0, or 0 for one component or equal
    risks; ``gap_estimate`` is the mixture's saving over the last one.
    """

    components: tuple[tuple[PureCandidate, float], ...]
    aggregate: CostVector = field(init=False)
    dual: float = field(init=False)
    gap_estimate: float = field(init=False)

    def __post_init__(self):
        if not self.components:
            raise InvalidInputError("mixture needs at least one component")
        # one risk bound: an optimal mixture needs at most two pure policies
        if len(self.components) > 2:
            raise InvalidInputError(f"{len(self.components)} components, at most 2 allowed")
        # mix_costs also rejects negative weights and weights that do not sum to one
        aggregate = mix_costs([(cand.cost, p) for cand, p in self.components])
        first, last = self.components[0][0].cost, self.components[-1][0].cost
        dual = 0.0
        if first.c1 != last.c1:
            slope = (last.c0 - first.c0) / (first.c1 - last.c1)
            if not math.isfinite(slope):
                raise InvalidInputError(
                    f"endpoint risks {first.c1} and {last.c1} differ by {first.c1 - last.c1}, "
                    "a gap that gives no finite multiplier"
                )
            dual = max(0.0, slope)
        object.__setattr__(self, "aggregate", aggregate)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "gap_estimate", max(0.0, last.c0 - aggregate.c0))

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.components)


class LagrangianOracle(ABC):
    """Backend interface: pointwise minimizer of the penalized cost.

    Implementations must be deterministic (fixed tie-breaking) and
    monotone: raising the multiplier never raises the returned risk.
    """

    risk_bound: float
    # True when an answer's risk only bounds its failure probability from above
    risk_is_upper_bound = False

    @abstractmethod
    def query(self, lam: float) -> PureCandidate:
        """Return a minimizer of ``c0 + lam * (c1 - risk_bound)``.

        A multiplier that is negative or not finite lies outside the
        dual's domain and raises InvalidInputError (`check_multiplier`).
        """

    @abstractmethod
    def evaluate(self, policy: object) -> CostVector:
        """Re-evaluate a policy's exact cost vector from scratch.

        The optimality checker uses it to confirm that each component's
        claimed cost matches its policy.
        """


def read_component(ref: object, out_dir: Path) -> tuple[Path, list[str]]:
    """Path and lines of the component file that a report names by ``ref``."""
    if not isinstance(ref, str):
        raise InvalidInputError(f"component policy reference {ref!r} is not a file name")
    path = out_dir / ref
    try:
        return path, path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read component {path}: {exc}") from exc


def mix_costs(components: Sequence[tuple[CostVector, float]]) -> CostVector:
    """Probability-weighted sum of cost vectors.

    Weights must be nonnegative and sum to one within PROB_TOL.
    """
    if not components:
        raise InvalidInputError("mix_costs needs at least one component")
    probs = [float(p) for _, p in components]
    if min(probs) < -MIX_TOL:
        raise InvalidInputError(f"negative mixing weight in {probs}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidInputError(f"mixing weights sum to {total}, expected 1")
    c0 = math.fsum(cost.c0 * p for (cost, _), p in zip(components, probs))
    c1 = math.fsum(cost.c1 * p for (cost, _), p in zip(components, probs))
    return CostVector(c0, c1)


def check_multiplier(lam: float) -> float:
    """``lam`` as a float; InvalidInputError unless it is finite and nonnegative."""
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise InvalidInputError(f"multiplier must be finite and nonnegative, got {lam}")
    return lam


def lagrangian_value(cost: CostVector, lam: float, bound: float) -> float:
    """Penalized cost ``c0 + lam * (c1 - bound)``."""
    return cost.c0 + lam * (cost.c1 - bound)


# two-sided 99% normal quantile
_Z99 = 2.5758293035489004


def wilson_ci_99(successes: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial rate."""
    if n <= 0:
        raise InvalidInputError("need at least one sample")
    ph = successes / n
    z2 = _Z99 * _Z99
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / denom
    half = _Z99 * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class MonteCarloCheck:
    """Failures and mean cost in ``n_rollouts`` sampled rollouts of a policy or
    mixture: the report's ``monte_carlo`` block, which `cli.build_report` writes."""

    n_rollouts: int
    failures: int
    cost_mean: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.n_rollouts

    @property
    def ci99(self) -> tuple[float, float]:
        return wilson_ci_99(self.failures, self.n_rollouts)


def split_rollouts(
    solution: MixedSolution, seed: int, n: int
) -> tuple[np.random.Generator, np.ndarray]:
    """A mixture's one random draw, made for ``n`` rollouts at once: the
    generator of ``seed``, which the sampler draws on from, and the number of
    rollouts that each component gets from one multinomial draw of it."""
    rng = np.random.default_rng(seed)
    weights = np.array(solution.probabilities)
    return rng, rng.multinomial(n, weights / weights.sum())


def binomial_acceptance(rate: float, n: int, false_alarm: float) -> tuple[int, int]:
    """Failure counts (lo, hi) that n draws at ``rate`` leave with
    probability at most ``false_alarm``, at most half of it on each side.

    The tails are exact binomial sums, so the stated rate holds for any n
    and rate; a normal-approximation interval misses it by orders of
    magnitude when few failures are expected.
    """
    if n <= 0 or not 0.0 <= rate <= 1.0:
        raise InvalidInputError(f"need n >= 1 draws at a rate in [0, 1], got {n} at {rate}")
    half = false_alarm / 2
    # By the regularized incomplete beta function I, P(X <= k) is
    # I_{1-rate}(n - k, k + 1) and P(X > k) is I_rate(k + 1, n - k). Both
    # tail tests are monotone in k and hold at n, the answer when no count
    # below passes.
    counts = range(n)
    lo = bisect_left(counts, True, key=lambda k: betainc(n - k, k + 1, 1.0 - rate) > half)
    hi = bisect_left(counts, True, key=lambda k: betainc(k + 1, n - k, rate) <= half)
    return lo, hi
