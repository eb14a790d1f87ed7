"""Shared value types for the mixed-strategy control solver.

A problem backend exposes a Lagrangian oracle: given a nonnegative
multiplier vector it returns one pure policy that minimizes
``cost + lambda . (risk - bound)`` over the backend's policy class.
Everything downstream (the chord dual search, mixture recovery,
optimality checking) is written against that
interface, so the structured types here are deliberately small and
immutable.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from scipy.special import bdtr, bdtrc

# Default tolerances. Probability-style sums are checked at PROB_TOL;
# mixture identities (weighted-sum bookkeeping) at MIX_TOL.
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


def _as_float_tuple(values: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if any(math.isnan(v) or math.isinf(v) for v in out):
        raise InvalidInputError(f"{what} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class CostVector:
    """Objective value c0 plus K constrained expectation values."""

    c0: float
    c_rest: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "c_rest", _as_float_tuple(self.c_rest, "c_rest"))
        if math.isnan(self.c0) or math.isinf(self.c0):
            raise InvalidInputError(f"c0 must be finite, got {self.c0}")
        if len(self.c_rest) < 1:
            raise InvalidInputError("CostVector needs at least one constrained entry")

    @property
    def k(self) -> int:
        return len(self.c_rest)

    @property
    def c1(self) -> float:
        """First constrained entry; the risk channel for K=1 problems."""
        return self.c_rest[0]


@dataclass(frozen=True)
class Bounds:
    """Right-hand sides of the K expectation constraints."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_tuple(self.values, "bounds"))
        if len(self.values) < 1:
            raise InvalidInputError("Bounds needs at least one entry")

    @property
    def k(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DualVector:
    """Nonnegative multipliers, one per constrained expectation."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_tuple(self.values, "multipliers"))
        if len(self.values) < 1:
            raise InvalidInputError("DualVector needs at least one entry")
        if any(v < 0.0 for v in self.values):
            raise InvalidInputError(f"multipliers must be nonnegative, got {self.values}")

    @property
    def k(self) -> int:
        return len(self.values)


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
    """Randomized mixture over pure candidates, chosen once up front."""

    components: tuple[tuple[PureCandidate, float], ...]
    aggregate: CostVector
    dual: DualVector
    gap_estimate: float

    def __post_init__(self):
        if not self.components:
            raise InvalidInputError("mixture needs at least one component")
        k = self.aggregate.k
        if self.dual.k != k:
            raise InvalidInputError("dual length does not match aggregate")
        if len(self.components) > k + 1:
            raise InvalidInputError(
                f"{len(self.components)} components exceeds the K+1 bound for K={k}"
            )
        probs = [p for _, p in self.components]
        if any(p < -MIX_TOL for p in probs):
            raise InvalidInputError(f"negative component probability: {probs}")
        if abs(math.fsum(probs) - 1.0) > PROB_TOL:
            raise InvalidInputError(f"component probabilities sum to {math.fsum(probs)}")
        if self.gap_estimate < 0.0:
            raise InvalidInputError("gap_estimate must be nonnegative")
        check = mix_costs([(cand.cost, p) for cand, p in self.components])
        scale = max(1.0, abs(self.aggregate.c0), *(abs(v) for v in self.aggregate.c_rest))
        if abs(check.c0 - self.aggregate.c0) > MIX_TOL * scale or any(
            abs(a - b) > MIX_TOL * scale
            for a, b in zip(check.c_rest, self.aggregate.c_rest)
        ):
            raise InvalidInputError("aggregate does not match the weighted component sum")

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.components)


class LagrangianOracle(ABC):
    """Backend interface: pointwise minimizer of the penalized cost.

    Implementations must be deterministic (fixed tie-breaking) and, for
    K=1, monotone: raising the multiplier never raises the returned risk.
    """

    # True when an answer's risk only bounds its failure probability from above
    risk_is_upper_bound = False

    @abstractmethod
    def query(self, lam: DualVector) -> PureCandidate:
        """Return a minimizer of ``c0 + lam . (c_rest - bounds)``."""

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

    Weights must be nonnegative and sum to one within PROB_TOL; all cost
    vectors must share the same K.
    """
    if not components:
        raise InvalidInputError("mix_costs needs at least one component")
    k = components[0][0].k
    probs = []
    for cost, p in components:
        if cost.k != k:
            raise InvalidInputError(f"mixed cost vectors with K={cost.k} and K={k}")
        if p < -MIX_TOL:
            raise InvalidInputError(f"negative mixing weight {p}")
        probs.append(float(p))
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidInputError(f"mixing weights sum to {total}, expected 1")
    c0 = math.fsum(cost.c0 * p for (cost, _), p in zip(components, probs))
    rest = tuple(
        math.fsum(cost.c_rest[i] * p for (cost, _), p in zip(components, probs))
        for i in range(k)
    )
    return CostVector(c0, rest)


def lagrangian_value(cost: CostVector, lam: DualVector, bounds: Bounds) -> float:
    """Penalized cost ``c0 + sum_i lam_i * (c_i - v_i)``."""
    if not (cost.k == lam.k == bounds.k):
        raise InvalidInputError(
            f"dimension mismatch: cost K={cost.k}, dual K={lam.k}, bounds K={bounds.k}"
        )
    return cost.c0 + math.fsum(
        l * (c - v) for l, c, v in zip(lam.values, cost.c_rest, bounds.values)
    )


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
    counts = range(n + 1)  # both tail tests below are monotone and hold at n
    lo = bisect_left(counts, True, key=lambda k: bdtr(k, n, rate) > half)
    hi = bisect_left(counts, True, key=lambda k: bdtrc(k, n, rate) <= half)
    return lo, hi
