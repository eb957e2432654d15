"""Exact evaluation of classical exit strategies.

Everything here is closed form.  With per-step exit probabilities
``p_1..p_m`` the destination distribution is the product form

    P(exit i)   = (1 - p_1) ... (1 - p_{i-1}) * p_i
    P(terminal) = (1 - p_1) ... (1 - p_m)

For the stationary strategy (all ``p_j = alpha``) the expected payoff is a
polynomial stored as the payoffs themselves.  Its basis, ``alpha *
beta**(i-1)`` per exit and ``beta**m`` for the terminal with ``beta = 1 -
alpha``, is non-negative and sums to 1, so the nested evaluation never
subtracts one payoff from another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Counting, DriveProblem, PerStep, Quantum, Stationary, Strategy

# Entries this close to 0 or 1 are treated as rounding and clamped; anything
# further out is a logic bug, not noise.
_CLAMP = 1e-15
_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DestinationDistribution:
    """Probabilities over destinations ``1..k`` (exits in order, then terminal)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("distribution must be a non-empty 1-d probability vector")
        probs[(probs >= -_CLAMP) & (probs < 0.0)] = 0.0
        probs[(probs > 1.0) & (probs <= 1.0 + _CLAMP)] = 1.0
        if ((probs < 0.0) | (probs > 1.0)).any():
            raise ValueError("internal error: probability outside [0, 1] beyond rounding")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"internal error: distribution sums to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def num_destinations(self) -> int:
        return int(self.probs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DestinationDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True)
class PayoffPolynomial:
    """Expected payoff of the stationary strategy, stored as its payoffs.

    ``payoffs`` are the exits' then the terminal's, ``v_1..v_k``, and the
    value at ``alpha`` is ``sum_(i<k) v_i alpha beta**(i-1) + v_k
    beta**(k-1)`` with ``beta = 1 - alpha``: a weighted mean of the payoffs,
    so it lies between the smallest and the largest of them.
    """

    payoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        payoffs = tuple(float(v) for v in self.payoffs)
        if not payoffs:
            raise ValueError("polynomial needs at least one payoff")
        if not np.isfinite(payoffs).all():
            raise ValueError("polynomial payoffs must be finite")
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def degree(self) -> int:
        return len(self.payoffs) - 1

    @property
    def beta_coeffs(self) -> tuple[float, ...]:
        """Coefficients in ``beta``: ``beta_coeffs[j]`` multiplies ``beta**j``.

        Collecting powers of ``beta`` telescopes the sum, so they are the
        payoff differences ``v_(j+1) - v_j`` (with ``v_0 = 0``), which
        overflow where consecutive payoffs differ by more than the float
        range.  Trailing zeros are kept: the degree-``m`` term can cancel.
        """
        return tuple(np.diff(self.payoffs, prepend=0.0).tolist())

    def __call__(self, alpha):
        """Evaluate at a scalar or array of ``alpha`` values, from the terminal
        payoff outwards: ``acc = v_i alpha + beta acc``."""
        a = float(alpha) if np.ndim(alpha) == 0 else np.asarray(alpha, dtype=float)
        b = 1.0 - a
        acc = self.payoffs[-1] + 0.0 * a  # shaped like alpha
        for v in self.payoffs[-2::-1]:
            acc = v * a + b * acc
        return acc


def step_exit_probabilities(problem: DriveProblem, strategy: Strategy) -> np.ndarray:
    """Per-intersection exit probabilities induced by a classical strategy.

    Only classical strategies have a per-step marginal that is independent of
    what happened earlier; quantum states are rejected.
    """
    m = problem.num_intersections
    if isinstance(strategy, Stationary):
        return np.full(m, strategy.alpha)
    if isinstance(strategy, Counting):
        # 1 / (k - i + 1) at intersection i of k = m + 1 destinations
        return 1.0 / np.arange(m + 1, 1, -1)
    if isinstance(strategy, PerStep):
        if len(strategy.exit_probs) != m:
            raise ValueError(
                "strategy/problem mismatch: "
                f"{len(strategy.exit_probs)} step probabilities for {m} intersections"
            )
        return np.array(strategy.exit_probs, dtype=float)
    if isinstance(strategy, Quantum):
        raise ValueError("no stepwise marginal: quantum strategies condition on earlier outcomes")
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")


def destination_distribution(problem: DriveProblem, strategy: Strategy) -> DestinationDistribution:
    """Exact distribution over destinations for a classical strategy."""
    steps = step_exit_probabilities(problem, strategy)
    # keep[i] = probability of still driving after the first i intersections
    keep = np.concatenate(([1.0], np.cumprod(1.0 - steps)))
    return DestinationDistribution(np.append(keep[:-1] * steps, keep[-1]))


def expected_payoff(problem: DriveProblem, strategy: Strategy) -> float:
    """Expected payoff of a classical strategy: distribution dotted with payoffs."""
    dist = destination_distribution(problem, strategy)
    return float(dist.probs @ np.asarray(problem.destination_payoffs))


def stationary_payoff_polynomial(problem: DriveProblem) -> PayoffPolynomial:
    """``sum_i v_i a (1-a)^(i-1) + v_terminal (1-a)^m``, stored as its payoffs.

    The weights are the stationary destination distribution, so the
    polynomial is exact in its coefficients: no expansion, no difference.
    """
    return PayoffPolynomial(problem.destination_payoffs)
