"""Exact evaluation of classical exit strategies.

Everything here is closed form.  With per-step exit probabilities
``p_1..p_m`` the destination distribution is the product form

    P(exit i)   = (1 - p_1) ... (1 - p_{i-1}) * p_i
    P(terminal) = (1 - p_1) ... (1 - p_m)

For the stationary strategy (all ``p_j = alpha``) the expected payoff is a
polynomial, stored in ``beta = 1 - alpha``: collecting powers of ``beta``
turns its coefficients into payoff differences, with none of the
cancelling binomials of an expansion in ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

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
    """Expected payoff of the stationary strategy, as coefficients in ``beta``.

    ``beta_coeffs[j]`` multiplies ``(1 - alpha)**j``.  Trailing zero
    coefficients are kept as given (the degree-``m`` term of an
    ``m``-intersection problem can cancel exactly).

    ``scaled`` is ``(beta_coeffs * 2**-shift, shift)`` for the smallest
    ``shift >= 0`` that keeps every Horner step of the polynomial and of its
    derivative inside the float range for ``|beta| <= 1``: those steps are
    bounded by ``sum_j j |c_j| < 2**(e + 2 b)``, with ``2**e > max |c_j|``
    and ``2**b`` above the coefficient count.  Scaling by a power of two is
    exact, and ordinary payoffs get ``shift = 0``.
    """

    beta_coeffs: tuple[float, ...]
    scaled: tuple[np.ndarray, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.beta_coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not np.isfinite(coeffs).all():
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "beta_coeffs", coeffs)
        bound = math.frexp(max(map(abs, coeffs)))[1] + 2 * len(coeffs).bit_length()
        shift = max(0, bound - 1023)
        object.__setattr__(self, "scaled", (np.ldexp(coeffs, -shift), shift))

    @property
    def degree(self) -> int:
        return len(self.beta_coeffs) - 1

    def __call__(self, alpha):
        """Evaluate at a scalar or array of ``alpha`` values.

        Evaluation runs on the scaled coefficients, so for ``alpha`` in
        [0, 1] the result overflows only where the true value does.
        """
        coeffs, shift = self.scaled
        return np.ldexp(npoly.polyval(1.0 - np.asarray(alpha), coeffs), shift)

    def __add__(self, shift: float) -> "PayoffPolynomial":
        """The same polynomial shifted by a constant payoff."""
        if not isinstance(shift, (int, float)):
            return NotImplemented
        return PayoffPolynomial((self.beta_coeffs[0] + shift, *self.beta_coeffs[1:]))


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
    """``sum_i v_i a (1-a)^(i-1) + v_terminal (1-a)^m`` in powers of ``b = 1 - a``.

    Substituting ``a = 1 - b`` telescopes the sum: the coefficient of
    ``b^j`` is ``v_(j+1) - v_j`` (with ``v_0 = 0`` and ``v_(m+1)`` the
    terminal payoff), so no expansion and no cancellation is involved.
    """
    return PayoffPolynomial(tuple(np.diff(problem.destination_payoffs, prepend=0.0)))
