"""Two-round destination selection: pick one, strike it out, drive again.

Modeling note, stated up front because it is easy to miss: the FIRST pick is
always averaged uniformly, weight ``1/n`` per destination, no matter which
strategy is being scored.  Only the second round is driven with the strategy
under study (stationary ``alpha`` or counting).  The second round is an
ordinary drive problem over the ``n - 1`` survivors, whose last entry plays
the terminal role.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import PayoffPolynomial, destination_distribution, stationary_payoff_polynomial
from .model import DriveProblem, SelectionProblem, Stationary
from .optimize import OptimizationResult, maximize_polynomial


def residual_problem(problem: DriveProblem, removed: int) -> DriveProblem:
    """The drive problem left after destination ``removed`` (1-based) is taken.

    Remaining destinations keep their order; the last survivor becomes the
    new terminal.  Removing one of only two destinations leaves a forced
    single-destination problem with a constant payoff.
    """
    k = problem.num_destinations
    if not 1 <= removed <= k:
        raise ValueError(f"bad destination: {removed} not in 1..{k}")
    remaining = list(problem.destination_payoffs)
    del remaining[removed - 1]
    return DriveProblem(tuple(remaining[:-1]), remaining[-1])


def _sum_scale(payoffs) -> float:
    """Power of two that keeps sums of ``payoffs`` divided by it in float range; 1 if ordinary."""
    return 2.0 ** max(0, math.frexp(max(map(abs, payoffs)))[1] + len(payoffs).bit_length() - 1023)


def first_choice_totals(sel: SelectionProblem, alpha: float) -> np.ndarray:
    """Per first choice: its payoff plus the stationary second round at ``alpha``.

    The second-round distribution ``d`` over survivor slots is the same for
    every first choice.  Survivors ahead of choice ``c`` keep their slot and
    those after it move up one, so the second round pays
    ``sum_(j<c) d_j v_j + sum_(j>=c) d_j v_(j+1)``: a prefix sum plus a
    suffix sum, O(n) for all choices together.
    """
    v = np.asarray(sel.destination_payoffs)
    # any drive over the n - 1 survivors has this distribution
    d = destination_distribution(DriveProblem(v[:-2], v[-2]), Stationary(alpha)).probs
    ahead = np.concatenate(([0.0], np.cumsum(d * v[:-1])))
    after = np.concatenate((np.cumsum((d * v[1:])[::-1])[::-1], [0.0]))
    return v + ahead + after


def two_round_average_polynomial(sel: SelectionProblem) -> PayoffPolynomial:
    """Uniform average over first choices of the per-choice total polynomials.

    The second round's stationary payoff is linear in the survivors' payoffs,
    so the average is one drive: survivor ``j`` is ``v_j`` when the first
    pick came later (probability ``1 - j/n``) and ``v_(j+1)`` otherwise.
    """
    v = np.asarray(sel.destination_payoffs)
    j = np.arange(1, v.size) / v.size
    averaged = (1.0 - j) * v[:-1] + j * v[1:]
    scale = _sum_scale(sel.destination_payoffs)
    drive = DriveProblem(averaged[:-1], averaged[-1])
    return stationary_payoff_polynomial(drive) + (v / scale).mean() * scale


def optimize_two_round(sel: SelectionProblem) -> OptimizationResult:
    """Best stationary ``alpha`` for the averaged two-round payoff."""
    return maximize_polynomial(two_round_average_polynomial(sel))


def counting_round_values(sel: SelectionProblem) -> tuple[tuple[float, float], ...]:
    """Per first choice: (first payoff, counting payoff of the residual round).

    The counting strategy hits each of the ``n - 1`` survivors with
    probability ``1/(n - 1)``, so the second entry is their mean.
    """
    payoffs = sel.destination_payoffs
    n = len(payoffs)
    scale = _sum_scale(payoffs)
    total = sum(v / scale for v in payoffs)
    return tuple((v, (total - v / scale) / (n - 1) * scale) for v in payoffs)


def two_round_counting_total(sel: SelectionProblem) -> float:
    """Uniform average over first choices of first payoff plus counting round.

    Every destination is the first pick or the second with probability
    ``1/n`` each, so this is ``2 * mean(v)``.
    """
    scale = _sum_scale(sel.destination_payoffs)
    return 2.0 * (sum(v / scale for v in sel.destination_payoffs) / sel.num_destinations * scale)


def selection_improvement(sel: SelectionProblem) -> float:
    """Counting total minus the optimized stationary total; can be negative."""
    return two_round_counting_total(sel) - optimize_two_round(sel).payoff_star
