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
from dataclasses import replace

import numpy as np

from .classical import destination_distribution
from .model import DriveProblem, SelectionProblem, Stationary
from .optimize import OptimizationResult, optimize_stationary


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


def two_round_average_drive(sel: SelectionProblem) -> tuple[float, DriveProblem]:
    """``(mean(v), p)``: the uniform average over first choices of the
    per-choice totals is ``mean(v)`` plus ``p``'s stationary payoff.

    The first pick pays ``mean(v)`` on average.  The second round's
    stationary payoff is linear in the survivors' payoffs, so its average is
    one drive ``p`` over ``n - 1`` destinations: survivor ``j`` is ``v_j``
    when the first pick came later (probability ``1 - j/n``) and
    ``v_(j+1)`` otherwise.  The mean stays out of ``p``'s payoffs, so its
    ``beta`` coefficients are differences of the averaged payoffs alone.
    """
    v = np.asarray(sel.destination_payoffs)
    j = np.arange(1, v.size) / v.size
    scale = _sum_scale(sel.destination_payoffs)
    w = (1.0 - j) * v[:-1] + j * v[1:]
    return float((v / scale).mean() * scale), DriveProblem(w[:-1], w[-1])


def optimize_two_round(sel: SelectionProblem) -> OptimizationResult:
    """Best stationary ``alpha`` for the averaged two-round payoff."""
    mean, drive = two_round_average_drive(sel)
    result = optimize_stationary(drive)
    return replace(result, payoff_star=mean + result.payoff_star)


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
