"""Two-round destination selection: pick one, strike it out, drive again.

Modeling note, stated up front because it is easy to miss: the FIRST pick is
always averaged uniformly, weight ``1/n`` per destination, no matter which
strategy is being scored.  Only the second round is driven with the strategy
under study (stationary ``alpha`` or counting).  The second round is an
ordinary drive problem over the ``n - 1`` survivors, whose last entry plays
the terminal role.  Means and counting rounds come from ``model._scaled_sum``.
Under counting every destination is the first pick or the second with
probability ``1/n`` each, so the counting total is ``2 * mean(v)``.
"""

from __future__ import annotations

from itertools import accumulate

from .classical import destination_distribution
from .model import DriveProblem, SelectionProblem, Stationary, _scaled_sum
from .optimize import OptimizationResult, optimize_stationary


def first_choice_totals(sel: SelectionProblem, alpha: float) -> tuple[float, ...]:
    """Per first choice: its payoff plus the stationary second round at ``alpha``.

    The second-round distribution ``d`` over survivor slots is the same for
    every first choice.  Survivors ahead of choice ``c`` keep their slot and
    those after it move up one, so the second round pays
    ``sum_(j<c) d_j v_j + sum_(j>=c) d_j v_(j+1)``: a prefix sum plus a
    suffix sum, O(n) for all choices together.
    """
    v = sel.destination_payoffs
    # any drive over the n - 1 survivors has this distribution
    d = destination_distribution(DriveProblem(v[:-2], v[-2]), Stationary(alpha)).probs
    ahead = [0.0, *accumulate(dj * vj for dj, vj in zip(d, v))]
    after = [*accumulate(dj * vj for dj, vj in zip(reversed(d), reversed(v)))][::-1] + [0.0]
    return tuple(x + a + b for x, a, b in zip(v, ahead, after))


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
    v = sel.destination_payoffs
    n = len(v)
    total, scale = _scaled_sum(v)
    w = [(1.0 - j / n) * v[j - 1] + j / n * v[j] for j in range(1, n)]
    return total / n * scale, DriveProblem(w[:-1], w[-1])


def optimize_two_round(sel: SelectionProblem) -> OptimizationResult:
    """Best stationary ``alpha`` for the averaged two-round payoff."""
    mean, drive = two_round_average_drive(sel)
    best = optimize_stationary(drive)
    return OptimizationResult(best.alpha_star, mean + best.payoff_star, best.method, best.gap)


def counting_round_values(sel: SelectionProblem) -> tuple[tuple[float, float], ...]:
    """Per first choice: (first payoff, counting payoff of the residual round).

    The counting strategy hits each of the ``n - 1`` survivors with
    probability ``1/(n - 1)``, so the second entry is their mean.
    """
    payoffs = sel.destination_payoffs
    n = len(payoffs)
    total, scale = _scaled_sum(payoffs)
    return tuple((v, (total - v / scale) / (n - 1) * scale) for v in payoffs)
