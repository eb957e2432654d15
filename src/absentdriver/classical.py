"""Exact evaluation of every exit strategy, classical or quantum.

Everything here is closed form.  With per-step exit probabilities
``p_1..p_m`` the destination distribution is the product form

    P(exit i)   = (1 - p_1) ... (1 - p_{i-1}) * p_i
    P(terminal) = (1 - p_1) ... (1 - p_m)

A quantum measurement plan's distribution ``d`` is its first-zero
distribution, and its per-step exit probabilities are the hazards
``h_j = d_j / (d_j + ... + d_(m+1))``: the chance that qubit ``j`` reads 0
given that qubits ``1..j-1`` read 1.  Driven as a per-step plan, those
hazards give ``d`` back through the product form, so every strategy is
scored by the same two functions.

For the stationary strategy (all ``p_j = alpha``) the expected payoff is a
polynomial whose coefficients are the payoffs themselves, so the drive
problem is its own polynomial: :func:`stationary_payoff` evaluates it at a
list of ``alpha`` and :func:`beta_coefficients` expands it in ``beta = 1 -
alpha``.  Its basis, ``alpha * beta**(i-1)`` per exit and ``beta**m`` for the
terminal, is non-negative and sums to 1, so the nested evaluation never
subtracts one payoff from another.
"""

from __future__ import annotations

from itertools import accumulate

from .model import (Counting, DestinationDistribution, DriveProblem, PerStep, SelectionProblem,
                    Stationary)
from .quantum import StateVector, first_zero_distribution

# A quantum plan is the state it measures, one qubit per intersection; 0 exits.
Strategy = Stationary | Counting | PerStep | StateVector


def check_fit(problem: DriveProblem | SelectionProblem, strategy: Strategy) -> None:
    """Reject a strategy that does not fit the problem, from its kind and counts alone.

    A selection takes only a stationary or counting strategy; on a drive a
    per-step or quantum plan needs one step or qubit per intersection.
    """
    if isinstance(problem, SelectionProblem):
        if isinstance(strategy, (PerStep, StateVector)):
            raise ValueError("strategy/problem mismatch: selection problems only take "
                             "stationary or counting strategies")
        return
    m = problem.num_intersections
    if isinstance(strategy, PerStep) and len(strategy.exit_probs) != m:
        plan = f"{len(strategy.exit_probs)} step probabilities"
    elif isinstance(strategy, StateVector) and strategy.num_qubits != m:
        plan = f"{strategy.num_qubits} qubits"
    else:
        return
    raise ValueError(f"strategy/problem mismatch: {plan} for {m} intersections")


def step_exit_probabilities(problem: DriveProblem, strategy: Strategy) -> tuple[float, ...]:
    """Per-intersection exit probabilities induced by any strategy.

    Entry ``j`` is the probability of exiting at intersection ``j`` given
    that the car reached it.  For a quantum plan these are the hazards of its
    first-zero distribution, which a ``PerStep`` driver with a counter can
    follow to land on the same distribution.
    """
    check_fit(problem, strategy)
    m = problem.num_intersections
    if isinstance(strategy, Stationary):
        return (strategy.alpha,) * m
    if isinstance(strategy, Counting):
        # 1 / (k - i + 1) at intersection i of k = m + 1 destinations
        return tuple(1.0 / n for n in range(m + 1, 1, -1))
    if isinstance(strategy, PerStep):
        return strategy.exit_probs
    if isinstance(strategy, StateVector):
        d = first_zero_distribution(strategy).probs
        tail = list(accumulate(reversed(d)))[:0:-1]  # d_j + ... + d_(m+1) >= d_j in floats
        # a one-term tail gives exactly 1; no car reaches a step of tail 0
        return tuple(dj / t if t > 0.0 else 1.0 for dj, t in zip(d, tail))
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")


def destination_distribution(problem: DriveProblem, strategy: Strategy) -> DestinationDistribution:
    """Exact distribution over destinations for any strategy."""
    if isinstance(strategy, StateVector):
        check_fit(problem, strategy)
        return first_zero_distribution(strategy)
    probs, keep = [], 1.0  # keep: probability of still driving
    for p in step_exit_probabilities(problem, strategy):
        probs.append(keep * p)
        keep *= 1.0 - p
    return DestinationDistribution((*probs, keep))


def expected_payoff(problem: DriveProblem, strategy: Strategy) -> float:
    """Expected payoff of any strategy: distribution dotted with payoffs."""
    return destination_distribution(problem, strategy).mean(problem.destination_payoffs)


def stationary_payoff(problem: DriveProblem, alphas) -> tuple[float, ...]:
    """Expected payoff of ``Stationary(alpha)`` at each ``alpha`` of ``alphas``.

    With payoffs ``v_1..v_k`` (exits, then the terminal) this is ``sum_(i<k)
    v_i alpha beta**(i-1) + v_k beta**(k-1)`` with ``beta = 1 - alpha``: a
    weighted mean of the payoffs, so it lies between the smallest and the
    largest of them.  It is evaluated from the terminal payoff outwards,
    ``acc = v_i alpha + beta acc``.
    """
    last, *rest = problem.destination_payoffs[::-1]
    out = []
    for a in map(float, alphas):
        b, acc = 1.0 - a, last + 0.0  # + 0.0: a drive paying -0.0 pays 0
        for v in rest:
            acc = v * a + b * acc
        out.append(acc)
    return tuple(out)


def beta_coefficients(problem: DriveProblem) -> tuple[float, ...]:
    """The stationary payoff in ``beta``: entry ``j`` multiplies ``beta**j``.

    Collecting powers of ``beta`` telescopes the sum, so they are the payoff
    differences ``v_(j+1) - v_j`` (with ``v_0 = 0``), which overflow where
    consecutive payoffs differ by more than the float range.  Trailing zeros
    are kept: the degree-``m`` term can cancel.
    """
    v = problem.destination_payoffs
    return tuple(b - a for a, b in zip((0.0, *v), v))
