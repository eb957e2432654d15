"""Seeded Monte Carlo runs of the drive, for cross-checking the closed forms.

Determinism contract: a report depends only on ``(seed, trials, problem,
strategy)``: a run draws from numpy's PCG64 generator, ``default_rng(seed)``.

A run drives its ``trials`` cars as one population: at intersection ``j`` a
binomial draw of the ``left`` cars still on the highway exits, with the
step exit probability, and whoever is left at the end reaches the terminal.
That is the conditional-binomial method for multinomial variates (Davis,
Comput. Stat. Data Anal. 16(2), 1993): the counts have the distribution of
``trials`` separate drives, for at most ``m`` draws and O(m) memory, not
``trials * m`` uniforms.  Every strategy supplies its step probabilities, so
the draws never use the product form they check.  A quantum plan's steps are
its exit hazards, ``d_j / (d_j + ... + d_(m+1))`` over the first-zero
distribution ``d``: simulating a plan checks the sampler and the hazards,
not the first-zero map.  Mean and variance sum with ``math.fsum``, not BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import step_exit_probabilities
from .model import DestinationDistribution, DriveProblem, Strategy, _exponent

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one batch of trials."""

    trials: int
    mean_payoff: float
    std_error: float
    empirical_distribution: DestinationDistribution
    seed: int


def estimate_payoff(
    problem: DriveProblem, strategy: Strategy, trials: int, seed: int
) -> SimulationReport:
    """Mean payoff, standard error, and empirical distribution over ``trials`` runs."""
    if trials < 1:
        raise ValueError(f"no trials: trials must be >= 1, got {trials}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")

    import numpy as np
    steps = step_exit_probabilities(problem, strategy)
    rng = np.random.default_rng(seed)
    counts = [0] * (len(steps) + 1)
    left = trials
    for j, p in enumerate(steps):
        counts[j] = out = int(rng.binomial(left, p))
        left -= out
        if left == 0:
            break
    counts[-1] = left

    # payoffs scaled exactly, by a power of two, below 1: no sum of squares overflows
    shift = _exponent(problem.destination_payoffs)
    payoffs = [math.ldexp(v, -shift) for v in problem.destination_payoffs]
    mean = math.fsum(c * v for c, v in zip(counts, payoffs)) / trials
    squares = math.fsum(c * (v * v) for c, v in zip(counts, payoffs))
    variance = max(squares - trials * mean * mean, 0.0) / max(trials - 1, 1)
    # each scaled |payoff| <= 1 - 2**-53, so mean and std error are too: ldexp stays finite
    return SimulationReport(
        trials=trials,
        mean_payoff=math.ldexp(mean, shift),
        std_error=math.ldexp(math.sqrt(variance / trials), shift),
        empirical_distribution=DestinationDistribution([c / trials for c in counts]),
        seed=seed,
    )
