"""Seeded Monte Carlo runs of the drive, for cross-checking the closed forms.

Determinism contract: a report depends only on ``(seed, trials, problem,
strategy)``.  Trials are split into fixed blocks of 65536; block ``b`` draws
from numpy's PCG64 generator seeded with ``SeedSequence([seed, b])``, and the
per-block tallies are plain integer destination counts, so any execution
order - serial or parallel - merges to bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import DestinationDistribution, step_exit_probabilities
from .model import DriveProblem, Quantum, Strategy

BLOCK_SIZE = 1 << 16
_MAX_SEED = 2**64


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one batch of trials."""

    trials: int
    mean_payoff: float
    std_error: float
    empirical_distribution: DestinationDistribution
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def _first_zero_destination(index: np.ndarray, num_qubits: int) -> np.ndarray:
    """Destination (1-based) of each basis index under the first-zero rule.

    Flipping every bit (``2**m - 1 - index``) turns the leading run of ones
    into leading zeros, so the first 0 sits at ``m + 1 - bit_length``; the
    all-ones string has bit length 0 and maps to the terminal ``m + 1``.
    ``frexp`` returns the bit length exactly for integers below ``2**53``.
    """
    _, bit_length = np.frexp((2**num_qubits - 1 - index).astype(float))
    return num_qubits + 1 - bit_length


def estimate_payoff(
    problem: DriveProblem, strategy: Strategy, trials: int, seed: int
) -> SimulationReport:
    """Mean payoff, standard error, and empirical distribution over ``trials`` runs."""
    if trials < 1:
        raise ValueError(f"no trials: trials must be >= 1, got {trials}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")

    k = problem.num_destinations
    m = problem.num_intersections
    quantum = isinstance(strategy, Quantum)
    if quantum:
        state = strategy.state
        if state.num_qubits != m:
            raise ValueError(
                f"strategy/problem mismatch: {state.num_qubits} qubits for {m} intersections"
            )
        cum = np.cumsum(state.probabilities)
    else:
        steps = step_exit_probabilities(problem, strategy)

    counts = np.zeros(k, dtype=np.int64)
    for block in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        rng = _block_rng(seed, block)
        if quantum:
            index = np.searchsorted(cum, rng.random(n), side="right")
            dest = _first_zero_destination(np.minimum(index, cum.size - 1), m)
        else:
            exited = rng.random((n, m)) < steps
            hit = exited.any(axis=1)
            dest = np.where(hit, exited.argmax(axis=1) + 1, k)
        counts += np.bincount(dest - 1, minlength=k)

    payoffs = np.asarray(problem.destination_payoffs)
    total = float(counts @ payoffs)
    total_sq = float(counts @ payoffs**2)
    mean = total / trials
    if trials > 1:
        variance = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    else:
        variance = 0.0
    return SimulationReport(
        trials=trials,
        mean_payoff=mean,
        std_error=float(np.sqrt(variance / trials)),
        empirical_distribution=DestinationDistribution(counts / trials),
        seed=seed,
    )
