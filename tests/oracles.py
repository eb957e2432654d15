"""Reference helpers shared by the test modules; none is part of the package."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from absentdriver import DriveProblem, build_state
from absentdriver.classical import step_exit_probabilities


def from_beta(coeffs) -> DriveProblem:
    """The drive whose stationary payoff is ``sum_j coeffs[j] beta**j``: its
    payoffs are the running sums of the ``beta`` coefficients, a one-to-one map."""
    payoffs = np.cumsum(coeffs)
    return DriveProblem(tuple(payoffs[:-1]), payoffs[-1])


def exact_payoff(payoffs, alpha) -> Fraction:
    """``sum_i v_i a (1-a)^(i-1) + v_k (1-a)^(k-1)`` in exact rational arithmetic.

    With ``a = p/q`` the nested form ``acc = v_i a + (1 - a) acc`` runs on
    integers over the one denominator ``scale * q**(k-1)``, where ``scale``,
    a power of two, makes every payoff an integer.
    """
    ratios = [float(v).as_integer_ratio() for v in payoffs]
    scale = max(d for _, d in ratios)
    p, q = Fraction(alpha).as_integer_ratio()
    n, d = ratios[-1]
    acc, power = n * (scale // d), 1
    for n, d in ratios[-2::-1]:
        acc, power = n * (scale // d) * p * power + (q - p) * acc, power * q
    return Fraction(acc, scale * power)


def std_error_squared(payoffs, counts) -> Fraction:
    """The square of :func:`absentdriver.estimate_payoff`'s standard error,
    ``s**2 / trials`` with the sample variance ``s**2``, exactly.

    A float is ``N / D`` with ``D`` a power of two, so over the largest ``D``
    every payoff is an integer ``N`` and
    ``s**2 = (trials * sum c N**2 - (sum c N)**2) / (trials * (trials - 1) * D**2)``
    in integers.  One trial has no spread: 0.
    """
    ratios = [float(v).as_integer_ratio() for v in payoffs]
    scale = max(d for _, d in ratios)
    nums = [n * (scale // d) for n, d in ratios]
    trials = sum(counts)
    first = sum(c * n for c, n in zip(counts, nums, strict=True))
    second = sum(c * n * n for c, n in zip(counts, nums, strict=True))
    return Fraction(trials * second - first * first, trials**2 * max(trials - 1, 1) * scale**2)


def mixed_magnitude_payoffs(rng, k) -> np.ndarray:
    """``k`` payoffs ``+-10**U(-3, 16)``: neighbours often differ by 1e19 in size."""
    return rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-3.0, 16.0, size=k)


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


def dense_amplitudes(state) -> np.ndarray:
    """All ``2**m`` amplitudes of a state in basis-index order."""
    amps = np.zeros(2**state.num_qubits, dtype=complex)
    amps[[int(b, 2) for b in state.bits]] = state.values
    return amps


def product_state(alpha, m):
    """The tensor power of ``sqrt(alpha)|0> + sqrt(1 - alpha)|1>`` on ``m`` qubits,
    listed as all its ``2**m`` kets and built by :func:`absentdriver.build_state`.

    Under the first-zero rule it reproduces the stationary strategy ``alpha``.
    """
    zero, one, amps = math.sqrt(alpha), math.sqrt(1.0 - alpha), [1.0]
    for _ in range(m):  # one more qubit, in front: its 0 half, then its 1 half
        amps = [zero * x for x in amps] + [one * x for x in amps]
    # product lists the strings in lexicographic order, the order of amps
    return build_state(zip(map("".join, product("01", repeat=m)), amps))


def numpy_counts(problem: DriveProblem, strategy, trials: int, seed: int) -> list[int]:
    """Destination counts of a seeded run drawn by numpy itself: the binomial
    chain of :func:`absentdriver.estimate_payoff` on ``default_rng(seed)``."""
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
    return counts
