"""Reference helpers shared by the test modules; none is part of the package."""

from fractions import Fraction

import numpy as np

from absentdriver import DriveProblem


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
    amps[[int(b, 2) for b in state.bits.tolist()]] = state.values
    return amps
