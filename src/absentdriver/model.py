"""Problems, strategies and destination distributions for highway exit decisions.

A drive problem is a row of ``m`` indistinguishable intersections followed by
a forced end-of-highway outcome.  Destination ``i`` in ``1..m`` means "took
exit i"; destination ``k = m + 1`` means the driver ran out of road.  Because
the driver cannot tell intersections apart, a strategy may only prescribe the
probability of exiting at the intersection currently in front of them (plus,
for the counting strategy, a counter kept by the car rather than the driver).

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .quantum import StateVector


def _as_finite_floats(values, what: str) -> tuple[float, ...]:
    out = []
    for v in values:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"invalid payoff: {what} contains non-finite value {v!r}")
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class DriveProblem:
    """Ordered exit payoffs plus the payoff for driving past every exit.

    Its stationary payoff is a polynomial in ``alpha`` with the
    :attr:`destination_payoffs` as coefficients of the stationary destination
    probabilities, so the problem is also that polynomial.
    ``exit_payoffs`` may be empty only for a forced single destination: the
    survivor drive of a two-destination selection, whose averaged second
    round has one destination.  The public factory :func:`make_drive_problem`
    rejects the empty case.
    """

    exit_payoffs: tuple[float, ...]
    terminal_payoff: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "exit_payoffs", _as_finite_floats(self.exit_payoffs, "exit_payoffs")
        )
        terminal = float(self.terminal_payoff)
        if not math.isfinite(terminal):
            raise ValueError(f"invalid payoff: terminal payoff {self.terminal_payoff!r}")
        object.__setattr__(self, "terminal_payoff", terminal)

    @property
    def num_intersections(self) -> int:
        return len(self.exit_payoffs)

    @property
    def num_destinations(self) -> int:
        return len(self.exit_payoffs) + 1

    @property
    def destination_payoffs(self) -> tuple[float, ...]:
        """Payoffs indexed by destination ``1..k``: exits in order, terminal last."""
        return (*self.exit_payoffs, self.terminal_payoff)


def make_drive_problem(exit_payoffs, terminal_payoff) -> DriveProblem:
    """Validated constructor for a drive problem with at least one exit."""
    payoffs = tuple(exit_payoffs)
    if len(payoffs) == 0:
        raise ValueError("degenerate problem: at least one exit is required")
    return DriveProblem(payoffs, terminal_payoff)


# Entries this close to 0 or 1 are treated as rounding and clamped; anything
# further out is a logic bug, not noise.
_CLAMP = 1e-15
_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DestinationDistribution:
    """Probabilities over destinations ``1..k`` (exits in order, then terminal)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("distribution must be a non-empty 1-d probability vector")
        # NaN fails every comparison, so it fails this test too
        if not (probs.min() >= -_CLAMP and probs.max() <= 1.0 + _CLAMP):
            raise ValueError("internal error: probability outside [0, 1] beyond rounding")
        probs = probs.clip(0.0, 1.0)
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"internal error: distribution sums to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DestinationDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True)
class SelectionProblem:
    """Pick two of ``n`` destinations in successive rounds.

    The first pick is struck from the list before the second round is driven.
    """

    destination_payoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "destination_payoffs",
            _as_finite_floats(self.destination_payoffs, "destination_payoffs"),
        )
        if len(self.destination_payoffs) < 2:
            raise ValueError("degenerate problem: selection needs at least two destinations")

    @property
    def num_destinations(self) -> int:
        return len(self.destination_payoffs)


def _check_probability(p: float, what: str) -> float:
    x = float(p)
    if not math.isfinite(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"{what} must be a probability in [0, 1], got {p!r}")
    return x


@dataclass(frozen=True)
class Stationary:
    """Exit with the same probability ``alpha`` at every intersection.

    The only strategy available to a driver with zero memory and full
    knowledge of the payoffs.
    """

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_probability(self.alpha, "alpha"))


@dataclass(frozen=True)
class Counting:
    """Exit with probability ``1/(k - i + 1)`` at intersection ``i``.

    Needs one item of memory (the intersection count, which the car can
    supply) and no payoff knowledge; it lands on each of the ``k``
    destinations with probability exactly ``1/k``.
    """


@dataclass(frozen=True)
class PerStep:
    """An explicit exit probability for each intersection."""

    exit_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(
            _check_probability(p, f"exit_probs[{j}]") for j, p in enumerate(self.exit_probs)
        )
        object.__setattr__(self, "exit_probs", probs)


@dataclass(frozen=True)
class Quantum:
    """Measure one qubit of ``state`` per intersection; outcome 0 exits."""

    state: "StateVector"


Strategy = Union[Stationary, Counting, PerStep, Quantum]

