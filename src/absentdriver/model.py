"""Problems, strategies and destination distributions for highway exit decisions.

A drive problem is a row of ``m`` indistinguishable intersections followed by
a forced end-of-highway outcome.  Destination ``i`` in ``1..m`` means "took
exit i"; destination ``k = m + 1`` means the driver ran out of road.  Because
the driver cannot tell intersections apart, a strategy may only prescribe the
probability of exiting at the intersection currently in front of them (plus,
for the counting strategy, a counter kept by the car rather than the driver).

All types here are immutable after construction and safe to share across
threads.  Each is a :class:`_Frozen` record: its ``__init__`` validates the
arguments and stores them with ``object.__setattr__``, and any later assignment
or deletion of an attribute raises ``FrozenInstanceError``.  A distribution's
mean and the selection means are :func:`_scaled_sum` sums; the stationary payoff
nests, the first-choice totals run prefix and suffix sums, and the simulator
sums counted payoffs with ``math.fsum``.  Nothing uses numpy.
"""

from __future__ import annotations

import math


def _as_finite_floats(values, what: str) -> tuple[float, ...]:
    out = []
    for v in values:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"invalid payoff: {what} contains non-finite value {v!r}")
        out.append(x)
    return tuple(out)


def _exponent(values) -> int:
    """Binary exponent ``e`` of the largest ``|x|``: ``x / 2**e`` is exact and below 1."""
    return math.frexp(max(map(abs, values)))[1]


def _scaled_sum(payoffs) -> tuple[float, float]:
    """``(total, scale)``: the correctly rounded sum of ``payoffs`` divided by
    ``scale``, a power of two that is 1 unless ``total`` needs it to stay finite."""
    scale = 2.0 ** max(0, _exponent(payoffs) + len(payoffs).bit_length() - 1023)
    return math.fsum(v / scale for v in payoffs), scale


class _Frozen:
    """Immutable value: its fields are the instance ``__dict__``, in the order
    ``__init__`` sets them, and they alone decide ``==``, ``hash`` and ``repr``.
    No ``__slots__``, so ``pickle`` and ``copy`` restore the ``__dict__`` as they are."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # on the error path only: slow to import
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DriveProblem(_Frozen):
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

    def __init__(self, exit_payoffs, terminal_payoff) -> None:
        object.__setattr__(self, "exit_payoffs", _as_finite_floats(exit_payoffs, "exit_payoffs"))
        (terminal,) = _as_finite_floats((terminal_payoff,), "terminal_payoff")
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


# Rounding slack per destination, in an entry or a sum; beyond it is a logic bug.
_ROUNDING = 1e-15


class DestinationDistribution(_Frozen):
    """Probabilities over destinations ``1..k`` (exits in order, then terminal)."""

    probs: tuple[float, ...]

    def __init__(self, probs) -> None:
        try:
            probs = tuple(map(float, probs))
        except TypeError:  # a nested sequence
            probs = ()
        if not probs:
            raise ValueError("distribution must be a non-empty 1-d probability vector")
        low, high = min(probs), max(probs)
        if not (low >= -_ROUNDING and high <= 1.0 + _ROUNDING):
            raise ValueError("internal error: probability outside [0, 1] beyond rounding")
        if low < 0.0 or high > 1.0:  # clamp the rounding noise; -0.0 stays as it is
            probs = tuple(0.0 if p < 0.0 else 1.0 if p > 1.0 else p for p in probs)
        total = math.fsum(probs)
        # min and max pass over a NaN unless it comes first, but the sum is NaN then
        if not abs(total - 1.0) <= len(probs) * _ROUNDING:
            raise ValueError(f"internal error: distribution sums to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def mean(self, payoffs) -> float:
        """Expected payoff: the correctly rounded sum, in any order, of the rounded
        products ``probs * payoffs``, one payoff per destination."""
        total, scale = _scaled_sum([p * v for p, v in zip(self.probs, payoffs, strict=True)])
        return total * scale


class SelectionProblem(_Frozen):
    """Pick two of ``n`` destinations in successive rounds.

    The first pick is struck from the list before the second round is driven.
    """

    destination_payoffs: tuple[float, ...]

    def __init__(self, destination_payoffs) -> None:
        object.__setattr__(
            self,
            "destination_payoffs",
            _as_finite_floats(destination_payoffs, "destination_payoffs"),
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


class Stationary(_Frozen):
    """Exit with the same probability ``alpha`` at every intersection.

    The only strategy available to a driver with zero memory and full
    knowledge of the payoffs.
    """

    alpha: float

    def __init__(self, alpha) -> None:
        object.__setattr__(self, "alpha", _check_probability(alpha, "alpha"))


class Counting(_Frozen):
    """Exit with probability ``1/(k - i + 1)`` at intersection ``i``.

    Needs one item of memory (the intersection count, which the car can
    supply) and no payoff knowledge; it lands on each of the ``k``
    destinations with probability exactly ``1/k``.
    """


class PerStep(_Frozen):
    """An explicit exit probability for each intersection."""

    exit_probs: tuple[float, ...]

    def __init__(self, exit_probs) -> None:
        probs = tuple(
            _check_probability(p, f"exit_probs[{j}]") for j, p in enumerate(exit_probs)
        )
        object.__setattr__(self, "exit_probs", probs)
