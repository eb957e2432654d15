"""Maximizing expected payoff over the stationary exit probability.

The payoff polynomial is stored in ``beta = 1 - alpha``, so the work happens
there.  Candidates are always both endpoints of [0, 1] plus every real root
of the ``beta`` derivative strictly inside the interval, mapped back with
``alpha = 1 - beta``; an interior stationary point can just as well be a
minimum.  Ties are broken toward the smallest maximizing ``alpha`` so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .classical import PayoffPolynomial, stationary_payoff_polynomial
from .model import DriveProblem

# Partition of [0, 1] scanned for sign changes before bisection.
_ROOT_SEGMENTS = 1001
_BISECT_WIDTH = 1e-15


@dataclass(frozen=True)
class OptimizationResult:
    """Maximizer, maximum, and which route produced them."""

    alpha_star: float
    payoff_star: float
    method: str  # "closed_form" or "numeric"


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of ``a x^2 + b x + c`` with ``a != 0``, numerically stable."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    q = -(b + math.copysign(sq, b)) / 2.0
    if q == 0.0:  # b == 0 and disc == 0: double root at the origin
        return (0.0,)
    return (q / a, c / q)


def _closed_form_roots(deriv: tuple[float, ...]) -> tuple[float, ...]:
    """Roots of a derivative of degree <= 2 (trailing zeros already trimmed)."""
    if len(deriv) == 1:
        return ()  # constant, possibly the zero polynomial
    if len(deriv) == 2:
        return (-deriv[0] / deriv[1],)
    return _quadratic_roots(deriv[2], deriv[1], deriv[0])


def _bisection_roots(deriv: tuple[float, ...]) -> tuple[float, ...]:
    """Roots in [0, 1] via sign changes over a fixed partition, then bisection."""
    xs = np.linspace(0.0, 1.0, _ROOT_SEGMENTS + 1)
    ys = npoly.polyval(xs, deriv)
    roots = xs[ys == 0.0].tolist()
    signs = np.sign(ys)
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        lo, hi, ylo = float(xs[i]), float(xs[i + 1]), float(ys[i])
        while hi - lo > _BISECT_WIDTH:
            mid = (lo + hi) / 2.0
            ymid = 0.0  # Horner's rule on Python floats, as polyval steps
            for c in reversed(deriv):
                ymid = ymid * mid + c
            if ymid == 0.0:
                lo = hi = mid
                break
            if (ymid > 0.0) == (ylo > 0.0):
                lo, ylo = mid, ymid
            else:
                hi = mid
        roots.append((lo + hi) / 2.0)
    return tuple(roots)


def maximize_polynomial(poly: PayoffPolynomial) -> OptimizationResult:
    """Global maximum of the polynomial over [0, 1].

    The derivative is taken in ``beta``.  Derivatives of degree <= 2 are
    solved in closed form; higher degrees fall back to sign-change bisection
    over a fixed partition of the interval.  The derivative is taken on
    ``PayoffPolynomial.scaled`` coefficients, so no ``j * c_j`` overflows,
    and then scaled by a power of two to unit size, which does not move its
    roots.  A candidate whose payoff is outside the float range is refused,
    never skipped.
    """
    deriv = npoly.polyder(poly.scaled[0])
    # roots are scale-free, but the quadratic formula squares coefficients
    # and the sign tests need normal floats: bring the largest near 1
    deriv = tuple(np.ldexp(deriv, -math.frexp(np.abs(deriv).max())[1]).tolist())
    while len(deriv) > 1 and deriv[-1] == 0.0:
        deriv = deriv[:-1]
    if len(deriv) <= 3:
        interior = _closed_form_roots(deriv)
        method = "closed_form"
    else:
        interior = _bisection_roots(deriv)
        method = "numeric"
    candidates = {0.0, 1.0}
    candidates.update(1.0 - r for r in interior if 0.0 < r < 1.0)
    xs = sorted(candidates)
    ys = [float(poly(x)) for x in xs]
    if not all(map(math.isfinite, ys)):
        raise ValueError("result is not finite")
    best = ys.index(max(ys))  # the first maximum: the smallest alpha
    return OptimizationResult(xs[best], ys[best], method)


def optimize_stationary(problem: DriveProblem) -> OptimizationResult:
    """Best stationary exit probability for a drive problem."""
    return maximize_polynomial(stationary_payoff_polynomial(problem))
