"""Maximizing expected payoff over the stationary exit probability.

:func:`optimize_stationary` maximizes the stationary payoff of a drive
problem, the polynomial whose coefficients are the problem's payoffs.  The
search runs in ``beta = 1 - alpha`` on the payoffs themselves, with the value
and its derivative from the nested loop that evaluates the polynomial.
Candidates are both endpoints of [0, 1] plus interior roots of the
derivative: every root of a derivative of degree <= 2, else the maxima that
one halving loop locates while it bounds ``p`` on every segment (Lipschitz
pruning, Hansen, Jaumard & Lu, Math. Programming 55, 1992).  Ties go to the
smallest maximizing ``alpha``, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .classical import stationary_payoff
from .model import DriveProblem


@dataclass(frozen=True)
class OptimizationResult:
    """Maximizer, maximum, which route produced them, and ``gap``: how far the
    largest bound of a closed segment lies above ``payoff_star`` (0 for the
    closed form), leaving out the rounding error of each evaluation."""

    alpha_star: float
    payoff_star: float
    method: str  # "closed_form" or "numeric"
    gap: float


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


def _search(v: np.ndarray) -> tuple[list[float], float]:
    """Maxima of ``p`` and the largest bound on ``p`` over the closed segments.

    In ``beta``, with the payoffs ``v`` and their median ``k``, ``p - k = (1 -
    beta) sum_(j<m) (v_j - k) beta**j + (v_m - k) beta**m``, so on ``[a, b]``
    ``|p''| <= M = (1 - a) s(b) + t(b)`` with ``s = sum_j j (j-1) |v_j - k|
    beta**(j-2)``, ``t = sum_j 2 j |v_j - k| beta**(j-1) + m (m-1) |v_m - k|
    beta**(m-2)``, and ``p <= max(p(a), p(b)) + (b - a)**2 M / 8``.  A segment
    is halved while that bound could beat the best value seen by more than
    ``tol = 1e-12 max |v|``, or while it holds a maximum (``p'`` from ``>= 0``
    to ``< 0``) within ``tol`` of the best, down to adjacent floats.
    """
    m = v.size - 1
    tol, u = 1e-12 * float(np.abs(v).max()), np.abs(v - np.partition(v, m // 2)[m // 2])
    rows = np.zeros((3, m + 1))
    rows[0], rows[1, :-3], rows[2, :-2] = v, npoly.polyder(u[:-1], 2), 2.0 * npoly.polyder(u[:-1])
    rows[2, m - 2] += m * (m - 1) * u[-1]
    last, terms = float(v[-1]), rows[:, -2::-1].T.tolist()  # s and t have no beta**m term

    def point(x: float) -> tuple[float, float, bool, float, float]:
        """``(x, p(x), p'(x) >= 0, s(x), t(x))``: ``p`` by the nested loop
        from the terminal payoff, ``p'`` by its derivative, ``s`` and ``t`` by
        Horner's rule."""
        y, p, d, s, t = 1.0 - x, last, 0.0, 0.0, 0.0
        for vj, sj, tj in terms:
            d = x * d + p - vj
            p = y * vj + x * p
            s = s * x + sj
            t = t * x + tj
        return x, p, d >= 0.0, s, t

    lo, hi = point(0.0), point(1.0)
    best, top, roots, todo = max(lo[1], hi[1]), -math.inf, [], [(lo, hi)]
    while todo:
        a, b = todo.pop()
        bound = max(a[1], b[1]) + (b[0] - a[0]) ** 2 * ((1.0 - a[0]) * b[3] + b[4]) / 8.0
        peak = a[2] and not b[2]
        mid = (a[0] + b[0]) / 2.0
        if (bound > best + tol or peak and bound >= best - tol) and a[0] < mid < b[0]:
            x = point(mid)
            best = max(best, x[1])
            todo += [(a, x), (x, b)] if x[2] else [(x, b), (a, x)]  # uphill half first
        else:
            top = max(top, bound)
            if peak:
                roots.append(a[0])
    return roots, top


def optimize_stationary(problem: DriveProblem) -> OptimizationResult:
    """Best stationary exit probability: the global maximum over [0, 1] of
    the stationary payoff.

    The payoffs are scaled by a power of two to a largest magnitude in
    [1/2, 1), which moves no root, keeps every difference and sum finite and
    makes :func:`_search` scale-free.  The candidates are then evaluated on
    the payoffs as given.
    """
    payoffs = problem.destination_payoffs
    exponent = math.frexp(max(map(abs, payoffs)))[1]
    v = np.ldexp(payoffs, -exponent)
    # the derivative in beta, trailing zeros cut
    deriv = tuple(npoly.polytrim(npoly.polyder(np.diff(v, prepend=0.0))).tolist())
    if len(deriv) <= 3:
        interior, top, method = _closed_form_roots(deriv), -math.inf, "closed_form"
    else:
        interior, top, method = *_search(v), "numeric"
    xs = sorted({0.0, 1.0, *(1.0 - r for r in interior if 0.0 < r < 1.0)})
    ys = [stationary_payoff(problem, x) for x in xs]
    best = ys.index(max(ys))  # the first maximum: the smallest alpha
    gap = max(0.0, top - math.ldexp(ys[best], -exponent))
    return OptimizationResult(xs[best], ys[best], method, math.ldexp(gap, exponent))
