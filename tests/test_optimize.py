import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from absentdriver import (
    SelectionProblem,
    Stationary,
    beta_coefficients,
    expected_payoff,
    make_drive_problem,
    optimize_stationary,
    optimize_two_round,
    stationary_payoff,
)
from oracles import exact_payoff, from_beta, mixed_magnitude_payoffs, residual_problem


def grid_argmax(f, points):
    """Oracle: exhaustive scan; first index wins ties, i.e. smallest alpha."""
    xs = np.linspace(0.0, 1.0, points)
    ys = np.array([f(x) for x in xs])
    i = int(np.argmax(ys))
    return float(xs[i]), float(ys[i])


class TestMaximizePolynomial:
    def test_example1_polynomial(self):
        result = optimize_stationary(from_beta((0.0, 4.0, -3.0)))
        assert result.alpha_star == pytest.approx(1 / 3, abs=1e-12)
        assert result.payoff_star == pytest.approx(4 / 3, abs=1e-12)
        assert result.method == "closed_form"
        assert result.gap == 0.0

    def test_constant_ties_break_to_zero(self):
        result = optimize_stationary(from_beta((5.0, 0.0)))
        assert result.alpha_star == 0.0
        assert result.payoff_star == 5.0

    def test_monotone_takes_endpoint(self):
        result = optimize_stationary(from_beta((1.0, -1.0)))
        assert result.alpha_star == 1.0
        assert result.payoff_star == 1.0

    def test_convex_interior_minimum_is_skipped(self):
        # (1/2 - b)^2 = (a - 1/2)^2 has its stationary point at a minimum; ends win.
        result = optimize_stationary(from_beta((0.25, -1.0, 1.0)))
        assert result.alpha_star == 0.0
        assert result.payoff_star == pytest.approx(0.25)

    def test_trailing_zero_coefficients_ignored(self):
        result = optimize_stationary(from_beta((0.0, 4.0, -3.0, 0.0)))
        assert result.alpha_star == pytest.approx(1 / 3, abs=1e-12)
        assert result.method == "closed_form"

    def test_taller_of_two_interior_peaks(self):
        # Stationary points near b = 0.2, 0.5, 0.8: peaks at a ~ 0.8 and
        # a ~ 0.2, the first tilted higher; the minimum between them is skipped.
        problem = from_beta((0.0, 79.0, -330.0, 500.0, -250.0))
        result = optimize_stationary(problem)
        assert result.method == "numeric"
        assert result.alpha_star == pytest.approx(0.8, abs=0.01)
        assert type(result.alpha_star) is float
        _, best = grid_argmax(lambda a: stationary_payoff(problem, [a])[0], 100_001)
        assert best - 1e-9 <= result.payoff_star <= best + 1e-6
        assert result.payoff_star == stationary_payoff(problem, [result.alpha_star])[0]

    def test_quartic_uses_bisection(self):
        problem = make_drive_problem([2, 5, 3, 1], 0)
        result = optimize_stationary(problem)
        assert result.method == "numeric"
        _, best = grid_argmax(lambda a: stationary_payoff(problem, [a])[0], 100_001)
        assert result.payoff_star >= best - 1e-9


def power(problem, k):
    """The drive whose stationary payoff is ``problem``'s to the ``k``-th
    power: the same maximizer wherever that payoff is ``> 0``, at a degree
    that takes the numeric route."""
    return from_beta(npoly.polypow(beta_coefficients(problem), k))


class TestNumericMaximize:
    """The ``method="numeric"`` route of ``optimize_stationary``: objectives
    above degree 3, maximized by the halving loop over segments of [0, 1]."""

    def test_example1_objective(self):
        # (1 + 2a - 3a^2)^2, positive on [0, 1) with its peak at a = 1/3
        result = optimize_stationary(power(from_beta((0.0, 4.0, -3.0)), 2))
        assert result.alpha_star == pytest.approx(1 / 3, abs=1e-9)
        assert result.payoff_star == pytest.approx(16 / 9, abs=1e-12)
        assert result.method == "numeric"

    def test_selection_average_objective(self):
        # ((10 + 6a - 6a^2) / 4)^2; in beta the quadratic is (10 + 6b - 6b^2) / 4
        result = optimize_stationary(power(from_beta((2.5, 1.5, -1.5)), 2))
        assert result.method == "numeric"
        assert result.alpha_star == pytest.approx(0.5, abs=1e-8)
        assert result.payoff_star == pytest.approx((23 / 8) ** 2, abs=1e-12)

    def test_constant_objective_ties_to_zero(self):
        result = optimize_stationary(from_beta((2.0,)))
        assert result.alpha_star == 0.0
        assert result.payoff_star == 2.0

    def test_result_at_least_grid_maximum(self):
        # Taylor expansion in b = 1 - a of sin(13a) + 0.5a, to degree 60
        f = lambda a: math.sin(13 * a) + 0.5 * a
        coeffs = [0.5 + math.sin(13.0), -0.5 - 13.0 * math.cos(13.0)]
        for j in range(2, 61):
            lead = math.sin(13.0) if j % 2 == 0 else -math.cos(13.0)
            coeffs.append((-1) ** (j // 2) * lead * 13.0**j / math.factorial(j))
        problem = from_beta(coeffs)
        grid = np.linspace(0.0, 1.0, 1001)
        assert stationary_payoff(problem, grid) == pytest.approx([f(a) for a in grid], abs=1e-9)
        result = optimize_stationary(problem)
        assert result.method == "numeric"
        _, best = grid_argmax(f, 1001)
        assert result.payoff_star >= best - 1e-6


def spike_problem():
    """Exit 1100 of 3300 pays 3300, the others 0, the terminal 1.05: the peak
    near alpha = 7.085e-4 and the minimum after it both lie in beta > 1000/1001."""
    exits = [0.0] * 3300
    exits[1099] = 3300.0
    return make_drive_problem(exits, 1.05)


def payoff_family(kind, m, rng):
    """``m + 1`` payoffs: uniform, an early spike on low noise, or oscillating."""
    if kind == "uniform":
        return rng.uniform(0.0, 10.0, size=m + 1)
    if kind == "early-spike":
        v = rng.uniform(0.0, 1.0, size=m + 1)
        v[rng.integers(0, max(1, m // 10))] += 100.0
        return v
    phase = 2 * np.pi * np.arange(m + 1) / rng.uniform(2.0, 50.0) + rng.uniform(0.0, 2 * np.pi)
    return 5.0 + 5.0 * np.cos(phase)


FAMILIES = ("uniform", "early-spike", "oscillating")


class TestCertifiedSearch:
    """The numeric route bounds ``p`` on every segment it closes."""

    def test_root_pair_inside_one_scan_segment(self):
        # p' > 0 at both ends of the last of 1001 equal segments in beta, so a
        # sign-change scan over them sees no root, yet the maximum lies inside
        problem = spike_problem()
        deriv = npoly.polyder(beta_coefficients(problem))
        assert npoly.polyval(1000 / 1001, deriv) > 0.0 and npoly.polyval(1.0, deriv) > 0.0
        result = optimize_stationary(problem)
        assert result.method == "numeric"
        assert result.alpha_star == pytest.approx(7.085e-4, abs=1e-7)
        assert result.payoff_star == pytest.approx(1.17419454118, abs=1e-11)
        assert 0.0 <= result.gap <= 1e-12 * 3300.0

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("m", [30, 1000, 8192])
    def test_gap_within_tolerance(self, m, kind):
        v = payoff_family(kind, m, np.random.default_rng([m, FAMILIES.index(kind)]))
        result = optimize_stationary(make_drive_problem(v[:-1], v[-1]))
        assert result.method == "numeric"
        assert 0.0 <= result.gap <= 1e-12 * np.abs(v).max()

    def test_grid_never_beats_the_bound(self):
        rng = np.random.default_rng(2026)
        a = np.linspace(0.0, 1.0, 2001)[:, None]
        for i in range(60):
            m = int(rng.integers(4, 400))
            v = payoff_family(FAMILIES[i % 3], m, rng)
            result = optimize_stationary(make_drive_problem(v[:-1], v[-1]))
            # product form: exit j at alpha (1 - alpha)^(j - 1), the terminal at (1 - alpha)^m
            keep = (1.0 - a) ** np.arange(m + 1)
            grid = np.hstack([a * keep[:, :-1], keep[:, -1:]]) @ v
            rounding = 1e-15 * m * np.abs(v).max()
            assert grid.max() <= result.payoff_star + result.gap + rounding


class TestOptimizeStationary:
    def test_example1(self):
        result = optimize_stationary(make_drive_problem([0, 4], 1))
        assert (result.alpha_star, result.payoff_star) == (
            pytest.approx(1 / 3, abs=1e-12),
            pytest.approx(4 / 3, abs=1e-12),
        )

    def test_example2_same_optimum(self):
        result = optimize_stationary(make_drive_problem([0, 4, 1], 1))
        assert result.alpha_star == pytest.approx(1 / 3, abs=1e-12)
        assert result.payoff_star == pytest.approx(4 / 3, abs=1e-12)

    def test_derivative_double_root_at_origin(self):
        # payoff 1 + beta**3: its derivative 3 beta**2 has a double root at beta = 0
        result = optimize_stationary(make_drive_problem([1, 1, 1], 2))
        assert (result.alpha_star, result.payoff_star, result.method) == (0.0, 2.0, "closed_form")

    def test_four_exit_problem_against_grid_oracle(self):
        problem = make_drive_problem([2, 5, 3, 1], 0)
        result = optimize_stationary(problem)
        _, best = grid_argmax(lambda a: expected_payoff(problem, Stationary(a)), 100_001)
        assert abs(result.payoff_star - best) <= 1e-6
        assert result.payoff_star >= best - 1e-9

    def test_payoff_consistent_with_alpha(self):
        problem = make_drive_problem([2, 5, 3, 1], 0)
        result = optimize_stationary(problem)
        assert result.payoff_star == pytest.approx(
            expected_payoff(problem, Stationary(result.alpha_star)), abs=1e-9
        )


class TestOptimizerProperties:
    def test_random_problems_beat_grid_and_scale(self):
        rng = np.random.default_rng(90210)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            problem = make_drive_problem(rng.uniform(0, 10, size=m), rng.uniform(0, 10))
            result = optimize_stationary(problem)
            assert 0.0 <= result.alpha_star <= 1.0
            best = max(stationary_payoff(problem, grid))
            assert best - 1e-9 <= result.payoff_star <= best + 1e-6
            assert result.payoff_star == pytest.approx(
                expected_payoff(problem, Stationary(result.alpha_star)), abs=1e-12
            )

            scaled = make_drive_problem(
                [3.0 * p for p in problem.exit_payoffs], 3.0 * problem.terminal_payoff
            )
            scaled_result = optimize_stationary(scaled)
            assert scaled_result.alpha_star == pytest.approx(result.alpha_star, abs=1e-9)
            assert scaled_result.payoff_star == pytest.approx(3.0 * result.payoff_star, abs=1e-9)

    def test_closed_form_agrees_with_numeric(self):
        # A stationary payoff with positive payoffs is positive on [0, 1], so
        # its fourth power has the same maximizer but takes the numeric route.
        rng = np.random.default_rng(555)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            problem = make_drive_problem(rng.uniform(0, 10, size=m), rng.uniform(0, 10))
            analytic = optimize_stationary(problem)
            numeric = optimize_stationary(power(problem, 4))
            assert (analytic.method, numeric.method) == ("closed_form", "numeric")
            close_alpha = abs(analytic.alpha_star - numeric.alpha_star) <= 1e-6
            at_numeric = stationary_payoff(problem, [numeric.alpha_star])[0]
            close_payoff = abs(analytic.payoff_star - at_numeric) <= 1e-9
            assert close_alpha or close_payoff


def payoff_tol(payoffs):
    return 1e-12 * (1.0 + np.abs(payoffs).max())


class TestLargeSizes:
    """Against the direct product form, at sizes where an expansion in alpha
    loses every digit."""

    @pytest.mark.parametrize("m", [30, 60, 200, 1000])
    def test_optimize_stationary_bounds(self, m):
        rng = np.random.default_rng(7 * m)
        payoffs = rng.uniform(0.0, 10.0, size=m + 1)
        problem = make_drive_problem(payoffs[:-1], payoffs[-1])
        result = optimize_stationary(problem)
        tol = payoff_tol(payoffs)
        assert type(result.alpha_star) is float
        assert result.payoff_star <= payoffs.max() + tol
        assert result.payoff_star == pytest.approx(
            expected_payoff(problem, Stationary(result.alpha_star)), abs=tol
        )
        _, best = grid_argmax(lambda a: expected_payoff(problem, Stationary(a)), 1001)
        assert result.payoff_star >= best - tol

    @pytest.mark.parametrize("n", [64, 200])
    def test_two_round_bounds(self, n):
        payoffs = np.random.default_rng(n).uniform(0.0, 10.0, size=n)
        result = optimize_two_round(SelectionProblem(tuple(payoffs)))
        tol = payoff_tol(payoffs)
        assert result.payoff_star <= np.sort(payoffs)[-2:].sum() + tol
        # first pick uniform, second round driven at alpha* on the survivors
        drive = make_drive_problem(payoffs[:-1], payoffs[-1])
        direct = np.mean([
            payoffs[c - 1] + expected_payoff(residual_problem(drive, c), Stationary(result.alpha_star))
            for c in range(1, n + 1)
        ])
        assert result.payoff_star == pytest.approx(direct, abs=tol)


class TestPayoffMagnitude:
    """Roots are computed on payoffs scaled by a power of two; values on the
    payoffs as given, a weighted mean that cannot overflow."""

    def test_payoffs_near_float_max(self):
        # unscaled, j * c_j overflows the derivative and the optimum falls
        # below the grid maximum in about a third of these problems
        rng = np.random.default_rng(0)
        big = np.finfo(float).max / 4
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(40):
            m = int(rng.integers(1, 401))
            payoffs = rng.uniform(-big, big, size=m + 1)
            problem = make_drive_problem(payoffs[:-1], payoffs[-1])
            result = optimize_stationary(problem)
            tol = 1e-9 * big
            assert result.payoff_star >= max(stationary_payoff(problem, grid)) - tol
            assert result.payoff_star == pytest.approx(
                expected_payoff(problem, Stationary(result.alpha_star)), abs=tol
            )

    # 1010 puts the largest payoffs near 2**1013, ten bits below the float limit
    @pytest.mark.parametrize("exponent", [-900, -40, 40, 900, 1010])
    def test_power_of_two_scaling_is_exact(self, exponent):
        payoffs = np.random.default_rng(31).uniform(0.0, 10.0, size=65)
        base = optimize_stationary(make_drive_problem(payoffs[:-1], payoffs[-1]))
        scaled = np.ldexp(payoffs, exponent)
        result = optimize_stationary(make_drive_problem(scaled[:-1], scaled[-1]))
        assert result.method == base.method == "numeric"
        assert result.alpha_star == base.alpha_star
        assert result.payoff_star == math.ldexp(base.payoff_star, exponent)

    @pytest.mark.parametrize("exponent", [-1000, -900, 900, 1000])
    def test_closed_form_at_any_magnitude(self, exponent):
        # a quadratic derivative: unnormalized, b * b under- or overflows
        payoffs = [math.ldexp(v, exponent) for v in (0.0, 1.0, 3.0, 1.0)]
        result = optimize_stationary(make_drive_problem(payoffs[:-1], payoffs[-1]))
        base = optimize_stationary(make_drive_problem([0.0, 1.0, 3.0], 1.0))
        assert result.method == base.method == "closed_form"
        assert result.alpha_star == base.alpha_star > 0.0
        assert result.payoff_star == math.ldexp(base.payoff_star, exponent)

    def test_maximum_behind_an_overflowing_horner_step(self):
        # unscaled, -1.7e308 - 0.15e308 * beta is -inf for alpha < 0.353,
        # which hid the maximum at alpha = 0 behind the finite values
        problem = make_drive_problem([-1.7e308] * 4 + [5e306, 1e308, -7e307], -8.5e307)
        result = optimize_stationary(problem)
        assert result.alpha_star == 0.0
        assert result.payoff_star == pytest.approx(-8.5e307, rel=1e-15)

    def test_optimum_past_float_range_differences(self):
        # beta coefficients 1e308, -2e308, 2e308: the middle one is not a float
        problem = make_drive_problem([1e308, -1e308], 1e308)
        result = optimize_stationary(problem)
        assert (result.alpha_star, result.payoff_star) == (0.0, 1e308)


class TestAgainstExactArithmetic:
    """The optimum for mixed-magnitude payoffs ``+-10**U(-3, 16)``, checked in
    exact arithmetic: its value at ``alpha*`` within ``1e-12 E|v|``, and no
    point of a 201-point grid above it by more than ``1e-12 max |v|``."""

    def test_optimum_against_exact_grid(self):
        rng = np.random.default_rng(1702)
        grid = [Fraction(i, 200) for i in range(201)]
        for _ in range(500):
            v = mixed_magnitude_payoffs(rng, int(rng.integers(3, 14)))
            result = optimize_stationary(make_drive_problem(v[:-1], v[-1]))
            at_optimum = exact_payoff(v, result.alpha_star)
            scale = float(exact_payoff(np.abs(v), result.alpha_star))
            assert abs(result.payoff_star - at_optimum) <= 1e-12 * scale
            best = max(exact_payoff(v, a) for a in grid)
            assert result.payoff_star >= best - 1e-12 * np.abs(v).max()
