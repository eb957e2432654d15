from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from absentdriver import (
    Counting,
    SelectionProblem,
    Stationary,
    beta_coefficients,
    counting_round_values,
    expected_payoff,
    first_choice_totals,
    make_drive_problem,
    optimize_two_round,
    stationary_payoff,
    two_round_average_drive,
)
from oracles import residual_problem

SELECTION_EXAMPLE = SelectionProblem((0, 4, 1, 1))


def counting_total(sel):
    """``select``'s counting average total: each destination is the first pick
    or the second with probability ``1/n``, so it is ``2 * mean(v)``."""
    return 2 * two_round_average_drive(sel)[0]


def brute_force_counting_total(payoffs):
    """Oracle: enumerate ordered (first, second) pairs with uniform picks."""
    n = len(payoffs)
    total = 0.0
    for i, j in permutations(range(n), 2):
        total += (payoffs[i] + payoffs[j]) / (n * (n - 1))
    return total


class TestResidualProblem:
    def test_remove_second_destination(self):
        drive = make_drive_problem([0, 4, 1], 1)
        residual = residual_problem(drive, 2)
        assert residual.exit_payoffs == (0.0, 1.0)
        assert residual.terminal_payoff == 1.0

    def test_remove_terminal_destination(self):
        drive = make_drive_problem([0, 4, 1], 1)
        residual = residual_problem(drive, 4)
        assert residual.exit_payoffs == (0.0, 4.0)
        assert residual.terminal_payoff == 1.0

    def test_two_destinations_leave_forced_outcome(self):
        drive = make_drive_problem([3.0], 7.0)
        residual = residual_problem(drive, 1)
        assert residual.exit_payoffs == ()
        assert residual.terminal_payoff == 7.0

    def test_bad_destination(self):
        drive = make_drive_problem([0, 4], 1)
        with pytest.raises(ValueError, match="bad destination"):
            residual_problem(drive, 4)
        with pytest.raises(ValueError, match="bad destination"):
            residual_problem(drive, 0)

    def test_preserves_multiset_and_order(self):
        drive = make_drive_problem([5, 2, 9, 2], 7)
        for removed in range(1, 6):
            residual = residual_problem(drive, removed)
            expected = list(drive.destination_payoffs)
            del expected[removed - 1]
            assert list(residual.destination_payoffs) == expected


ALPHAS = (0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0)


class TestFirstChoiceTotals:
    def test_example_per_choice_totals(self):
        # the paper's per-choice polynomials: 1 + 3a, 5 - a, and 2 + 2a - 3a^2 twice
        for a in ALPHAS:
            want = (1 + 3 * a, 5 - a, 2 + 2 * a - 3 * a * a, 2 + 2 * a - 3 * a * a)
            assert first_choice_totals(SELECTION_EXAMPLE, a) == pytest.approx(want, abs=1e-12)

    def test_mean_at_optimum_is_payoff_star(self):
        best = optimize_two_round(SELECTION_EXAMPLE)
        totals = first_choice_totals(SELECTION_EXAMPLE, best.alpha_star)
        assert totals == pytest.approx((2.5, 4.5, 2.25, 2.25), abs=1e-12)
        assert np.asarray(totals).mean() == pytest.approx(best.payoff_star, abs=1e-12)
        assert best.payoff_star == pytest.approx(23 / 8, abs=1e-12)


def average_beta_coeffs(sel):
    """``beta`` coefficients of ``mean(v) + p``: the mean joins ``b0`` only."""
    mean, drive = two_round_average_drive(sel)
    b0, *higher = beta_coefficients(drive)
    return (b0 + mean, *higher)


class TestTwoRoundAveragePolynomial:
    def test_example_coefficients(self):
        # 2.5 + 1.5b - 1.5b^2 with b = 1 - a is the paper's (1/4)(10 + 6a - 6a^2)
        want = (10 / 4, 6 / 4, -6 / 4)
        assert average_beta_coeffs(SELECTION_EXAMPLE) == pytest.approx(want, abs=1e-12)

    def test_all_zero_payoffs(self):
        assert average_beta_coeffs(SelectionProblem((0.0, 0.0, 0.0))) == (0.0, 0.0)

    def test_two_destination_edge(self):
        assert average_beta_coeffs(SelectionProblem((3.0, 8.0))) == (11.0,)

    def test_mean_stays_out_of_the_differences(self):
        # folded into each payoff, the mean 7.5e15 would round the step 0.5 to 0
        mean, drive = two_round_average_drive(SelectionProblem((0.0, 0.0, 1.0, 3e16)))
        assert (mean, beta_coefficients(drive)[:2]) == (7.5e15, (0.0, 0.5))


@pytest.mark.parametrize("n", [2, 3, 50, 64, 200, 400])
class TestClosedFormsAgainstResidualDrives:
    """The O(n) closed forms against the per-first-choice drives they replace."""

    @staticmethod
    def case(n):
        payoffs = np.random.default_rng(n).uniform(0.0, 10.0, size=n)
        return payoffs, SelectionProblem(tuple(payoffs)), 1e-12 * (1.0 + np.abs(payoffs).max())

    def test_first_choice_totals_match_residual_drives(self, n):
        payoffs, sel, tol = self.case(n)
        drive = make_drive_problem(payoffs[:-1], payoffs[-1])
        for a in ALPHAS:
            want = [
                payoffs[c - 1] + expected_payoff(residual_problem(drive, c), Stationary(a))
                for c in range(1, n + 1)
            ]
            assert np.abs(np.asarray(first_choice_totals(sel, a)) - want).max() <= tol

    def test_average_polynomial_is_mean_of_first_choice_totals(self, n):
        payoffs, sel, tol = self.case(n)
        mean, drive = two_round_average_drive(sel)
        for a in ALPHAS:
            average = mean + stationary_payoff(drive, [a])[0]
            assert abs(np.asarray(first_choice_totals(sel, a)).mean() - average) <= tol

    def test_counting_values_match_residual_drives(self, n):
        payoffs, sel, tol = self.case(n)
        drive = make_drive_problem(payoffs[:-1], payoffs[-1])
        for k, (first, second) in enumerate(counting_round_values(sel), start=1):
            assert first == payoffs[k - 1]
            direct = expected_payoff(residual_problem(drive, k), Counting())
            assert second == pytest.approx(direct, abs=tol)


class TestOptimizeTwoRound:
    def test_example_optimum(self):
        result = optimize_two_round(SELECTION_EXAMPLE)
        assert result.alpha_star == pytest.approx(0.5, abs=1e-12)
        assert result.payoff_star == pytest.approx(23 / 8, abs=1e-12)

    def test_equal_payoffs_give_double(self):
        result = optimize_two_round(SelectionProblem((2.5,) * 4))
        assert result.alpha_star == 0.0  # tie-break on a flat objective
        assert result.payoff_star == pytest.approx(5.0, abs=1e-12)

    def test_against_grid_oracle(self):
        sel = SelectionProblem((3, 1, 0, 2))
        mean, drive = two_round_average_drive(sel)
        result = optimize_two_round(sel)
        grid = np.linspace(0.0, 1.0, 100_001)
        best = mean + max(stationary_payoff(drive, grid))
        assert abs(result.payoff_star - best) <= 1e-6
        assert result.payoff_star >= best - 1e-9


class TestTwoRoundCountingTotal:
    def test_example_total_and_per_choice_values(self):
        values = counting_round_values(SELECTION_EXAMPLE)
        expected = ((0.0, 2.0), (4.0, 2 / 3), (1.0, 5 / 3), (1.0, 5 / 3))
        for got, want in zip(values, expected, strict=True):
            assert got == pytest.approx(want)
        assert counting_total(SELECTION_EXAMPLE) == pytest.approx(3.0, abs=1e-12)

    def test_equal_payoffs(self):
        assert counting_total(SelectionProblem((2.5,) * 4)) == pytest.approx(5.0)

    def test_against_pair_enumeration_oracle(self):
        payoffs = (3.0, 1.0, 0.0, 2.0)
        total = counting_total(SelectionProblem(payoffs))
        assert total == pytest.approx(brute_force_counting_total(payoffs), abs=1e-12)

    @pytest.mark.parametrize(
        "payoffs",
        [(0.0, 4.0, 1.0, 1.0), (3.0, 1.0, 0.0, 2.0), (1.5, -2.0), (9.0, 0.5, 4.0)],
    )
    def test_unsimplified_identity(self, payoffs):
        # (1/n) sum_i [v_i + (sum(v) - v_i) / (n - 1)], kept in this exact shape
        n = len(payoffs)
        s = sum(payoffs)
        identity = sum(v + (s - v) / (n - 1) for v in payoffs) / n
        assert counting_total(SelectionProblem(payoffs)) == pytest.approx(
            identity, abs=1e-12
        )


class TestSelectionImprovement:
    """The counting total minus the optimized stationary total; it can be negative."""

    def test_example_improvement(self):
        sel = SELECTION_EXAMPLE
        improvement = counting_total(sel) - optimize_two_round(sel).payoff_star
        assert improvement == pytest.approx(1 / 8, abs=1e-12)

    def test_equal_payoffs_no_improvement(self):
        sel = SelectionProblem((2.5,) * 4)
        improvement = counting_total(sel) - optimize_two_round(sel).payoff_star
        assert improvement == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_payoffs_favor_stationary(self):
        # one valuable destination: exiting deterministically crushes uniform picks
        payoffs = (10.0, 0.0, 0.0, 0.0)
        sel = SelectionProblem(payoffs)
        improvement = counting_total(sel) - optimize_two_round(sel).payoff_star
        assert improvement < 0.0
        counting = brute_force_counting_total(payoffs)
        best = optimize_two_round(sel).payoff_star
        assert improvement == pytest.approx(counting - best, abs=1e-12)


class TestCorrectlyRoundedSums:
    def test_against_exact_fractions(self):
        # cancelling payoffs of mixed magnitude: a plain float sum or numpy's
        # pairwise mean can lose the small ones, and Python 3.12's sum() differs
        rng = np.random.default_rng(14)
        ulp = Fraction(1, 2**51)
        for _ in range(2000):
            n = int(rng.integers(2, 13))
            signs = rng.choice([-1.0, 1.0], size=n)
            payoffs = (signs * 10.0 ** rng.uniform(-3.0, 16.0, size=n)).tolist()
            sel = SelectionProblem(tuple(payoffs))
            exact = [Fraction(v) for v in payoffs]
            total = sum(exact)
            mean = total / n
            assert abs(Fraction(two_round_average_drive(sel)[0]) - mean) <= ulp * abs(mean)
            assert abs(Fraction(counting_total(sel)) - 2 * mean) <= ulp * abs(2 * mean)
            for (_, second), v in zip(counting_round_values(sel), exact):
                bound = ulp * (abs(total) + abs(v)) / (n - 1)
                assert abs(Fraction(second) - (total - v) / (n - 1)) <= bound
