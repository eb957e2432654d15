"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Analytic checks use 1e-9 unless a tighter bound is stated;
Monte Carlo checks use a 4-sigma budget at one million trials (spurious
failure odds about 1 in 16,000 per check).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from absentdriver import (
    Counting,
    SelectionProblem,
    Stationary,
    beta_coefficients,
    build_state,
    counting_round_values,
    destination_distribution,
    estimate_payoff,
    expected_payoff,
    first_choice_totals,
    first_zero_distribution,
    make_drive_problem,
    optimize_stationary,
    optimize_two_round,
    stationary_payoff,
    two_round_average_drive,
)
from absentdriver.cli import main
from oracles import product_state

TOL = 1e-9
EXAMPLE1 = make_drive_problem([0, 4], 1)
EXAMPLE2 = make_drive_problem([0, 4, 1], 1)
SELECTION = SelectionProblem((0, 4, 1, 1))
BELL = build_state([("01", 1), ("10", 1)], normalize=True)          # exit 1 or 2
SKIP_TWO = build_state([("001", 1), ("110", 1)], normalize=True)    # exit 1 or 3
THIRD_EXIT = build_state([("110", 1)])

MC_TRIALS = 1_000_000
MC_SEED = 20260810


def assert_alpha_form(poly, alpha_coeffs):
    """``poly`` equals ``sum_j alpha_coeffs[j] a^j``: two polynomials of degree
    ``d`` that agree at ``d + 1`` distinct points are the same polynomial."""
    points = np.linspace(0.0, 1.0, len(alpha_coeffs))
    want = np.polynomial.polynomial.polyval(points, alpha_coeffs)
    assert poly(points) == pytest.approx(want, abs=1e-12)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_01_example1_stationary_and_optimum():
    with criterion(1, "example 1: stationary 1/3 pays 4/3 and is the optimum"):
        assert expected_payoff(EXAMPLE1, Stationary(1 / 3)) == pytest.approx(4 / 3, abs=TOL)
        result = optimize_stationary(EXAMPLE1)
        assert result.alpha_star == pytest.approx(1 / 3, abs=TOL)
        assert result.payoff_star == pytest.approx(4 / 3, abs=TOL)


def test_criterion_02_example2_polynomial_and_optimum():
    with criterion(2, "example 2: 1 + 2a - 3a^2 (beta [0, 4, -3, 0]), optimum (1/3, 4/3)"):
        assert beta_coefficients(EXAMPLE2) == pytest.approx((0.0, 4.0, -3.0, 0.0), abs=TOL)
        assert_alpha_form(lambda a: stationary_payoff(EXAMPLE2, a), (1.0, 2.0, -3.0, 0.0))
        result = optimize_stationary(EXAMPLE2)
        assert result.alpha_star == pytest.approx(1 / 3, abs=TOL)
        assert result.payoff_star == pytest.approx(4 / 3, abs=TOL)


def test_criterion_03_counting_uniform_and_payoffs():
    with criterion(3, "counting: uniform for k in 2..10; pays 5/3 (ex1) and 3/2 (ex2)"):
        for k in range(2, 11):
            problem = make_drive_problem(list(range(k - 1)), 5.0)
            dist = destination_distribution(problem, Counting())
            assert np.abs(np.asarray(dist.probs) - 1.0 / k).max() <= 1e-12
        assert expected_payoff(EXAMPLE1, Counting()) == pytest.approx(5 / 3, abs=TOL)
        assert expected_payoff(EXAMPLE2, Counting()) == pytest.approx(3 / 2, abs=TOL)


def test_criterion_04_counting_beats_stationary_on_examples():
    with criterion(4, "example-level comparison: 3/2 > 4/3 and 5/3 > 4/3"):
        assert expected_payoff(EXAMPLE2, Counting()) > optimize_stationary(EXAMPLE2).payoff_star
        assert expected_payoff(EXAMPLE1, Counting()) > optimize_stationary(EXAMPLE1).payoff_star


def test_criterion_05_two_round_selection():
    with criterion(5, "selection (0,4,1,1): avg poly, optimum 23/8, counting 3, gain 1/8"):
        # the mean of the first pick plus one averaged second-round drive
        mean, second = two_round_average_drive(SELECTION)
        b0, *higher = beta_coefficients(second)
        assert (b0 + mean, *higher) == pytest.approx((10 / 4, 6 / 4, -6 / 4), abs=1e-12)
        assert_alpha_form(lambda a: mean + np.array(stationary_payoff(second, a)), (10 / 4, 6 / 4, -6 / 4))

        # per first choice, 1 + 3a and 5 - a: degree 1, so two points each
        for a in (0.0, 0.5):
            totals = first_choice_totals(SELECTION, a)
            assert totals[:2] == pytest.approx((1 + 3 * a, 5 - a), abs=1e-12)

        best = optimize_two_round(SELECTION)
        assert best.alpha_star == pytest.approx(0.5, abs=TOL)
        assert best.payoff_star == pytest.approx(23 / 8, abs=TOL)
        assert np.asarray(first_choice_totals(SELECTION, best.alpha_star)).mean() == pytest.approx(
            23 / 8, abs=TOL
        )

        values = counting_round_values(SELECTION)
        expected = ((0, 2), (4, 2 / 3), (1, 5 / 3), (1, 5 / 3))
        for got, want in zip(values, expected, strict=True):
            assert got == pytest.approx(want, abs=TOL)
        # select's counting average total: each destination is picked first or second w.p. 1/n
        counting_total = 2 * two_round_average_drive(SELECTION)[0]
        assert counting_total == pytest.approx(3.0, abs=TOL)
        improvement = counting_total - optimize_two_round(SELECTION).payoff_star
        assert improvement == pytest.approx(1 / 8, abs=TOL)


def test_criterion_06_quantum_states():
    with criterion(6, "quantum: bell pays 2; |110> exits third; skip-two pays (7+3)/2"):
        assert first_zero_distribution(BELL).probs == pytest.approx([0.5, 0.5, 0.0], abs=TOL)
        assert expected_payoff(EXAMPLE1, BELL) == pytest.approx(2.0, abs=TOL)
        assert first_zero_distribution(THIRD_EXIT).probs == pytest.approx([0, 0, 1, 0], abs=TOL)
        lopsided = make_drive_problem([7, 99, 3], 0)
        assert expected_payoff(lopsided, SKIP_TWO) == pytest.approx(5.0, abs=TOL)


def test_criterion_07_product_state_equals_stationary():
    with criterion(7, "product states reproduce the stationary distribution (m 1..4)"):
        for m in range(1, 5):
            problem = make_drive_problem([1.0] * m, 0.0)
            for alpha in np.linspace(0.0, 1.0, 21):
                quantum = np.asarray(first_zero_distribution(product_state(alpha, m)).probs)
                classical = destination_distribution(problem, Stationary(alpha)).probs
                assert np.abs(quantum - classical).max() <= 1e-9


def test_criterion_08_monte_carlo_oracle():
    cases = [
        (EXAMPLE1, Stationary(1 / 3), expected_payoff(EXAMPLE1, Stationary(1 / 3)),
         destination_distribution(EXAMPLE1, Stationary(1 / 3))),
        (EXAMPLE1, Counting(), expected_payoff(EXAMPLE1, Counting()),
         destination_distribution(EXAMPLE1, Counting())),
        (EXAMPLE2, Counting(), expected_payoff(EXAMPLE2, Counting()),
         destination_distribution(EXAMPLE2, Counting())),
        (EXAMPLE1, BELL, expected_payoff(EXAMPLE1, BELL),
         first_zero_distribution(BELL)),
        (EXAMPLE2, THIRD_EXIT, expected_payoff(EXAMPLE2, THIRD_EXIT),
         first_zero_distribution(THIRD_EXIT)),
        (make_drive_problem([7, 99, 3], 0), SKIP_TWO,
         expected_payoff(make_drive_problem([7, 99, 3], 0), SKIP_TWO),
         first_zero_distribution(SKIP_TWO)),
    ]
    with criterion(8, "Monte Carlo at 1e6 trials: 4-sigma means, TV <= 0.005, bit-identical"):
        for problem, strategy, analytic_mean, analytic_dist in cases:
            report = estimate_payoff(problem, strategy, MC_TRIALS, MC_SEED)
            assert abs(report.mean_payoff - analytic_mean) <= 4.0 * report.std_error
            tv = 0.5 * np.abs(np.asarray(report.empirical_distribution.probs) - analytic_dist.probs).sum()
            assert tv <= 0.005
        again = estimate_payoff(EXAMPLE1, Stationary(1 / 3), MC_TRIALS, MC_SEED)
        first = estimate_payoff(EXAMPLE1, Stationary(1 / 3), MC_TRIALS, MC_SEED)
        assert first == again
        assert first.mean_payoff == again.mean_payoff
        assert first.std_error == again.std_error
        assert np.array_equal(
            first.empirical_distribution.probs, again.empirical_distribution.probs
        )


def test_criterion_09_optimizer_property_suite():
    with criterion(9, "100 random problems: optimizer beats 1e4 grid; scaling by 3"):
        rng = np.random.default_rng(1894)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            problem = make_drive_problem(rng.uniform(0.0, 10.0, size=m), rng.uniform(0.0, 10.0))
            result = optimize_stationary(problem)
            assert result.payoff_star >= max(stationary_payoff(problem, grid)) - 1e-9

            scaled = make_drive_problem(
                [3.0 * p for p in problem.exit_payoffs], 3.0 * problem.terminal_payoff
            )
            scaled_result = optimize_stationary(scaled)
            assert scaled_result.alpha_star == pytest.approx(result.alpha_star, abs=TOL)
            assert scaled_result.payoff_star == pytest.approx(3.0 * result.payoff_star, abs=TOL)


def test_criterion_10_cli(capsys, tmp_path):
    with criterion(10, "CLI presets reproduce the values; curve CSV and exit codes conform"):
        assert main(["eval", "--preset", "example1"]) == 0
        out = capsys.readouterr().out
        assert "1.33333333333 (4/3)" in out      # stationary 1/3
        assert "1.66666666667 (5/3)" in out      # counting
        assert "[0.5, 0.5, 0]" in out            # bell distribution
        lines = [line for line in out.splitlines() if line.startswith("bell")]
        assert lines and "  2  " in lines[0] + "  "  # bell payoff column

        assert main(["select", "--preset", "selection-example"]) == 0
        out = capsys.readouterr().out
        assert "alpha* = 0.5 (1/2)" in out
        assert "2.875 (23/8)" in out
        assert "counting average total: 3" in out
        assert "0.125 (1/8)" in out

        assert main(["curve", "--preset", "example1", "--grid-step", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out == "alpha,payoff\n0,1\n0.5,1.25\n1,0\n"

        # exit code table: 0 success (above), 1 usage, 2 validation, 3 runtime
        assert main(["no-such-command"]) == 1
        capsys.readouterr()
        assert main(["select", "--preset", "example1"]) == 2
        capsys.readouterr()
        bad_path = str(tmp_path / "missing-dir" / "out.csv")
        assert main(["eval", "--preset", "example1", "--csv", bad_path]) == 3
        capsys.readouterr()
