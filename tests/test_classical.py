import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from absentdriver import (
    Counting,
    DestinationDistribution,
    PerStep,
    Quantum,
    Stationary,
    beta_coefficients,
    build_state,
    destination_distribution,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
    stationary_payoff,
    step_exit_probabilities,
)
from oracles import exact_payoff, from_beta, mixed_magnitude_payoffs

EXAMPLE1 = make_drive_problem([0, 4], 1)
EXAMPLE2 = make_drive_problem([0, 4, 1], 1)


def enumerate_distribution(step_probs):
    """Oracle: walk every exit/continue path and add up its probability."""
    m = len(step_probs)
    probs = [0.0] * (m + 1)
    for dest in range(1, m + 2):
        p = 1.0
        for j in range(min(dest - 1, m)):
            p *= 1.0 - step_probs[j]
        if dest <= m:
            p *= step_probs[dest - 1]
        probs[dest - 1] += p
    return probs


class TestDestinationDistribution:
    def test_example1_stationary_third(self):
        dist = destination_distribution(EXAMPLE1, Stationary(1 / 3))
        assert dist.probs == pytest.approx([1 / 3, 2 / 9, 4 / 9], abs=1e-15)

    def test_example2_counting_uniform(self):
        dist = destination_distribution(EXAMPLE2, Counting())
        assert dist.probs == pytest.approx([0.25] * 4, abs=1e-15)

    def test_always_exit_first(self):
        dist = destination_distribution(EXAMPLE2, Stationary(1.0))
        assert dist.probs == pytest.approx([1, 0, 0, 0], abs=0)

    def test_matches_path_enumeration_oracle(self):
        steps = (0.2, 0.7, 0.05, 0.4)
        problem = make_drive_problem([1, 2, 3, 4], 5)
        dist = destination_distribution(problem, PerStep(steps))
        assert dist.probs == pytest.approx(enumerate_distribution(steps), abs=1e-14)

    def test_quantum_strategy_is_its_first_zero_distribution(self):
        bell = Quantum(build_state([("01", 1), ("10", 1)], normalize=True))
        assert destination_distribution(EXAMPLE1, bell).probs == pytest.approx(
            [0.5, 0.5, 0.0], abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            destination_distribution(EXAMPLE1, PerStep((0.1, 0.2, 0.3)))

    @given(
        alpha=st.floats(min_value=0, max_value=1),
        m=st.integers(min_value=1, max_value=8),
    )
    def test_normalization(self, alpha, m):
        problem = make_drive_problem(list(range(m)), -1)
        dist = destination_distribution(problem, Stationary(alpha))
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    @given(
        alpha=st.floats(min_value=0, max_value=1),
        m=st.integers(min_value=1, max_value=8),
    )
    def test_per_step_reproduces_stationary(self, alpha, m):
        problem = make_drive_problem([3.0] * m, 0.0)
        stationary = destination_distribution(problem, Stationary(alpha))
        per_step = destination_distribution(problem, PerStep((alpha,) * m))
        assert np.array_equal(stationary.probs, per_step.probs)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_counting_uniform_for_all_sizes(self, k):
        problem = make_drive_problem(list(range(k - 1)), 9.0)
        dist = destination_distribution(problem, Counting())
        assert np.abs(dist.probs - 1.0 / k).max() <= 1e-12

    def test_clamps_only_rounding_noise(self):
        assert DestinationDistribution([1.0 + 5e-16, -5e-16]).probs.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="internal error"):
            DestinationDistribution([1.1, -0.1])

    @pytest.mark.parametrize("m, alpha", [(20_000, 1e-7), (100_000, 1e-6)])
    @pytest.mark.parametrize("kind", ["stationary", "per_step"])
    def test_long_drive_sum_within_tolerance(self, m, alpha, kind):
        # the product form's sum error grows with m, past a fixed 1e-12 from m ~ 2e4
        strategy = Stationary(alpha) if kind == "stationary" else PerStep((alpha,) * m)
        probs = destination_distribution(make_drive_problem([0.0] * m, 0.0), strategy).probs
        assert probs.size == m + 1
        assert probs[-1] == pytest.approx((1 - alpha) ** m, rel=1e-9)
        assert abs(probs.sum() - 1.0) <= (m + 1) * 1e-15

    def test_sum_error_reads_as_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^internal error: distribution sums to 0\.5, not 1$"):
            DestinationDistribution([0.25, 0.25])

    def test_rejects_nan(self):
        # every comparison with NaN is false, so a test for values out of range misses it
        with pytest.raises(ValueError, match="internal error"):
            DestinationDistribution([float("nan"), 1.0])

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
    def test_rejects_empty_or_2d(self, probs):
        with pytest.raises(ValueError, match=r"^distribution must be a non-empty 1-d probability vector$"):
            DestinationDistribution(probs)

    def test_not_equal_to_a_foreign_type(self):
        dist = DestinationDistribution([0.5, 0.5])
        assert dist.__eq__(dist.probs) is NotImplemented
        assert dist != [0.5, 0.5]
        assert dist == DestinationDistribution([0.5, 0.5])


class TestExpectedPayoff:
    def test_example1_stationary(self):
        assert expected_payoff(EXAMPLE1, Stationary(1 / 3)) == pytest.approx(4 / 3, abs=1e-12)

    def test_example2_counting(self):
        assert expected_payoff(EXAMPLE2, Counting()) == pytest.approx(3 / 2, abs=1e-12)

    def test_example1_counting(self):
        assert expected_payoff(EXAMPLE1, Counting()) == pytest.approx(5 / 3, abs=1e-12)

    def test_never_exit_earns_terminal(self):
        problem = make_drive_problem([5, 6, 7], -2.5)
        assert expected_payoff(problem, Stationary(0.0)) == -2.5

    def test_counting_beats_optimized_stationary_on_both_examples(self):
        # Example-level comparison only; it does not hold for arbitrary payoffs.
        assert expected_payoff(EXAMPLE2, Counting()) > 4 / 3
        assert expected_payoff(EXAMPLE1, Counting()) > 4 / 3

    def test_counting_advantage_is_not_general(self):
        # With all the value at the first exit, always exiting earns 10 while
        # the uniform counting strategy only averages 10/3.
        problem = make_drive_problem([10, 0], 0)
        assert expected_payoff(problem, Stationary(1.0)) == 10.0
        assert expected_payoff(problem, Counting()) == pytest.approx(10 / 3)


def quantum_plans(rng: np.random.Generator, m: int):
    """GHZ, W, a single ket and a random sparse plan on ``m`` qubits."""
    yield build_state([("0" * m, 1), ("1" * m, 1)], normalize=True)
    yield build_state([("0" * i + "1" + "0" * (m - i - 1), 1) for i in range(m)], normalize=True)
    yield build_state([("".join(rng.choice(["0", "1"], size=m)), 1)])
    # mostly ones, so the first zeros spread over the whole drive
    rows = {"".join(row) for row in rng.choice(["0", "1"], size=(16, m), p=[0.1, 0.9])}
    yield build_state([(bits, complex(*rng.normal(size=2))) for bits in rows], normalize=True)


class TestQuantumHazards:
    """A quantum plan is as good as the per-step plan of its exit hazards,
    which a classical driver with a counter can follow."""

    @pytest.mark.parametrize("m", [2, 8, 64, 1024])
    def test_hazards_as_per_step_reproduce_first_zero(self, m):
        problem = make_drive_problem([0.0] * m, 0.0)
        for state in quantum_plans(np.random.default_rng(m), m):
            hazards = step_exit_probabilities(problem, Quantum(state))
            classical = destination_distribution(problem, PerStep(tuple(hazards)))
            target = first_zero_distribution(state).probs
            assert np.abs(classical.probs - target).max() <= 1e-12


class TestStationaryPayoff:
    def test_example1_coefficients(self):
        # 4b - 3b^2 with b = 1 - a is the paper's 1 + 2a - 3a^2
        assert beta_coefficients(EXAMPLE1) == (0.0, 4.0, -3.0)

    def test_example2_cubic_term_cancels(self):
        assert beta_coefficients(EXAMPLE2) == (0.0, 4.0, -3.0, 0.0)

    def test_constant_payoff_problem(self):
        assert beta_coefficients(make_drive_problem([7.0], 7.0)) == (7.0, 0.0)

    @given(
        alpha=st.floats(min_value=0, max_value=1),
        payoffs=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
        terminal=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_polynomial_matches_direct_evaluation(self, alpha, payoffs, terminal):
        problem = make_drive_problem(payoffs, terminal)
        assert float(stationary_payoff(problem, alpha)) == pytest.approx(
            expected_payoff(problem, Stationary(alpha)), abs=1e-12
        )

    def test_consistency_on_101_point_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        problems = [EXAMPLE1, EXAMPLE2]
        for m in (30, 60, 200, 1000):
            payoffs = np.random.default_rng(m).uniform(0.0, 10.0, size=m + 1)
            problems.append(make_drive_problem(payoffs[:-1], payoffs[-1]))
        for problem in problems:
            direct = [expected_payoff(problem, Stationary(a)) for a in grid]
            scale = 1.0 + np.abs(problem.destination_payoffs).max()
            assert np.abs(stationary_payoff(problem, grid) - direct).max() <= 1e-12 * scale

    def test_bounded_by_payoff_range(self):
        problem = make_drive_problem([2, 5, 3, 1], 0)
        values = stationary_payoff(problem, np.linspace(0, 1, 501))
        assert values.min() >= 0 - 1e-12 and values.max() <= 5 + 1e-12


class TestDriveAsPolynomial:
    def test_evaluates_in_one_minus_alpha(self):
        problem = from_beta((0.0, 4.0, -3.0))
        assert stationary_payoff(problem, 1.0) == 0.0
        assert stationary_payoff(problem, 0.0) == 1.0
        assert stationary_payoff(problem, np.array([0.0, 1 / 3, 1.0])) == pytest.approx(
            [1.0, 4 / 3, 0.0], abs=1e-15
        )

    def test_degree_zero_derivative_is_zero(self):
        problem = from_beta((4.0,))
        assert np.all(stationary_payoff(problem, np.linspace(0.0, 1.0, 101)) == 4.0)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="invalid payoff"):
            from_beta((1.0, float("nan")))

    def test_horner_steps_past_float_range_evaluate_exactly(self):
        # in beta, Horner's rule at alpha = 0 reaches -1e308 - 1e308 = -inf;
        # the payoffs 1e308, 0, -1e308 never leave the float range
        problem = from_beta((1e308, -1e308, -1e308))
        assert stationary_payoff(problem, 0.0) == -1e308
        assert stationary_payoff(problem, 1.0) == 1e308

    def test_stores_the_payoffs(self):
        assert EXAMPLE2.destination_payoffs == (0.0, 4.0, 1.0, 1.0)
        assert from_beta(beta_coefficients(EXAMPLE2)) == EXAMPLE2


class TestAgainstExactArithmetic:
    """Mixed-magnitude payoffs, where differences of payoffs cancel: the
    error must scale with ``E|v| = sum_i w_i |v_i|``, not with ``max |v|``."""

    def test_evaluation_within_expected_magnitude(self):
        rng = np.random.default_rng(2017)
        for _ in range(1000):
            v = mixed_magnitude_payoffs(rng, int(rng.integers(3, 14)))
            problem = make_drive_problem(v[:-1], v[-1])
            for alpha in (0.0, 1.0, 0.5, *rng.uniform(0.0, 1.0, size=3)):
                scale = float(exact_payoff(np.abs(v), alpha))
                error = stationary_payoff(problem, alpha) - exact_payoff(v, alpha)
                assert abs(error) <= 1e-12 * scale

    def test_array_evaluation_matches_scalar(self):
        v = mixed_magnitude_payoffs(np.random.default_rng(5), 13)
        problem = make_drive_problem(v[:-1], v[-1])
        grid = np.linspace(0.0, 1.0, 11)
        scalars = [stationary_payoff(problem, a) for a in grid]
        assert stationary_payoff(problem, grid).tolist() == scalars
