import math

import pytest
from hypothesis import given, strategies as st

from absentdriver import (
    Counting,
    PerStep,
    Quantum,
    SelectionProblem,
    Stationary,
    build_state,
    make_drive_problem,
    step_exit_probabilities,
)


class TestMakeDriveProblem:
    def test_example1_shape(self):
        problem = make_drive_problem([0, 4], 1)
        assert problem.exit_payoffs == (0.0, 4.0)
        assert problem.terminal_payoff == 1.0
        assert problem.num_destinations == 3

    def test_example2_shape(self):
        problem = make_drive_problem([0, 4, 1], 1)
        assert problem.num_intersections == 3
        assert problem.num_destinations == 4
        assert problem.destination_payoffs == (0.0, 4.0, 1.0, 1.0)

    def test_empty_exits_rejected(self):
        with pytest.raises(ValueError, match="degenerate problem"):
            make_drive_problem([], 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payoff_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid payoff"):
            make_drive_problem([0, bad], 1)
        with pytest.raises(ValueError, match="invalid payoff"):
            make_drive_problem([0, 1], bad)

    def test_immutable(self):
        problem = make_drive_problem([0, 4], 1)
        with pytest.raises(AttributeError):
            problem.terminal_payoff = 2.0


class TestSelectionProblem:
    def test_needs_two_destinations(self):
        with pytest.raises(ValueError, match="degenerate problem"):
            SelectionProblem((1.0,))

    def test_example_payoffs(self):
        sel = SelectionProblem((0, 4, 1, 1))
        assert sel.num_destinations == 4


class TestStrategyValidation:
    @pytest.mark.parametrize("alpha", [-0.1, 1.1, float("nan")])
    def test_stationary_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="probability"):
            Stationary(alpha)

    def test_per_step_entries_checked(self):
        with pytest.raises(ValueError, match="probability"):
            PerStep((0.5, 1.5))


def steps(strategy, num_destinations: int) -> list[float]:
    """Per-intersection exit probabilities on a problem with ``num_destinations``."""
    problem = make_drive_problem([0.0] * (num_destinations - 1), 0.0)
    return list(step_exit_probabilities(problem, strategy))


class TestExitProbability:
    def test_counting_first_of_four(self):
        assert steps(Counting(), 4)[0] == pytest.approx(0.25)

    def test_counting_last_branch_is_half(self):
        assert steps(Counting(), 4)[2] == pytest.approx(0.5)

    def test_stationary_zero_never_exits(self):
        assert steps(Stationary(0.0), 6) == [0.0] * 5

    def test_stationary_constant_across_steps(self):
        assert steps(Stationary(0.3), 5) == [0.3] * 4

    def test_per_step_indexing(self):
        assert steps(PerStep((0.1, 0.2, 0.3)), 4) == [0.1, 0.2, 0.3]

    def test_per_step_length_mismatch(self):
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            steps(PerStep((0.1, 0.2)), 4)

    def test_unknown_strategy_type(self):
        with pytest.raises(TypeError, match=r"^unknown strategy type: str$"):
            step_exit_probabilities(make_drive_problem([0, 4], 1), "stationary")

    def test_quantum_steps_are_exit_hazards(self):
        # the Bell pair exits at 1 or 2, each half the time: exit 2 is certain once reached
        strategy = Quantum(build_state([("01", 1), ("10", 1)], normalize=True))
        assert steps(strategy, 3) == pytest.approx([0.5, 1.0], abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 7, 40])
    def test_counting_values_are_reciprocals(self, k):
        # the vectorised form gives the same floats as 1.0 / (k - i + 1)
        assert steps(Counting(), k) == [1.0 / (k - i + 1) for i in range(1, k)]

    @given(k=st.integers(min_value=2, max_value=40), data=st.data())
    def test_counting_induces_uniform_destinations(self, k, data):
        # (1 - 1/k)(1 - 1/(k-1))...(1 - 1/(k-i+1)) * 1/(k-i) == 1/k for every i
        i = data.draw(st.integers(min_value=1, max_value=k - 1))
        p = steps(Counting(), k)
        reach = math.prod(1.0 - p[j - 1] for j in range(1, i))
        assert reach * p[i - 1] == pytest.approx(1.0 / k, abs=1e-12)

    def test_deterministic(self):
        assert steps(Counting(), 7) == steps(Counting(), 7)
