import numpy as np
import pytest

from absentdriver import (
    Counting,
    PerStep,
    Quantum,
    Stationary,
    build_state,
    destination_distribution,
    estimate_payoff,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
    quantum_expected_payoff,
)
from absentdriver.quantum import first_zero_destination
from absentdriver.simulate import BLOCK_SIZE

EXAMPLE1 = make_drive_problem([0, 4], 1)
EXAMPLE2 = make_drive_problem([0, 4, 1], 1)
BELL = build_state([("01", 1), ("10", 1)], normalize=True)

# Agreement checks use a 4-sigma budget: each one fails spuriously about
# once in 16,000 runs under the normal approximation.
SIGMAS = 4.0


def landed(problem, strategy, trials, seed) -> set[int]:
    """Destinations (1-based) that at least one of ``trials`` runs reached."""
    probs = estimate_payoff(problem, strategy, trials, seed).empirical_distribution.probs
    return {int(d) + 1 for d in np.flatnonzero(probs)}


class TestSimulateDrive:
    """Where single trips land, observed through the block simulator."""

    def test_always_exit_first(self):
        assert landed(EXAMPLE1, Stationary(1.0), 50, 0) == {1}

    def test_never_exit_reaches_terminal(self):
        assert landed(EXAMPLE1, Stationary(0.0), 50, 0) == {3}

    def test_bell_never_reaches_terminal(self):
        assert landed(EXAMPLE1, Quantum(BELL), 400, 1234) == {1, 2}

    def test_counting_covers_every_destination(self):
        assert landed(EXAMPLE2, Counting(), 500, 99) == {1, 2, 3, 4}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            estimate_payoff(EXAMPLE2, Quantum(BELL), 10, 0)
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            estimate_payoff(EXAMPLE1, PerStep((0.5,)), 10, 0)

    def test_quantum_sample_stream_pinned(self):
        # A change to the sampling or to the index-to-destination map that
        # moves a single sample changes these counts.
        report = estimate_payoff(EXAMPLE1, Quantum(BELL), 20_000, 11)
        counts = np.rint(report.empirical_distribution.probs * 20_000).astype(int)
        assert counts.tolist() == [10135, 9865, 0]

    @pytest.mark.parametrize(
        "plan,expected",
        [
            ("w", [17241, 2759] + [0] * 19),
            ("ghz", [7321] + [0] * 19 + [12679]),
            ("counting_state", [80, 180, 287, 386, 439, 567, 703, 768, 856, 941, 1088,
                                1112, 1221, 1327, 1332, 1497, 1582, 1674, 1763, 1856, 341]),
        ],
    )
    def test_quantum_sample_stream_pinned_at_20_qubits(self, plan, expected):
        # Counts recorded with the dense 2**20 sampler: sampling the stored
        # terms must draw the same basis string from the same random number.
        m = 20
        terms = {
            "w": [("0" * i + "1" + "0" * (m - i - 1), m - i) for i in range(m)],
            "ghz": [("0" * m, 0.6), ("1" * m, 0.8j)],
            "counting_state": [("1" * i + "0" + "1" * (m - i - 1), (i + 1) ** 0.5)
                               for i in range(m)] + [("1" * m, 2.0)],
        }[plan]
        problem = make_drive_problem([float(i) for i in range(m)], 0.5)
        state = build_state(terms, normalize=True)
        report = estimate_payoff(problem, Quantum(state), 20_000, 11)
        counts = np.rint(report.empirical_distribution.probs * 20_000).astype(int)
        assert counts.tolist() == expected

    @pytest.mark.parametrize("m", range(1, 11))
    def test_first_zero_map_is_exhaustively_right(self, m):
        expected = []
        for index in range(2**m):
            bits = format(index, f"0{m}b")
            expected.append(bits.find("0") + 1 if "0" in bits else m + 1)
        assert first_zero_destination(np.arange(2**m), m).tolist() == expected


class TestEstimatePayoff:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="no trials"):
            estimate_payoff(EXAMPLE1, Counting(), 0, 1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            estimate_payoff(EXAMPLE1, Counting(), 10, -1)

    def test_report_shape(self):
        report = estimate_payoff(EXAMPLE1, Stationary(0.5), 1000, 7)
        assert report.trials == 1000
        assert report.seed == 7
        assert report.std_error >= 0.0
        assert abs(report.empirical_distribution.probs.sum() - 1.0) <= 1e-12

    def test_overflowing_statistics_rejected(self):
        # payoffs**2 overflows from |v| ~ 1.34e154, and the sum of 1000
        # payoffs of 1e308 overflows the mean itself
        for payoff, match in ((1e308, "mean inf"), (1e200, "std error nan")):
            problem = make_drive_problem([payoff, payoff], payoff)
            with pytest.raises(ValueError, match=f"not finite.*{match}"):
                estimate_payoff(problem, Stationary(0.5), 1000, 1)
        # mixed signs (inf + -inf, or inf where the dot product uses fused
        # multiply-add) and 0 * inf for destinations never reached; numpy's
        # invalid-value warnings would be errors under the test config
        cases = (
            (make_drive_problem([1e308, -1e308], 0.0), Stationary(0.5), "mean (nan|inf)"),
            (make_drive_problem([1e200, 1e200], 1e200), PerStep((1.0, 0.5)), "mean 1e\\+200"),
        )
        for problem, strategy, match in cases:
            with pytest.raises(ValueError, match=f"not finite: {match}, std error nan"):
                estimate_payoff(problem, strategy, 1000, 1)

    def test_single_trial_has_zero_std_error(self):
        report = estimate_payoff(EXAMPLE1, Stationary(0.5), 1, 3)
        assert report.std_error == 0.0

    def test_deterministic_strategy_has_zero_std_error(self):
        report = estimate_payoff(EXAMPLE1, Stationary(1.0), 5000, 3)
        assert report.mean_payoff == 0.0
        assert report.std_error == 0.0

    def test_bit_identical_reports(self):
        a = estimate_payoff(EXAMPLE1, Counting(), 3 * BLOCK_SIZE + 17, 123456789)
        b = estimate_payoff(EXAMPLE1, Counting(), 3 * BLOCK_SIZE + 17, 123456789)
        assert a == b
        assert a.mean_payoff == b.mean_payoff
        assert np.array_equal(
            a.empirical_distribution.probs, b.empirical_distribution.probs
        )

    def test_different_seeds_differ(self):
        a = estimate_payoff(EXAMPLE1, Counting(), 10_000, 1)
        b = estimate_payoff(EXAMPLE1, Counting(), 10_000, 2)
        assert a.mean_payoff != b.mean_payoff

    def test_block_boundaries_do_not_drop_trials(self):
        for trials in (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1):
            report = estimate_payoff(EXAMPLE1, Counting(), trials, 5)
            counts = report.empirical_distribution.probs * trials
            assert counts.sum() == pytest.approx(trials, abs=1e-6)

    @pytest.mark.parametrize(
        "problem,strategy,analytic",
        [
            (EXAMPLE1, Stationary(1 / 3), 4 / 3),
            (EXAMPLE1, Counting(), 5 / 3),
            (EXAMPLE2, Counting(), 3 / 2),
            (EXAMPLE2, PerStep((0.2, 0.5, 0.9)), None),
        ],
    )
    def test_classical_oracle_agreement(self, problem, strategy, analytic):
        if analytic is None:
            analytic = expected_payoff(problem, strategy)
        report = estimate_payoff(problem, strategy, 200_000, 20260810)
        assert abs(report.mean_payoff - analytic) <= SIGMAS * report.std_error

    def test_quantum_oracle_agreement(self):
        report = estimate_payoff(EXAMPLE1, Quantum(BELL), 200_000, 20260810)
        assert abs(report.mean_payoff - 2.0) <= SIGMAS * max(report.std_error, 1e-12)

    def test_empirical_distribution_close_to_analytic(self):
        report = estimate_payoff(EXAMPLE2, Counting(), 1_000_000, 8)
        analytic = destination_distribution(EXAMPLE2, Counting())
        tv = 0.5 * np.abs(report.empirical_distribution.probs - analytic.probs).sum()
        assert tv <= 0.005

    def test_quantum_empirical_distribution(self):
        report = estimate_payoff(EXAMPLE1, Quantum(BELL), 1_000_000, 8)
        analytic = first_zero_distribution(BELL)
        tv = 0.5 * np.abs(report.empirical_distribution.probs - analytic.probs).sum()
        assert tv <= 0.005
        assert report.empirical_distribution.probs[2] == 0.0  # terminal never sampled

    def test_product_state_sampling_matches_quantum_payoff(self):
        from absentdriver import product_state

        state = product_state(0.4, 3)
        analytic = quantum_expected_payoff(EXAMPLE2, state)
        report = estimate_payoff(EXAMPLE2, Quantum(state), 200_000, 77)
        assert abs(report.mean_payoff - analytic) <= SIGMAS * report.std_error
