import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from absentdriver import (
    Counting,
    PerStep,
    Stationary,
    build_state,
    destination_distribution,
    estimate_payoff,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
)
from absentdriver.scenario import MAX_TRIALS
from absentdriver.simulate import _Binomials
from oracles import numpy_counts, product_state, std_error_squared

# Runs of up to 2**16 trials reproduce the reports of earlier releases, which
# split longer runs into blocks of this size: tests run on both sides of it.
TWO_16 = 1 << 16
MAX = sys.float_info.max

EXAMPLE1 = make_drive_problem([0, 4], 1)
EXAMPLE2 = make_drive_problem([0, 4, 1], 1)
BELL = build_state([("01", 1), ("10", 1)], normalize=True)


def ramp_problem(m: int):
    return make_drive_problem([float(i) for i in range(m)], 0.5)


def plans(m: int) -> dict:
    return {
        name: build_state(terms, normalize=True)
        for name, terms in {
            "w": [("0" * i + "1" + "0" * (m - 1 - i), m - i) for i in range(m)],
            "ghz": [("0" * m, 0.6), ("1" * m, 0.8j)],
            # one ket per destination, like the counting strategy
            "counting_state": [("1" * i + "0" + "1" * (m - 1 - i), (i + 1) ** 0.5)
                               for i in range(m)] + [("1" * m, 2.0)],
        }.items()
    }


PROBLEM_20 = ramp_problem(20)
PLANS_20 = plans(20)

# Agreement checks use a 4-sigma budget: each one fails spuriously about
# once in 16,000 runs under the normal approximation.
SIGMAS = 4.0


def landed(problem, strategy, trials, seed) -> set[int]:
    """Destinations (1-based) that at least one of ``trials`` runs reached."""
    probs = estimate_payoff(problem, strategy, trials, seed).empirical_distribution.probs
    return {int(d) + 1 for d in np.flatnonzero(probs)}


class TestSimulateDrive:
    """Where single trips land, observed through the binomial-chain simulator."""

    def test_always_exit_first(self):
        assert landed(EXAMPLE1, Stationary(1.0), 50, 0) == {1}

    def test_never_exit_reaches_terminal(self):
        assert landed(EXAMPLE1, Stationary(0.0), 50, 0) == {3}

    def test_bell_never_reaches_terminal(self):
        assert landed(EXAMPLE1, BELL, 400, 1234) == {1, 2}

    def test_counting_covers_every_destination(self):
        assert landed(EXAMPLE2, Counting(), 500, 99) == {1, 2, 3, 4}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            estimate_payoff(EXAMPLE2, BELL, 10, 0)
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            estimate_payoff(EXAMPLE1, PerStep((0.5,)), 10, 0)

    @pytest.mark.parametrize(
        "problem,plan,reached",
        [
            (PROBLEM_20, PLANS_20["w"], {1, 2}),
            (make_drive_problem([1.0, 2.0, 3.0], 4.0),
             build_state([("011", 0.1), ("101", 0.7), ("110", 0.3)], normalize=True), {1, 2, 3}),
        ],
    )
    def test_plan_never_lands_past_its_last_weighted_destination(self, problem, plan, reached):
        # As for Bell, the last destination with weight has step probability
        # d_j / d_j, exactly 1, so no car drives on to the zero-weight rest.
        assert landed(problem, plan, 2 * TWO_16, 17) == reached

    def test_quantum_sample_stream_pinned(self):
        # A change to the per-step binomial draws of a measurement plan that
        # moves a single car changes these counts.
        report = estimate_payoff(EXAMPLE1, BELL, 20_000, 11)
        counts = np.rint(np.asarray(report.empirical_distribution.probs) * 20_000).astype(int)
        assert counts.tolist() == [9950, 10050, 0]

    @pytest.mark.parametrize(
        "plan,expected",
        [
            ("w", [17247, 2753] + [0] * 19),
            ("ghz", [7152] + [0] * 19 + [12848]),
            ("counting_state", [89, 210, 258, 372, 420, 563, 689, 716, 867, 926, 1118,
                                1134, 1201, 1267, 1416, 1516, 1519, 1719, 1814, 1796, 390]),
        ],
    )
    def test_quantum_sample_stream_pinned_at_20_qubits(self, plan, expected):
        # These counts pin the per-step binomial draws at 20 qubits: a change
        # to the step probabilities taken from the first-zero distribution, or
        # to the draws, that moves a single car changes them.
        report = estimate_payoff(PROBLEM_20, PLANS_20[plan], 20_000, 11)
        counts = np.rint(np.asarray(report.empirical_distribution.probs) * 20_000).astype(int)
        assert counts.tolist() == expected

    def test_classical_sample_stream_pinned(self):
        # A change to the per-step binomial draws that moves a single car
        # changes these counts; the last case runs past 2**16 trials.
        cases = [
            (EXAMPLE2, Counting(), 20_000, [4957, 5110, 4888, 5045]),
            (EXAMPLE2, PerStep((0.2, 0.5, 0.9)), 20_000, [3961, 8125, 7162, 752]),
            (make_drive_problem([float(i) for i in range(20)], 0.5), Stationary(0.1),
             2 * TWO_16 + 5,
             [13030, 11976, 10453, 9554, 8602, 7855, 6858, 6336, 5589, 5277, 4589, 4080,
              3627, 3345, 3028, 2606, 2470, 2246, 2002, 1742, 15812]),
        ]
        for problem, strategy, trials, expected in cases:
            report = estimate_payoff(problem, strategy, trials, 11)
            counts = np.rint(np.asarray(report.empirical_distribution.probs) * trials).astype(int)
            assert counts.tolist() == expected

    def test_certain_exit_lands_only_there(self):
        problem = make_drive_problem([1.0, 2.0, 3.0, 4.0, 5.0], 6.0)
        assert landed(problem, PerStep((0.0, 0.0, 1.0, 0.5, 0.5)), 2 * TWO_16, 3) == {3}
        assert landed(problem, PerStep((0.3, 0.2, 1.0, 0.5, 0.5)), 10_000, 3) == {1, 2, 3}
        assert landed(problem, PerStep((0.0,) * 4 + (1.0,)), 1000, 3) == {5}

    @pytest.mark.parametrize("m", range(1, 11))
    def test_first_zero_map_is_exhaustively_right(self, m):
        # Every m-bit string with its own random weight: each destination must
        # collect exactly the weights of the strings whose first 0 sits there.
        strings = [format(index, f"0{m}b") for index in range(2**m)]
        weights = np.random.default_rng(m).uniform(0.5, 1.5, 2**m)
        weights /= weights.sum()
        expected = np.zeros(m + 1)
        for bits, weight in zip(strings, weights):
            expected[bits.find("0") if "0" in bits else m] += weight
        state = build_state(zip(strings, np.sqrt(weights)))
        assert first_zero_distribution(state).probs == pytest.approx(expected, rel=1e-12, abs=0)


# the ends of the 32- and 64-bit seed words, which SeedSequence splits and pads
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


class TestBinomialStream:
    """The pure-Python generator against ``numpy.random.default_rng(seed).binomial``."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_fixed_draws_match_numpy(self, seed):
        # n * min(p, 1 - p) <= 30 takes numpy's inversion, more its BTPE, and
        # n >= 10**6 its Step 52 squeeze; p > 0.5 is reflected, p = 0 draws nothing
        ours, ref = _Binomials(seed), np.random.default_rng(seed)
        for _ in range(4):
            for n in (1, 2, 30, 61, 1000, 10**6, MAX_TRIALS):
                for p in (0.0, 1e-12, 1e-7, 0.01, 0.3, 0.5, 0.6, 0.97, 1 - 1e-9, 1.0):
                    assert ours.binomial(n, p) == ref.binomial(n, p), (n, p)
        assert ours.double() == ref.random()  # both consumed the same uniforms

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (20260810, 7 << 40))
    def test_seeded_chains_match_numpy(self, seed):
        # chains like a run's: each draw takes the cars the last one left
        pick = random.Random(seed)
        ours, ref = _Binomials(seed), np.random.default_rng(seed)
        for _ in range(40):
            left = pick.choice((1, 45, 10**4, 10**6, pick.randrange(1, MAX_TRIALS + 1), MAX_TRIALS))
            while left:
                p = pick.choice((pick.random(), pick.random() ** 8, 1.0 - pick.random() ** 8, 1.0))
                out = ours.binomial(left, p)
                assert out == ref.binomial(left, p), (left, p)
                left -= out
        assert ours.double() == ref.random()

    @pytest.mark.parametrize("seed", (0, 11, 2**64 - 1))
    @pytest.mark.parametrize("trials", (1, 1000, 2**20 + 3, MAX_TRIALS))
    def test_reports_match_numpy_draws(self, seed, trials):
        problem = ramp_problem(20)
        strategies = (Stationary(0.1), Stationary(0.9), Counting(),
                      PerStep(tuple(1e-7 * 10 ** (i % 8) for i in range(20))),
                      PLANS_20["w"], PLANS_20["counting_state"])
        for strategy in strategies:
            report = estimate_payoff(problem, strategy, trials, seed)
            counts = numpy_counts(problem, strategy, trials, seed)
            assert report.empirical_distribution.probs == tuple(c / trials for c in counts)


def assert_std_error_exact(problem, strategy, trials, seed):
    """``estimate_payoff``'s standard error within a relative 1e-14 of the exact one
    over the same counts, plus one subnormal step for a result below the normal
    range; where the exact one is 0, at most 1e-15 of the largest payoff a car reached."""
    report = estimate_payoff(problem, strategy, trials, seed)
    counts = [round(p * trials) for p in report.empirical_distribution.probs]
    assert sum(counts) == trials
    exact = std_error_squared(problem.destination_payoffs, counts)
    if exact == 0:
        reached = [abs(v) for v, c in zip(problem.destination_payoffs, counts) if c]
        assert report.std_error <= 1e-15 * max(reached)
    else:
        root = Fraction(math.isqrt(exact.numerator * 4**1200 // exact.denominator), 2**1200)
        assert abs(Fraction(report.std_error) - root) <= root / 10**14 + Fraction(5e-324)


class TestStdErrorAgainstExactOracle:
    @pytest.mark.parametrize("offset", [1.0, 1e8, 1e12, 1e15])
    def test_same_spread_at_any_offset(self, offset):
        # a one-pass sum of squares lost the spread of 1 at 1e8 and above
        problem = make_drive_problem([offset, offset + 1.0], offset)
        assert_std_error_exact(problem, Counting(), 1_000_000, 1)

    def test_seeded_offsets_spreads_and_counts(self):
        rng = random.Random(20261020)
        for case in range(300):
            m = rng.randint(1, 8)
            if case % 4:  # payoffs within a relative 1e-14 to 1 of one offset +-10**(+-300)
                offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                spread = 10.0 ** rng.uniform(-14.0, 0.0)
                payoffs = [offset * (1.0 + spread * rng.random()) for _ in range(m + 1)]
            else:  # mixed magnitudes
                payoffs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 16.0) for _ in range(m + 1)]
            strategy = rng.choice((Counting(), Stationary(rng.random()),
                                   PerStep(tuple(rng.random() for _ in range(m)))))
            trials = int(10.0 ** rng.uniform(0.0, 7.0))
            assert_std_error_exact(make_drive_problem(payoffs[:-1], payoffs[-1]), strategy, trials,
                                   rng.getrandbits(64))

    @pytest.mark.parametrize("exits,terminal",
                             [([MAX, -MAX], MAX), ([MAX, MAX * 0.5], -MAX), ([MAX, MAX], MAX)])
    def test_at_the_largest_float(self, exits, terminal):
        # equal payoffs have no spread: a one-pass variance printed 8.6e298 for them
        for trials in (2, 3, 1000, MAX_TRIALS):
            assert_std_error_exact(make_drive_problem(exits, terminal), Counting(), trials, 7)

    @pytest.mark.parametrize("exits,steps", [
        ([1e308, 1.23456789012345e-6, 2.5e-6], (0.0, 0.5, 1.0)),
        ([1e308, 1e-320], (0.0, 1.0)),
    ])
    def test_unreached_payoff_sets_no_scale(self, exits, steps):
        # scaled by the exponent of 1e308, which no car reaches, the reached payoffs
        # fell toward 0: the first run printed std error 0, the second mean 0
        problem, strategy = make_drive_problem(exits, 0.0), PerStep(steps)
        assert_std_error_exact(problem, strategy, 1_000_000, 1)
        report = estimate_payoff(problem, strategy, 1_000_000, 1)
        counts = [round(p * 1_000_000) for p in report.empirical_distribution.probs]
        exact = sum(c * Fraction(v) for c, v in zip(counts, problem.destination_payoffs)) / 1_000_000
        assert abs(Fraction(report.mean_payoff) - exact) <= exact / 10**15


class TestEstimatePayoff:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="no trials"):
            estimate_payoff(EXAMPLE1, Counting(), 0, 1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            estimate_payoff(EXAMPLE1, Counting(), 10, -1)

    @pytest.mark.parametrize("trials,seed", [(2.5, 1), (10.0, 1), (True, 1), (10, 1.5), (10, 1.0)])
    def test_rejects_non_integer_trials_or_seed(self, trials, seed):
        with pytest.raises(ValueError, match=r"^trials and seed must be integers, got "):
            estimate_payoff(EXAMPLE1, Counting(), trials, seed)

    def test_report_shape(self):
        report = estimate_payoff(EXAMPLE1, Stationary(0.5), 1000, 7)
        assert report.trials == 1000
        assert report.seed == 7
        assert report.std_error >= 0.0
        assert abs(np.asarray(report.empirical_distribution.probs).sum() - 1.0) <= 1e-12

    def test_statistics_past_float_range_in_the_sums(self):
        # unscaled, payoffs**2 overflows from |v| ~ 1.34e154 and the sum of
        # 1000 payoffs of 1e308 overflows too, yet the mean and its standard
        # error lie within the payoff range
        cases = (
            (make_drive_problem([1e308, 1e308], 1e308), Stationary(0.5)),
            (make_drive_problem([1e200, 1e200], 1e200), Stationary(0.5)),
            (make_drive_problem([1e308, -1e308], 0.0), Stationary(0.5)),
            (make_drive_problem([1e200, -1e200], 3e199), PerStep((0.2, 0.5))),
            (make_drive_problem([1e154, 0.0, -5e153], 2e153), Stationary(0.3)),
        )
        for problem, strategy in cases:
            report = estimate_payoff(problem, strategy, 1000, 1)
            exact = expected_payoff(problem, strategy)
            assert abs(report.mean_payoff - exact) <= 4.0 * report.std_error + 1e-12 * abs(exact)
            assert report.std_error <= np.abs(problem.destination_payoffs).max()

    @pytest.mark.parametrize("exits,terminal", [([MAX, -MAX], MAX), ([MAX] * 3, MAX)])
    def test_statistics_at_the_largest_float_stay_in_range(self, exits, terminal):
        # scaled below 1, every payoff, the mean and the standard error are at
        # most 1 - 2**-53, so scaling back cannot pass the largest float
        problem = make_drive_problem(exits, terminal)
        strategies = (Stationary(0.5), Counting(), PerStep((0.5,) * len(exits)))
        for strategy in strategies:
            for trials in (1, 2, 3, 2**29, 2**29 + 1, MAX_TRIALS):
                for seed in range(3):
                    report = estimate_payoff(problem, strategy, trials, seed)
                    # inf and nan fail both comparisons
                    assert abs(report.mean_payoff) <= MAX and report.std_error <= MAX

    def test_std_error_reaches_the_largest_float(self):
        # one car at each of +MAX and -MAX: mean 0, standard error exactly MAX
        report = estimate_payoff(make_drive_problem([MAX], -MAX), PerStep((0.5,)), 2, 0)
        assert np.asarray(report.empirical_distribution.probs).tolist() == [0.5, 0.5]
        assert report.mean_payoff == 0.0
        assert report.std_error == MAX

    @pytest.mark.parametrize("exponent", [-900, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, exponent):
        base = estimate_payoff(EXAMPLE2, Stationary(0.3), 10_000, 5)
        payoffs = np.ldexp(EXAMPLE2.destination_payoffs, exponent)
        problem = make_drive_problem(payoffs[:-1], payoffs[-1])
        scaled = estimate_payoff(problem, Stationary(0.3), 10_000, 5)
        assert scaled.mean_payoff == math.ldexp(base.mean_payoff, exponent)
        assert scaled.std_error == math.ldexp(base.std_error, exponent)
        assert scaled.empirical_distribution == base.empirical_distribution

    def test_single_trial_has_zero_std_error(self):
        report = estimate_payoff(EXAMPLE1, Stationary(0.5), 1, 3)
        assert report.std_error == 0.0

    def test_deterministic_strategy_has_zero_std_error(self):
        report = estimate_payoff(EXAMPLE1, Stationary(1.0), 5000, 3)
        assert report.mean_payoff == 0.0
        assert report.std_error == 0.0

    def test_bit_identical_reports(self):
        a = estimate_payoff(EXAMPLE1, Counting(), 3 * TWO_16 + 17, 123456789)
        b = estimate_payoff(EXAMPLE1, Counting(), 3 * TWO_16 + 17, 123456789)
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
        for trials in (1, TWO_16 - 1, TWO_16, TWO_16 + 1):
            report = estimate_payoff(EXAMPLE1, Counting(), trials, 5)
            counts = np.asarray(report.empirical_distribution.probs) * trials
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

    def test_per_step_oracle_agreement_at_1024_intersections(self):
        rng = np.random.default_rng(1024)
        problem = make_drive_problem(rng.uniform(0.0, 10.0, 1024).tolist(), 5.0)
        strategy = PerStep(tuple(rng.uniform(0.0, 0.005, 1024).tolist()))
        report = estimate_payoff(problem, strategy, 1_000_000, 20260810)
        analytic = expected_payoff(problem, strategy)
        assert abs(report.mean_payoff - analytic) <= SIGMAS * report.std_error

    def test_classical_blocks_hold_no_per_trial_arrays(self):
        # 2**17 trials at m = 1024: the per-step draws need O(m) memory, where
        # a (2**17, m) matrix of uniforms would take 1 GiB.
        problem = make_drive_problem([1.0] * 1024, 0.0)
        strategy = PerStep((0.001,) * 1024)
        estimate_payoff(problem, strategy, 10, 5)  # a warm-up call; only the next one is counted
        tracemalloc.start()
        try:
            estimate_payoff(problem, strategy, 2 * TWO_16, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m,bound", [(20, 64 << 10), (1024, 256 << 10)])
    def test_quantum_blocks_hold_no_per_trial_arrays(self, m, bound):
        # 2**17 trials of a plan with one ket per destination: the per-step
        # draws need O(m) memory (about 90 bytes a step), not a uniform and a
        # destination per trial (1 MiB each as float64).
        problem, strategy = ramp_problem(m), plans(m)["counting_state"]
        estimate_payoff(problem, strategy, 10, 5)  # a warm-up call; only the next one is counted
        tracemalloc.start()
        try:
            estimate_payoff(problem, strategy, 2 * TWO_16, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_largest_run_is_one_chain(self):
        # 10**9 trials take at most m binomial draws: every car lands
        # somewhere, and the mean sits within budget of the closed form.
        report = estimate_payoff(EXAMPLE2, Counting(), MAX_TRIALS, 11)
        counts = np.rint(np.asarray(report.empirical_distribution.probs) * MAX_TRIALS).astype(np.int64)
        assert counts.sum() == MAX_TRIALS
        assert abs(report.mean_payoff - 1.5) <= SIGMAS * report.std_error

    @pytest.mark.parametrize("plan", sorted(PLANS_20))
    def test_quantum_oracle_agreement_at_20_qubits(self, plan):
        state = PLANS_20[plan]
        report = estimate_payoff(PROBLEM_20, state, 1_000_000, 20260810)
        analytic = expected_payoff(PROBLEM_20, state)
        assert abs(report.mean_payoff - analytic) <= SIGMAS * report.std_error

    def test_quantum_oracle_agreement(self):
        report = estimate_payoff(EXAMPLE1, BELL, 200_000, 20260810)
        assert abs(report.mean_payoff - 2.0) <= SIGMAS * max(report.std_error, 1e-12)

    def test_empirical_distribution_close_to_analytic(self):
        report = estimate_payoff(EXAMPLE2, Counting(), 1_000_000, 8)
        analytic = destination_distribution(EXAMPLE2, Counting())
        tv = 0.5 * np.abs(np.asarray(report.empirical_distribution.probs) - analytic.probs).sum()
        assert tv <= 0.005

    def test_quantum_empirical_distribution(self):
        report = estimate_payoff(EXAMPLE1, BELL, 1_000_000, 8)
        analytic = first_zero_distribution(BELL)
        tv = 0.5 * np.abs(np.asarray(report.empirical_distribution.probs) - analytic.probs).sum()
        assert tv <= 0.005
        assert report.empirical_distribution.probs[2] == 0.0  # terminal never sampled

    def test_product_state_sampling_matches_quantum_payoff(self):
        state = product_state(0.4, 3)
        analytic = expected_payoff(EXAMPLE2, state)
        report = estimate_payoff(EXAMPLE2, state, 200_000, 77)
        assert abs(report.mean_payoff - analytic) <= SIGMAS * report.std_error
