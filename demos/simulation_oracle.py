# Every closed-form number in this package can be replayed as a plain
# mechanism simulation: walk the intersections, draw how many cars exit at
# each, tally the destinations.  This script does exactly that and compares.
#
# Reports are reproducible: a run draws from PCG64 seeded with
# default_rng(seed), one binomial per intersection, so the same
# (seed, trials) always yields bit-identical results.

from absentdriver import (
    Counting,
    Stationary,
    build_state,
    destination_distribution,
    estimate_payoff,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
)

problem = make_drive_problem([0, 4], 1)
bell = build_state([("01", 1), ("10", 1)], normalize=True)
TRIALS = 1_000_000
SEED = 20260810

cases = [
    ("stationary 1/3", Stationary(1 / 3), expected_payoff(problem, Stationary(1 / 3))),
    ("counting", Counting(), expected_payoff(problem, Counting())),
    ("entangled pair", bell, expected_payoff(problem, bell)),
]

for label, strategy, analytic in cases:
    report = estimate_payoff(problem, strategy, TRIALS, SEED)
    sigma = (report.mean_payoff - analytic) / report.std_error if report.std_error else 0.0
    print(f"{label:15s} analytic={analytic:.6f}  simulated={report.mean_payoff:.6f} "
          f"+/- {report.std_error:.6f}  ({sigma:+.2f} sigma)")

# Empirical destination frequencies line up with the product form too.
report = estimate_payoff(problem, Counting(), TRIALS, SEED)
analytic = destination_distribution(problem, Counting())
print("\ncounting analytic dist: ", tuple(round(p, 6) for p in analytic.probs))
print("counting empirical dist:", tuple(round(p, 6) for p in report.empirical_distribution.probs))
tv = 0.5 * sum(abs(e - a) for e, a in zip(report.empirical_distribution.probs, analytic.probs))
print(f"total variation distance: {tv:.6f}")

# The entangled pair never reaches the terminal, simulated or not.
report = estimate_payoff(problem, bell, TRIALS, SEED)
print("\nentangled empirical dist:", report.empirical_distribution.probs,
      " analytic:", first_zero_distribution(bell).probs)

# Same seed, same report, bit for bit.
again = estimate_payoff(problem, bell, TRIALS, SEED)
print("replay is bit-identical:", report == again)
