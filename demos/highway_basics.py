# A driver leaves a bar and has to pick a highway exit, but every
# intersection looks the same to them.  Exit 1 is hazardous (payoff 0),
# exit 2 is home (payoff 4), and missing both means a night in a hotel
# at the end of the road (payoff 1).
#
# This script walks through the basic machinery: distributions, expected
# payoffs, the payoff polynomial in the exit probability, and its optimum.

from absentdriver import (
    Counting,
    Stationary,
    beta_coefficients,
    destination_distribution,
    expected_payoff,
    make_drive_problem,
    optimize_stationary,
    stationary_payoff,
)

two_exits = make_drive_problem([0, 4], 1)
print("destinations:", two_exits.destination_payoffs)

# With no memory at all, the driver can only commit to one exit
# probability `alpha` and apply it everywhere.
for alpha in (0.0, 0.25, 1 / 3, 0.5, 1.0):
    dist = destination_distribution(two_exits, Stationary(alpha))
    print(
        f"alpha={alpha:.4f}  dist={tuple(round(p, 4) for p in dist.probs)}  "
        f"payoff={expected_payoff(two_exits, Stationary(alpha)):.6f}"
    )

# The expected payoff is a polynomial in alpha, here 1 + 2a - 3a^2, whose
# coefficients are the payoffs themselves: the problem is its own polynomial.
# In beta = 1 - alpha it reads 4b - 3b^2: each coefficient is the difference
# of two consecutive payoffs.
print("\npayoff at alpha = 0, 1/3, 1:", stationary_payoff(two_exits, [0.0, 1 / 3, 1.0]))
print("polynomial coefficients in beta (b0, b1, ...):", beta_coefficients(two_exits))

best = optimize_stationary(two_exits)
print(f"optimum: alpha*={best.alpha_star:.6f} payoff={best.payoff_star:.6f} ({best.method})")

# Growing the highway by one more payoff-1 exit changes nothing: the
# polynomial's cubic term cancels and the optimum stays at (1/3, 4/3).
three_exits = make_drive_problem([0, 4, 1], 1)
print("\nlarger problem coefficients:", beta_coefficients(three_exits))
print("larger problem optimum:", optimize_stationary(three_exits))

# Now give the car (not the driver) a counter.  Exiting with probability
# 1/k, then 1/(k-1), ... spreads the arrivals perfectly evenly over the
# k destinations -- no payoff knowledge needed.
for problem, label in ((two_exits, "two exits"), (three_exits, "three exits")):
    dist = destination_distribution(problem, Counting())
    print(f"\ncounting on {label}: dist={tuple(round(p, 4) for p in dist.probs)}")
    print(f"counting payoff: {expected_payoff(problem, Counting()):.6f}")

# On both examples the uniform counting strategy beats the best memoryless
# alpha (5/3 > 4/3 and 3/2 > 4/3).  That advantage is example-specific,
# not a theorem: pile the value onto the first exit and alpha=1 wins.
lopsided = make_drive_problem([10, 0], 0)
print("\nlopsided problem, always exit:", expected_payoff(lopsided, Stationary(1.0)))
print("lopsided problem, counting:   ", expected_payoff(lopsided, Counting()))
