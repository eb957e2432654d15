# The same highway graph, driven twice: a student registering for 2 of 4
# courses, where the first pick disappears from the catalogue before the
# second round.  Payoffs for the four courses: 0, 4, 1, 1.
#
# Modeling quirk to keep in mind: the first pick is averaged uniformly
# (weight 1/n) regardless of strategy; only the second round is driven
# with the stationary alpha or the counting rule.

from absentdriver import (
    SelectionProblem,
    beta_coefficients,
    counting_round_values,
    first_choice_totals,
    optimize_two_round,
    two_round_average_drive,
)

courses = SelectionProblem((0, 4, 1, 1))

# (1/4)(10 + 6a - 6a^2) in alpha: the first pick's mean 1.5 plus one averaged
# second-round drive, 1 + 1.5b - 1.5b^2 in beta = 1 - alpha
mean, second_round = two_round_average_drive(courses)
print("first pick mean:", mean, "second round polynomial in beta:", beta_coefficients(second_round))

best = optimize_two_round(courses)
print(f"best stationary alpha: {best.alpha_star:g}, total payoff {best.payoff_star:g}")

# Per first choice, 1 + 3a, 5 - a, and 2 + 2a - 3a^2 twice; their mean is
# the optimum above.
print("\nper-first-choice totals with a stationary second round at alpha*:")
totals = first_choice_totals(courses, best.alpha_star)
for choice, (first, total) in enumerate(zip(courses.destination_payoffs, totals), start=1):
    print(f"  choice {choice}: first payoff {first:g}, total {total:g}")

print("\ncounting (uniform) second round, per first choice:")
for first, second in counting_round_values(courses):
    print(f"  {first:g} + {second:.6g} = {first + second:.6g}")
# Every course is the first pick or the second with probability 1/4 each, so
# the counting average total is twice the mean payoff.
print("counting average total:", 2 * mean)

# 3 versus 23/8: the uniform rule wins by exactly 1/8 here.
print("improvement of counting over the optimized alpha:", 2 * mean - best.payoff_star)

# The sign flips when one course carries all the value: always-exit-first
# collects 10 every time, while uniform picks dilute it.
concentrated = SelectionProblem((10, 0, 0, 0))
print("\nconcentrated payoffs improvement:",
      2 * two_round_average_drive(concentrated)[0] - optimize_two_round(concentrated).payoff_star)
