# What changes if the driver can order qubits at the planning stage and
# measure one at each intersection (exit on 0, keep driving on 1)?
#
# Unentangled qubits buy nothing: a product state reproduces the classical
# stationary strategy exactly.  Entangled ones correlate the decisions
# across intersections and beat every memoryless classical plan.

import math

from absentdriver import (
    PerStep,
    Stationary,
    build_state,
    destination_distribution,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
    step_exit_probabilities,
)

problem = make_drive_problem([0, 4], 1)

# One qubit per intersection, all identical and independent: same numbers
# as the classical alpha strategy.  Two qubits sqrt(alpha)|0> + sqrt(1 - alpha)|1>
# make the four kets of their tensor product.
for alpha in (0.2, 1 / 3, 0.8):
    zero, one = math.sqrt(alpha), math.sqrt(1.0 - alpha)
    product = build_state([("00", zero * zero), ("01", zero * one), ("10", one * zero), ("11", one * one)])
    quantum = first_zero_distribution(product)
    classical = destination_distribution(problem, Stationary(alpha))
    print(
        f"alpha={alpha:.4f}  product-state dist={tuple(round(p, 6) for p in quantum.probs)}  "
        f"classical dist={tuple(round(p, 6) for p in classical.probs)}"
    )

# A fully entangled pair: measuring 0 first (exit 1) or 1 first, in which
# case the second measurement is certainly 0 (exit 2).  The terminal is
# unreachable, and the average payoff jumps from 4/3 to 2.
bell = build_state([("01", 1), ("10", 1)], normalize=True)
print("\nentangled pair dist:", first_zero_distribution(bell).probs)
print("entangled pair payoff:", expected_payoff(problem, bell))

# The plan is fully described by its exit hazard at each intersection: the
# chance of exiting there given the car got that far.  A classical driver
# who follows those hazards with a counter earns the same 2.0, so the
# entangled pair beats only the memoryless driver.
hazards = step_exit_probabilities(problem, bell)
print("entangled pair hazards:", hazards)
print("hazards as a per-step plan:", expected_payoff(problem, PerStep(hazards)))

# Three intersections, valuable third exit, befuddled driver: this state
# guarantees that skipping the first exit forces a third-exit arrival.
lopsided = make_drive_problem([7, 99, 3], 0)
skip_two = build_state([("001", 1), ("110", 1)], normalize=True)
print("\nskip-two dist:", first_zero_distribution(skip_two).probs)
print("skip-two payoff (average of exits 1 and 3):",
      expected_payoff(lopsided, skip_two))

# Writing the exit number into the state makes the trip deterministic,
# but that is just a counter in quantum clothing -- a classical car
# counting exits achieves the same thing.
third = build_state([("110", 1)])
print("\n|110> dist:", first_zero_distribution(third).probs)
print("|110> payoff on the three-exit problem:",
      expected_payoff(make_drive_problem([0, 4, 1], 1), third))

# Phases do not matter: only |amplitude|^2 enters the exit rule.
rotated = build_state([("01", 1j), ("10", -1j)], normalize=True)
print("\nphase-rotated pair dist:", first_zero_distribution(rotated).probs)
