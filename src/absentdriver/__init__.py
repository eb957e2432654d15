"""Exit strategies for a driver who cannot tell highway intersections apart.

The package models the classic imperfect-recall drive: ``m`` identical-looking
exits with payoffs, a terminal payoff for missing them all, and strategies
that may not condition on position.  It evaluates classical strategies in
closed form, optimizes the stationary exit probability, scores quantum
measurement plans on a small statevector engine, handles the two-round
"pick 2 of n" extension, and cross-checks everything with a seeded Monte
Carlo simulator.
"""

from .classical import (
    beta_coefficients,
    destination_distribution,
    expected_payoff,
    stationary_payoff,
    step_exit_probabilities,
)
from .model import (
    Counting,
    DestinationDistribution,
    DriveProblem,
    PerStep,
    Quantum,
    SelectionProblem,
    Stationary,
    Strategy,
    make_drive_problem,
)
from .optimize import OptimizationResult, optimize_stationary
from .quantum import (
    StateVector,
    build_state,
    first_zero_distribution,
    product_state,
)
from .scenario import (
    NamedStrategy,
    Scenario,
    ScenarioError,
    ScenarioOptions,
    parse_scenario,
    scenario_to_document,
)
from .selection import (
    counting_round_values,
    first_choice_totals,
    optimize_two_round,
    selection_improvement,
    two_round_average_drive,
    two_round_counting_total,
)
from .simulate import SimulationReport, estimate_payoff

__version__ = "0.1.0"

__all__ = [
    "Counting",
    "DestinationDistribution",
    "DriveProblem",
    "NamedStrategy",
    "OptimizationResult",
    "PerStep",
    "Quantum",
    "Scenario",
    "ScenarioError",
    "ScenarioOptions",
    "SelectionProblem",
    "SimulationReport",
    "StateVector",
    "Stationary",
    "Strategy",
    "beta_coefficients",
    "build_state",
    "counting_round_values",
    "destination_distribution",
    "estimate_payoff",
    "expected_payoff",
    "first_choice_totals",
    "first_zero_distribution",
    "make_drive_problem",
    "optimize_stationary",
    "optimize_two_round",
    "parse_scenario",
    "product_state",
    "scenario_to_document",
    "selection_improvement",
    "stationary_payoff",
    "step_exit_probabilities",
    "two_round_average_drive",
    "two_round_counting_total",
]
