"""Exit strategies for a driver who cannot tell highway intersections apart.

The package models the classic imperfect-recall drive: ``m`` identical-looking
exits with payoffs, a terminal payoff for missing them all, and strategies
that may not condition on position.  It evaluates classical strategies in
closed form, optimizes the stationary exit probability, scores quantum
measurement plans on a small statevector engine, handles the two-round
"pick 2 of n" extension, and cross-checks everything with a seeded Monte
Carlo simulator.

Submodules load on first use (PEP 562): ``import absentdriver`` loads none,
and each public name imports only the submodule it lives in.
"""

__version__ = "0.1.0"

__all__ = [
    "Counting", "DestinationDistribution", "DriveProblem", "NamedStrategy",
    "OptimizationResult", "PerStep", "Scenario", "ScenarioError", "ScenarioOptions",
    "SelectionProblem", "SimulationReport", "StateVector", "Stationary", "Strategy",
    "beta_coefficients", "build_state", "counting_round_values", "destination_distribution",
    "estimate_payoff", "expected_payoff", "first_choice_totals", "first_zero_distribution",
    "make_drive_problem", "optimize_stationary", "optimize_two_round", "parse_scenario",
    "stationary_payoff", "step_exit_probabilities", "two_round_average_drive",
]

# each public name and the submodule that defines it
_HOME = {
    "Strategy": "classical", "beta_coefficients": "classical",
    "destination_distribution": "classical", "expected_payoff": "classical",
    "stationary_payoff": "classical", "step_exit_probabilities": "classical",
    "Counting": "model", "DestinationDistribution": "model", "DriveProblem": "model",
    "PerStep": "model", "SelectionProblem": "model", "Stationary": "model",
    "make_drive_problem": "model",
    "OptimizationResult": "optimize", "optimize_stationary": "optimize",
    "StateVector": "quantum", "build_state": "quantum", "first_zero_distribution": "quantum",
    "NamedStrategy": "scenario", "Scenario": "scenario", "ScenarioError": "scenario",
    "ScenarioOptions": "scenario", "parse_scenario": "scenario",
    "counting_round_values": "selection", "first_choice_totals": "selection",
    "optimize_two_round": "selection", "two_round_average_drive": "selection",
    "SimulationReport": "simulate", "estimate_payoff": "simulate",
}
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name):
    if name in _SUBMODULES:
        # binds the submodule in this namespace; importlib is not loaded at startup on every Python
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
