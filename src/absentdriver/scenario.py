"""Scenario documents: JSON descriptions of one problem plus named strategies.

Schema (top-level object)::

    {
      "problem":   {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1}
                 | {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
      "strategies": [
        {"name": "plan",  "kind": "stationary", "alpha": 0.25},
        {"name": "count", "kind": "counting"},
        {"name": "steps", "kind": "per_step", "exit_probs": [0.5, 0.5]},
        {"name": "bell",  "kind": "quantum", "normalize": true,
         "terms": [{"bits": "01", "re": 1, "im": 0},
                   {"bits": "10", "re": 1, "im": 0}]}
      ],
      "options": {"trials": 100000, "seed": 12345, "grid_step": 0.05}
    }

``options`` and every one of its keys are optional.  All cross-dimension
checks (step counts, qubit counts vs. intersections) run at parse time, and
errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

from .classical import step_exit_probabilities
from .model import (
    Counting,
    DriveProblem,
    PerStep,
    Quantum,
    SelectionProblem,
    Stationary,
    Strategy,
    make_drive_problem,
)
from .quantum import BasisTerm, build_state, check_qubit_count

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 12345
DEFAULT_GRID_STEP = 0.05
# curve prints ceil(1 / step) + 1 rows; a smaller step would not finish
MIN_GRID_STEP = 1e-6


class ScenarioError(ValueError):
    """Scenario document rejected; ``path`` points at the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class NamedStrategy:
    name: str
    strategy: Strategy


@dataclass(frozen=True)
class ScenarioOptions:
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    grid_step: float = DEFAULT_GRID_STEP


@dataclass(frozen=True)
class Scenario:
    problem: DriveProblem | SelectionProblem
    strategies: tuple[NamedStrategy, ...]
    options: ScenarioOptions = ScenarioOptions()

    def with_options(self, **overrides) -> "Scenario":
        return replace(self, options=replace(self.options, **overrides))


def valid_grid_step(step) -> bool:
    """Whether ``step`` is a number in ``[MIN_GRID_STEP, 1]``."""
    return isinstance(step, (int, float)) and not isinstance(step, bool) and MIN_GRID_STEP <= step <= 1


def _require(mapping, key, path, kind, type_name):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"expected an object, got {type(mapping).__name__}", path)
    if key not in mapping:
        raise ScenarioError(f"missing required field '{key}'", path)
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ScenarioError(f"field '{key}' must be {type_name}", path)
    return value


def _parse_int(digits: str):
    """Integer literals past ``int``'s 4300-digit limit read as ``inf``, for ``_floats`` to reject."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


_DECODER = json.JSONDecoder(parse_int=_parse_int)


def _floats(values, where):
    """JSON numbers as floats; ``where(j)`` is the path of entry ``j`` in errors.

    Huge integers and ``1e400`` (read as inf) are outside the float range.
    """
    limit = sys.float_info.max
    for j, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError("must be a number", where(j))
        if abs(v) > limit:
            raise ScenarioError("number is outside the float range", where(j))
    return [float(v) for v in values]


def _number_list(mapping, key, path):
    values = _require(mapping, key, path, list, "a list of numbers")
    return _floats(values, lambda j: f"{path}.{key}[{j}]")


def _number(mapping, key, path):
    value = _require(mapping, key, path, (int, float), "a number")
    return _floats([value], lambda _: f"{path}.{key}")[0]


def _wrap(path: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), path) from exc


def _parse_problem(doc, path="problem") -> DriveProblem | SelectionProblem:
    kind = _require(doc, "kind", path, str, "a string")
    if kind == "drive":
        exits = _number_list(doc, "exit_payoffs", path)
        terminal = _number(doc, "terminal_payoff", path)
        return _wrap(path, make_drive_problem, exits, terminal)
    if kind == "selection":
        payoffs = _number_list(doc, "destination_payoffs", path)
        return _wrap(path, SelectionProblem, tuple(payoffs))
    raise ScenarioError(f"unknown problem kind {kind!r} (expected 'drive' or 'selection')", path)


def _parse_strategy(doc, path, force_normalize: bool) -> NamedStrategy:
    name = _require(doc, "name", path, str, "a string")
    kind = _require(doc, "kind", path, str, "a string")
    if kind == "stationary":
        return NamedStrategy(name, _wrap(path, Stationary, _number(doc, "alpha", path)))
    if kind == "counting":
        return NamedStrategy(name, Counting())
    if kind == "per_step":
        probs = _number_list(doc, "exit_probs", path)
        return NamedStrategy(name, _wrap(path, PerStep, tuple(probs)))
    if kind == "quantum":
        raw_terms = _require(doc, "terms", path, list, "a list of term objects")
        terms = []
        for j, term in enumerate(raw_terms):
            term_path = f"{path}.terms[{j}]"
            bits = _require(term, "bits", term_path, str, "a string of 0s and 1s")
            re = _number(term, "re", term_path)
            im = _number(term, "im", term_path) if "im" in term else 0.0
            terms.append(_wrap(term_path, BasisTerm, bits, complex(re, im)))
        normalize = doc.get("normalize", False)
        if not isinstance(normalize, bool):
            raise ScenarioError("field 'normalize' must be true or false", path)
        state = _wrap(path, build_state, terms, normalize=normalize or force_normalize)
        return NamedStrategy(name, Quantum(state))
    raise ScenarioError(
        f"unknown strategy kind {kind!r} "
        "(expected 'stationary', 'counting', 'per_step' or 'quantum')",
        path,
    )


def _parse_options(doc, path="options") -> ScenarioOptions:
    if doc is None:
        return ScenarioOptions()
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    opts = ScenarioOptions()
    if "trials" in doc:
        trials = doc["trials"]
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise ScenarioError("no trials: 'trials' must be a positive integer", path)
        opts = replace(opts, trials=trials)
    if "seed" in doc:
        seed = doc["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ScenarioError("'seed' must be an unsigned 64-bit integer", path)
        opts = replace(opts, seed=seed)
    if "grid_step" in doc:
        step = doc["grid_step"]
        if not valid_grid_step(step):
            raise ScenarioError(f"'grid_step' must be a number in [{MIN_GRID_STEP:g}, 1]", path)
        opts = replace(opts, grid_step=float(step))
    unknown = set(doc) - {"trials", "seed", "grid_step"}
    if unknown:
        raise ScenarioError(f"unknown option(s): {sorted(unknown)}", path)
    return opts


def _check_dimensions(problem, named: NamedStrategy, path: str) -> None:
    strategy = named.strategy
    if isinstance(problem, SelectionProblem):
        if isinstance(strategy, (PerStep, Quantum)):
            raise ScenarioError(
                "strategy/problem mismatch: selection problems only take "
                "stationary or counting strategies",
                path,
            )
        return
    if isinstance(strategy, Quantum):
        _wrap(path, check_qubit_count, strategy.state, problem.num_intersections)
    else:
        _wrap(path, step_exit_probabilities, problem, strategy)


def parse_scenario(text: str, normalize_states: bool = False) -> Scenario:
    """Parse and fully validate a scenario document.

    ``normalize_states`` forces quantum state normalization even when the
    document does not set the per-strategy flag.
    """
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    unknown = set(doc) - {"problem", "strategies", "options"}
    if unknown:
        raise ScenarioError(f"unknown top-level field(s): {sorted(unknown)}")

    problem = _parse_problem(_require(doc, "problem", "", dict, "an object"))
    raw_strategies = _require(doc, "strategies", "", list, "a list")
    if not raw_strategies:
        raise ScenarioError("at least one strategy is required", "strategies")
    strategies = []
    names = set()
    for j, raw in enumerate(raw_strategies):
        path = f"strategies[{j}]"
        if not isinstance(raw, dict):
            raise ScenarioError("expected an object", path)
        named = _parse_strategy(raw, path, normalize_states)
        if named.name in names:
            raise ScenarioError(f"duplicate strategy name {named.name!r}", path)
        names.add(named.name)
        _check_dimensions(problem, named, path)
        strategies.append(named)
    options = _parse_options(doc.get("options"))
    return Scenario(problem, tuple(strategies), options)


def _strategy_doc(named: NamedStrategy) -> dict:
    s = named.strategy
    if isinstance(s, Stationary):
        return {"name": named.name, "kind": "stationary", "alpha": s.alpha}
    if isinstance(s, Counting):
        return {"name": named.name, "kind": "counting"}
    if isinstance(s, PerStep):
        return {"name": named.name, "kind": "per_step", "exit_probs": list(s.exit_probs)}
    if isinstance(s, Quantum):
        m = s.state.num_qubits
        terms = [
            {"bits": format(i, f"0{m}b"), "re": amp.real, "im": amp.imag}
            for i, amp in zip(s.state.indices.tolist(), s.state.values.tolist())
        ]
        return {"name": named.name, "kind": "quantum", "terms": terms, "normalize": False}
    raise TypeError(f"unknown strategy type: {type(s).__name__}")


def scenario_to_document(scenario: Scenario) -> str:
    """Canonical JSON for a scenario; parsing it back reproduces the scenario."""
    if isinstance(scenario.problem, SelectionProblem):
        problem = {
            "kind": "selection",
            "destination_payoffs": list(scenario.problem.destination_payoffs),
        }
    else:
        problem = {
            "kind": "drive",
            "exit_payoffs": list(scenario.problem.exit_payoffs),
            "terminal_payoff": scenario.problem.terminal_payoff,
        }
    doc = {
        "problem": problem,
        "strategies": [_strategy_doc(s) for s in scenario.strategies],
        "options": {
            "trials": scenario.options.trials,
            "seed": scenario.options.seed,
            "grid_step": scenario.options.grid_step,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _example1() -> Scenario:
    problem = make_drive_problem([0.0, 4.0], 1.0)
    bell = build_state([("01", 1.0), ("10", 1.0)], normalize=True)
    return Scenario(
        problem,
        (
            NamedStrategy("stationary", Stationary(1.0 / 3.0)),
            NamedStrategy("counting", Counting()),
            NamedStrategy("bell", Quantum(bell)),
        ),
    )


def _example2() -> Scenario:
    problem = make_drive_problem([0.0, 4.0, 1.0], 1.0)
    third_exit = build_state([("110", 1.0)])
    return Scenario(
        problem,
        (
            NamedStrategy("stationary", Stationary(1.0 / 3.0)),
            NamedStrategy("counting", Counting()),
            NamedStrategy("third-exit", Quantum(third_exit)),
        ),
    )


def _selection_example() -> Scenario:
    return Scenario(
        SelectionProblem((0.0, 4.0, 1.0, 1.0)),
        (NamedStrategy("stationary", Stationary(0.5)),),
    )


PRESETS = {
    "example1": _example1,
    "example2": _example2,
    "selection-example": _selection_example,
}


def preset_scenario(name: str) -> Scenario:
    """Built-in scenarios so the common cases need no file authoring."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_GRID_STEP",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "MIN_GRID_STEP",
    "NamedStrategy",
    "PRESETS",
    "Scenario",
    "ScenarioError",
    "ScenarioOptions",
    "parse_scenario",
    "preset_scenario",
    "scenario_to_document",
    "valid_grid_step",
]
