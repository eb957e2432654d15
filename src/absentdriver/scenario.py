"""Scenario documents: JSON descriptions of one problem plus named strategies.

A document is ``{"problem": {...}, "strategies": [{...}, ...], "options": {...}}``
(the README shows one in full).  The schema of a problem or strategy is its
``kind``'s row in one of two tables, ``_PROBLEMS`` and ``_STRATEGIES``: the
fields it takes, read in order and passed to its constructor.  Parsing, the
unknown-field check and :func:`scenario_to_document` all read those rows, so
each field is named once; a strategy also carries a ``name``.

A quantum plan's norm must be within 1e-6 of 1 unless ``"normalize": true``
rescales it.  ``options`` may be left out, but when present it is an object
whose keys are each optional; unknown fields are errors.  Each strategy is
fitted to the problem by :func:`~absentdriver.classical.check_fit`, from its
kind and counts alone, and errors carry the offending JSON path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, replace

from .classical import check_fit
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
from .quantum import build_state

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 12345
DEFAULT_GRID_STEP = 0.05
# Bounds on what an accepted document can ask for: simulate counts at most
# MAX_TRIALS cars per strategy, and curve prints ceil(1 / step) + 1 rows.
MAX_TRIALS = 10**9
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

    def with_options(self, names=None, **overrides) -> "Scenario":
        """This scenario with its options overridden, checked as in a document."""
        return replace(self, options=_checked_options(self.options, overrides, names, path=""))


# option -> (types, low, high, requirement); errors read "<option> must be <requirement>"
_OPTION_RULES = {
    "trials": (int, 1, MAX_TRIALS, f"an integer in [1, {MAX_TRIALS}]"),
    "seed": (int, 0, 2**64 - 1, "an unsigned 64-bit integer"),
    "grid_step": ((int, float), MIN_GRID_STEP, 1, f"a number in [{MIN_GRID_STEP:g}, 1]"),
}


def _checked_options(options: ScenarioOptions, values: dict, names=None,
                    path: str = "options") -> ScenarioOptions:
    """``options`` with ``values`` applied, each one checked against its rule.

    ``names`` maps an option to what errors call it (such as a CLI flag); by
    default they quote its JSON key.
    """
    for key, value in values.items():
        types, low, high, requirement = _OPTION_RULES[key]
        if not isinstance(value, types) or isinstance(value, bool) or not low <= value <= high:
            name = names[key] if names else repr(key)
            raise ScenarioError(f"{name} must be {requirement}", path)
    if "grid_step" in values:
        values = {**values, "grid_step": float(values["grid_step"])}
    return replace(options, **values)


def _require(mapping, key, path, kind, type_name):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"expected an object, got {type(mapping).__name__}", path)
    if key not in mapping:
        raise ScenarioError(f"missing required field '{key}'", path)
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ScenarioError(f"field '{key}' must be {type_name}", path)
    return value


def _known_fields(mapping, known, path, what="field(s)"):
    """Reject keys outside ``known``: a misspelt field would otherwise be dropped."""
    unknown = mapping.keys() - known
    if unknown:
        raise ScenarioError(f"unknown {what}: {sorted(unknown)}", path)


def _parse_int(digits: str):
    """Integer literals past ``int``'s 4300-digit limit read as ``inf``, for ``_floats`` to reject."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


_DECODER = json.JSONDecoder(parse_int=_parse_int)


def _floats(values, where):
    """JSON numbers as floats; ``where(j)`` is the path of entry ``j`` in errors.

    Huge integers, ``1e400`` and the ``Infinity`` and ``NaN`` literals are outside the float range.
    """
    limit = sys.float_info.max
    for j, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError("must be a number", where(j))
        if not abs(v) <= limit:  # json reads NaN, which fails this too
            raise ScenarioError("number is outside the float range", where(j))
    return [float(v) for v in values]


def _number_list(mapping, key, path):
    values = _require(mapping, key, path, list, "a list of numbers")
    return _floats(values, lambda j: f"{path}.{key}[{j}]")


def _number(mapping, key, path):
    value = _require(mapping, key, path, (int, float), "a number")
    return _floats([value], lambda _: f"{path}.{key}")[0]


def _wrap(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its ``ValueError`` reported at ``path``; the args are read first."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), path) from exc


def _terms(mapping, key, path):
    terms = []
    for j, term in enumerate(_require(mapping, key, path, list, "a list of term objects")):
        term_path = f"{path}.{key}[{j}]"
        bits = _require(term, "bits", term_path, str, "a string of 0s and 1s")
        _known_fields(term, ("bits", "re", "im"), term_path)
        re = _number(term, "re", term_path)
        im = _number(term, "im", term_path) if "im" in term else 0.0
        if not bits or bits.strip("01"):  # StateVector's own check cannot name the term
            raise ScenarioError(f"bad basis string: {bits!r}", term_path)
        terms.append((bits, complex(re, im)))
    return terms


def _flag(mapping, key, path):
    value = mapping.get(key, False)
    if not isinstance(value, bool):
        raise ScenarioError(f"field '{key}' must be true or false", path)
    return value


# The schema: kind -> (type, constructor, {field: reader}).  Fields are read in
# order and passed to the constructor; each is written back from its attribute.
_PROBLEMS = {
    "drive": (DriveProblem, make_drive_problem,
              {"exit_payoffs": _number_list, "terminal_payoff": _number}),
    "selection": (SelectionProblem, SelectionProblem, {"destination_payoffs": _number_list}),
}
_STRATEGIES = {
    "stationary": (Stationary, Stationary, {"alpha": _number}),
    "counting": (Counting, Counting, {}),
    "per_step": (PerStep, PerStep, {"exit_probs": _number_list}),
    "quantum": (Quantum, lambda terms, normalize: Quantum(build_state(terms, normalize)),
                {"terms": _terms, "normalize": _flag}),
}


def _parse_kind(doc, path, table, what, *fixed):
    """Build the ``table`` row named by ``doc["kind"]``; ``fixed`` fields are read by the caller."""
    kind = _require(doc, "kind", path, str, "a string")
    if kind not in table:
        *others, last = map(repr, table)
        raise ScenarioError(f"unknown {what} kind {kind!r} (expected {', '.join(others)} or {last})",
                            path)
    _, make, fields = table[kind]
    _known_fields(doc, {"kind", *fixed, *fields}, path)
    return _wrap(path, make, *(read(doc, key, path) for key, read in fields.items()))


def _write_kind(obj, table, **doc) -> dict:
    """``doc`` plus the kind and fields of ``obj``, the inverse of :func:`_parse_kind`."""
    kind = next(k for k, (cls, _, _) in table.items() if isinstance(obj, cls))
    fields = table[kind][2]
    if isinstance(obj, Quantum):  # its state is stored normalized
        values = ([{"bits": bits.decode(), "re": amp.real, "im": amp.imag}
                   for bits, amp in zip(obj.state.bits.tolist(), obj.state.values.tolist())], False)
    else:
        values = [getattr(obj, key) for key in fields]
    return {**doc, "kind": kind, **dict(zip(fields, values))}


def _parse_options(doc, path="options") -> ScenarioOptions:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    _known_fields(doc, _OPTION_RULES, path, "option(s)")
    return _checked_options(ScenarioOptions(), doc, path=path)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    _known_fields(doc, ("problem", "strategies", "options"), "", "top-level field(s)")

    problem = _parse_kind(_require(doc, "problem", "", dict, "an object"), "problem",
                          _PROBLEMS, "problem")
    raw_strategies = _require(doc, "strategies", "", list, "a list")
    if not raw_strategies:
        raise ScenarioError("at least one strategy is required", "strategies")
    strategies = []
    names = set()
    for j, raw in enumerate(raw_strategies):
        path = f"strategies[{j}]"
        if not isinstance(raw, dict):
            raise ScenarioError("expected an object", path)
        name = _require(raw, "name", path, str, "a string")
        named = NamedStrategy(name, _parse_kind(raw, path, _STRATEGIES, "strategy", "name"))
        if named.name in names:
            raise ScenarioError(f"duplicate strategy name {named.name!r}", path)
        names.add(named.name)
        _wrap(path, check_fit, problem, named.strategy)
        strategies.append(named)
    options = _parse_options(doc["options"]) if "options" in doc else ScenarioOptions()
    return Scenario(problem, tuple(strategies), options)


def scenario_to_document(scenario: Scenario) -> str:
    """Canonical JSON for a scenario; parsing it back reproduces the scenario."""
    doc = {
        "problem": _write_kind(scenario.problem, _PROBLEMS),
        "strategies": [_write_kind(s.strategy, _STRATEGIES, name=s.name)
                       for s in scenario.strategies],
        "options": asdict(scenario.options),
    }
    return json.dumps(doc, indent=2) + "\n"


# The paper's worked examples, checked like any file; 0.3333333333333333 parses to 1.0 / 3.0.
PRESETS = {
    "example1": """{"problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
 "strategies": [{"name": "stationary", "kind": "stationary", "alpha": 0.3333333333333333},
                {"name": "counting", "kind": "counting"},
                {"name": "bell", "kind": "quantum", "normalize": true,
                 "terms": [{"bits": "01", "re": 1}, {"bits": "10", "re": 1}]}]}""",
    "example2": """{"problem": {"kind": "drive", "exit_payoffs": [0, 4, 1], "terminal_payoff": 1},
 "strategies": [{"name": "stationary", "kind": "stationary", "alpha": 0.3333333333333333},
                {"name": "counting", "kind": "counting"},
                {"name": "third-exit", "kind": "quantum", "terms": [{"bits": "110", "re": 1}]}]}""",
    "selection-example": """{"problem": {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
 "strategies": [{"name": "stationary", "kind": "stationary", "alpha": 0.5}]}""",
}


__all__ = [
    "DEFAULT_GRID_STEP",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "MAX_TRIALS",
    "MIN_GRID_STEP",
    "NamedStrategy",
    "PRESETS",
    "Scenario",
    "ScenarioError",
    "ScenarioOptions",
    "parse_scenario",
    "scenario_to_document",
]
