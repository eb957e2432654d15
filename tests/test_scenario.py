import json
import math
import re

import pytest

from absentdriver import (
    Counting,
    DriveProblem,
    PerStep,
    Scenario,
    ScenarioError,
    SelectionProblem,
    Stationary,
    StateVector,
    build_state,
    parse_scenario,
)
from absentdriver.scenario import MAX_TRIALS, PRESETS, NamedStrategy, ScenarioOptions
from oracles import dense_amplitudes

EXAMPLE1_DOC = """
{
  "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
  "strategies": [
    {"name": "plan", "kind": "stationary", "alpha": 0.3333333333333333},
    {"name": "count", "kind": "counting"},
    {"name": "bell", "kind": "quantum", "normalize": true,
     "terms": [{"bits": "01", "re": 1, "im": 0}, {"bits": "10", "re": 1, "im": 0}]}
  ],
  "options": {"trials": 5000, "seed": 99, "grid_step": 0.25}
}
"""


# One sample document per kind, and the object it parses to.
PROBLEM_KINDS = {
    "drive": {"kind": "drive", "exit_payoffs": [0.0, 4.0], "terminal_payoff": 1.0},
    "selection": {"kind": "selection", "destination_payoffs": [0.0, 4.0, 1.0, 1.0]},
}
STRATEGY_KINDS = {
    "stationary": {"kind": "stationary", "alpha": 0.25},
    "counting": {"kind": "counting"},
    "per_step": {"kind": "per_step", "exit_probs": [0.5, 0.25]},
    "quantum": {"kind": "quantum", "normalize": False,
                "terms": [{"bits": "01", "re": 0.6, "im": 0.0},
                          {"bits": "10", "re": 0.0, "im": 0.8}]},
}
PROBLEM_OBJECTS = {
    "drive": DriveProblem((0.0, 4.0), 1.0),
    "selection": SelectionProblem((0.0, 4.0, 1.0, 1.0)),
}
STRATEGY_OBJECTS = {
    "stationary": Stationary(0.25),
    "counting": Counting(),
    "per_step": PerStep((0.5, 0.25)),
    "quantum": build_state([("01", 0.6), ("10", 0.8j)]),
}


def _unknown_kind_error(problem_kind, strategy_kind) -> str:
    doc = {"problem": {**PROBLEM_KINDS["drive"], "kind": problem_kind},
           "strategies": [{"name": "s", **STRATEGY_KINDS["counting"], "kind": strategy_kind}]}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    return str(info.value)


def _accepted_kinds(problem_kind, strategy_kind) -> list[str]:
    """The kinds the parser names in its unknown-kind message, so a new one needs a sample here."""
    expected = _unknown_kind_error(problem_kind, strategy_kind).split("(expected")[1]
    return re.findall(r"'(\w+)'", expected)


class TestParseScenario:
    def test_full_document(self):
        scenario = parse_scenario(EXAMPLE1_DOC)
        assert isinstance(scenario.problem, DriveProblem)
        assert scenario.problem.exit_payoffs == (0.0, 4.0)
        assert len(scenario.strategies) == 3
        assert scenario.strategies[0].strategy == Stationary(1 / 3)
        assert isinstance(scenario.strategies[1].strategy, Counting)
        bell = scenario.strategies[2].strategy
        assert isinstance(bell, StateVector)
        assert dense_amplitudes(bell)[1] == pytest.approx(1 / math.sqrt(2))
        assert scenario.options.trials == 5000
        assert scenario.options.seed == 99

    def test_selection_problem(self):
        doc = json.dumps(
            {
                "problem": {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
                "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.5}],
            }
        )
        scenario = parse_scenario(doc)
        assert isinstance(scenario.problem, SelectionProblem)
        assert scenario.options == ScenarioOptions()

    @pytest.mark.parametrize(
        "problem_kind, strategy_kind",
        [(kind, "stationary") for kind in _accepted_kinds("x", "counting")]
        + [("drive", kind) for kind in _accepted_kinds("drive", "x")],
    )
    def test_every_kind_parses(self, problem_kind, strategy_kind):
        doc = {
            "problem": PROBLEM_KINDS[problem_kind],
            "strategies": [{"name": "s", **STRATEGY_KINDS[strategy_kind]}],
            "options": {"trials": 7, "seed": 3, "grid_step": 0.5},
        }
        assert parse_scenario(json.dumps(doc)) == Scenario(
            PROBLEM_OBJECTS[problem_kind],
            (NamedStrategy("s", STRATEGY_OBJECTS[strategy_kind]),),
            ScenarioOptions(trials=7, seed=3, grid_step=0.5),
        )

    @pytest.mark.parametrize("m", [20, 1024])
    def test_w_state_parses_sorted(self, m):
        # "10...0" first: the reverse of the sorted order the state stores
        kets = [("0" * i + "1" + "0" * (m - i - 1), complex(i + 1, -i)) for i in range(m)]
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": list(range(m)), "terminal_payoff": 0.5},
            "strategies": [{"name": "w", "kind": "quantum", "normalize": True,
                            "terms": [{"bits": bits, "re": a.real, "im": a.imag}
                                      for bits, a in kets]}],
        }
        state = parse_scenario(json.dumps(doc)).strategies[0].strategy
        assert state == build_state(kets, normalize=True)
        assert list(state.bits) == sorted(bits for bits, _ in kets)

    def test_invalid_json_reports_line(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("{\n  bad\n}")

    def test_empty_exit_payoffs(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [], "terminal_payoff": 1},
                "strategies": [{"name": "s", "kind": "counting"}],
            }
        )
        with pytest.raises(ScenarioError, match="degenerate problem"):
            parse_scenario(doc)

    def test_qubit_count_mismatch(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [
                    {
                        "name": "q",
                        "kind": "quantum",
                        "terms": [{"bits": "110", "re": 1, "im": 0}],
                    }
                ],
            }
        )
        with pytest.raises(ScenarioError, match="strategy/problem mismatch"):
            parse_scenario(doc)

    def test_fit_checked_from_counts_alone(self, monkeypatch):
        # parsing compares qubits with intersections and never reduces the plan
        def reduce(state):
            raise AssertionError("a plan was reduced while parsing")

        monkeypatch.setattr("absentdriver.classical.first_zero_distribution", reduce)
        plan = {"name": "q", "kind": "quantum", "normalize": True,
                "terms": [{"bits": "01", "re": 1}, {"bits": "10", "re": 1}]}
        for exits, error in (([0, 4], None), ([0, 4, 1], "2 qubits for 3 intersections")):
            doc = json.dumps(
                {"problem": {"kind": "drive", "exit_payoffs": exits, "terminal_payoff": 1},
                 "strategies": [plan]}
            )
            if error is None:
                assert parse_scenario(doc).strategies[0].strategy.num_qubits == 2
            else:
                with pytest.raises(ScenarioError, match=rf"^strategies\[0\]: strategy/problem mismatch: {error}$"):
                    parse_scenario(doc)

    def test_unnormalized_state_rejected(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [
                    {
                        "name": "q",
                        "kind": "quantum",
                        "terms": [
                            {"bits": "01", "re": 1, "im": 0},
                            {"bits": "10", "re": 1, "im": 0},
                        ],
                    }
                ],
            }
        )
        with pytest.raises(ScenarioError, match=r"^strategies\[0\]: not normalized"):
            parse_scenario(doc)

    @pytest.mark.parametrize("bits", ["0x", "", "0\x00"])
    def test_bad_basis_string_path(self, bits):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [
                    {"name": "c", "kind": "counting"},
                    {"name": "q", "kind": "quantum", "normalize": True,
                     "terms": [{"bits": "01", "re": 1}, {"bits": bits, "re": 1}]},
                ],
            }
        )
        message = f"strategies[1].terms[1]: bad basis string: {bits!r}"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(doc)

    def test_missing_field_path(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [{"name": "s", "kind": "stationary"}],
            }
        )
        with pytest.raises(ScenarioError, match=r"strategies\[0\].*alpha"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(problems=[]), "unknown top-level field(s): ['problems']"),
            (lambda d: d["options"].update(trails=10), "options: unknown option(s): ['trails']"),
            (lambda d: d["problem"].update(terminal=1), "problem: unknown field(s): ['terminal']"),
            (lambda d: d.update(problem={"kind": "selection", "destination_payoffs": [0, 4],
                                         "exit_payoffs": [1]}),
             "problem: unknown field(s): ['exit_payoffs']"),
            (lambda d: d["strategies"][0].update(alfa=0.5, exit_probs=[1]),
             "strategies[0]: unknown field(s): ['alfa', 'exit_probs']"),
            (lambda d: d["strategies"][1].update(alpha=0.5), "strategies[1]: unknown field(s): ['alpha']"),
            (lambda d: d["strategies"][2].update(exit_prob=[1]),
             "strategies[2]: unknown field(s): ['exit_prob']"),
            (lambda d: d["strategies"][3].update(normalise=True),
             "strategies[3]: unknown field(s): ['normalise']"),
            (lambda d: d["strategies"][3]["terms"][1].update(img=0.8),
             "strategies[3].terms[1]: unknown field(s): ['img']"),
        ],
        ids=["top", "options", "drive", "selection", "stationary", "counting",
             "per_step", "quantum", "term"],
    )
    def test_unknown_fields_rejected(self, edit, message):
        # a misspelt field must not be dropped: "img" would lose a plan's imaginary part
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
            "strategies": [
                {"name": "s", "kind": "stationary", "alpha": 0.5},
                {"name": "c", "kind": "counting"},
                {"name": "p", "kind": "per_step", "exit_probs": [0.5, 0.5]},
                {"name": "q", "kind": "quantum", "normalize": True,
                 "terms": [{"bits": "01", "re": 1}, {"bits": "10", "re": 0.6, "im": 0.8}]},
            ],
            "options": {"seed": 1},
        }
        parse_scenario(json.dumps(doc))
        edit(doc)
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: [], "top level must be an object"),
            (lambda d: {**d, "strategies": [1]}, "strategies[0]: expected an object"),
            (lambda d: {**d, "problem": {**d["problem"], "exit_payoffs": ["x"]}},
             "problem.exit_payoffs[0]: must be a number"),
            (lambda d: {**d, "strategies": [{**d["strategies"][0], "terms": [[1]]}]},
             "strategies[0].terms[0]: expected an object, got list"),
            (lambda d: {**d, "strategies": [{**d["strategies"][0], "terms": []}]},
             "strategies[0]: empty state: at least one basis term is required"),
            (lambda d: {**d, "strategies": [{**d["strategies"][0], "normalize": 1}]},
             "strategies[0]: field 'normalize' must be true or false"),
        ],
        ids=["top", "strategy", "payoff", "term", "terms", "normalize"],
    )
    def test_wrong_shapes_rejected(self, edit, message):
        doc = {"problem": PROBLEM_KINDS["drive"],
               "strategies": [{"name": "q", **STRATEGY_KINDS["quantum"]}]}
        parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(json.dumps(edit(doc)))

    def test_unknown_kind_messages(self):
        assert _unknown_kind_error("x", "counting") == (
            "problem: unknown problem kind 'x' (expected 'drive' or 'selection')")
        assert _unknown_kind_error("drive", "x") == (
            "strategies[0]: unknown strategy kind 'x' "
            "(expected 'stationary', 'counting', 'per_step' or 'quantum')")

    def test_null_options_rejected(self):
        # leaving options out takes the defaults; writing null is a mistake, as for any field
        doc = {"problem": PROBLEM_KINDS["drive"], "strategies": [{"name": "c", "kind": "counting"}]}
        assert parse_scenario(json.dumps(doc)).options == ScenarioOptions()
        with pytest.raises(ScenarioError, match=r"^options: expected an object$"):
            parse_scenario(json.dumps({**doc, "options": None}))

    @pytest.mark.parametrize("field", ["re", "im"])
    @pytest.mark.parametrize("value", [True, "1", None])
    def test_amplitude_parts_must_be_numbers(self, field, value):
        term = {"bits": "1", "re": 1, "im": 0, field: value}
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0], "terminal_payoff": 1},
                "strategies": [{"name": "q", "kind": "quantum", "terms": [term]}],
            }
        )
        with pytest.raises(ScenarioError, match=rf"terms\[0\].*'{field}' must be a number"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "literal",
        ["1" + "0" * 400, "-" + "1" * 400, "9" * 5000, "-" + "9" * 5000, "1e400",
         "NaN", "Infinity", "-Infinity"],
        ids=["int400", "negative_int400", "int5000", "negative_int5000", "float1e400",
             "nan", "infinity", "negative_infinity"],
    )
    @pytest.mark.parametrize(
        "field,path",
        [
            ("exit", "problem.exit_payoffs[1]"),
            ("terminal", "problem.terminal_payoff"),
            ("alpha", "strategies[0].alpha"),
            ("re", "strategies[1].terms[0].re"),
            ("im", "strategies[1].terms[0].im"),
            ("step", "strategies[2].exit_probs[0]"),
        ],
    )
    def test_numbers_past_float_range(self, literal, field, path):
        # float() of a 400-digit integer overflows, and Python refuses to
        # read an integer literal of more than 4300 digits at all
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, "@exit"], "terminal_payoff": "@terminal"},
                "strategies": [
                    {"name": "s", "kind": "stationary", "alpha": "@alpha"},
                    {"name": "q", "kind": "quantum", "normalize": True,
                     "terms": [{"bits": "01", "re": "@re", "im": "@im"}]},
                    {"name": "p", "kind": "per_step", "exit_probs": ["@step", 0.5]},
                ],
            }
        )
        for name in ("exit", "terminal", "alpha", "re", "im", "step"):
            doc = doc.replace(f'"@{name}"', literal if name == field else "1")
        with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: number is outside the float range$"):
            parse_scenario(doc)

    def test_missing_imaginary_part_is_zero(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0], "terminal_payoff": 1},
                "strategies": [
                    {"name": "q", "kind": "quantum", "terms": [{"bits": "1", "re": 1}]}
                ],
            }
        )
        state = parse_scenario(doc).strategies[0].strategy
        assert list(dense_amplitudes(state)) == [0, 1]

    def test_duplicate_names(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [
                    {"name": "s", "kind": "counting"},
                    {"name": "s", "kind": "stationary", "alpha": 0.5},
                ],
            }
        )
        with pytest.raises(ScenarioError, match="duplicate strategy name"):
            parse_scenario(doc)

    def test_no_strategies(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [],
            }
        )
        with pytest.raises(ScenarioError, match="at least one strategy"):
            parse_scenario(doc)

    def test_per_step_dimension_check(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [{"name": "s", "kind": "per_step", "exit_probs": [0.5, 0.5, 0.5]}],
            }
        )
        with pytest.raises(ScenarioError, match="strategy/problem mismatch"):
            parse_scenario(doc)

    def test_selection_rejects_dimensioned_strategies(self):
        message = ("strategies[1]: strategy/problem mismatch: selection problems only take "
                   "stationary or counting strategies")
        for kind in ("per_step", "quantum"):
            doc = json.dumps(
                {
                    "problem": {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
                    "strategies": [{"name": "c", "kind": "counting"},
                                   {"name": "s", **STRATEGY_KINDS[kind]}],
                }
            )
            with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
                parse_scenario(doc)

    def test_bad_options(self):
        base = {
            "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
            "strategies": [{"name": "s", "kind": "counting"}],
        }
        message = r"options: 'trials' must be an integer in \[1, 1000000000\]"
        for trials in (0, -1, MAX_TRIALS + 1, 10**30, 1e5, True, "10"):
            with pytest.raises(ScenarioError, match=message):
                parse_scenario(json.dumps({**base, "options": {"trials": trials}}))
        largest = parse_scenario(json.dumps({**base, "options": {"trials": MAX_TRIALS}}))
        assert largest.options.trials == MAX_TRIALS
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(json.dumps({**base, "options": {"seed": -4}}))
        with pytest.raises(ScenarioError, match="unknown option"):
            parse_scenario(json.dumps({**base, "options": {"trails": 10}}))
        message = r"options: 'grid_step' must be a number in \[1e-06, 1\]"
        for step in (0, 1e-300, 9e-7, 1.5, True, "0.1"):
            with pytest.raises(ScenarioError, match=message):
                parse_scenario(json.dumps({**base, "options": {"grid_step": step}}))
        smallest = parse_scenario(json.dumps({**base, "options": {"grid_step": 1e-6}}))
        assert smallest.options.grid_step == 1e-6

    def test_overrides_take_the_option_checks(self):
        scenario = parse_scenario(PRESETS["example1"])
        assert scenario.with_options(trials=MAX_TRIALS, seed=0).options.trials == MAX_TRIALS
        with pytest.raises(ScenarioError, match=r"^'trials' must be an integer in"):
            scenario.with_options(trials=MAX_TRIALS + 1)
        with pytest.raises(ScenarioError, match=r"^--seed must be an unsigned 64-bit integer"):
            scenario.with_options({"seed": "--seed"}, seed=2**64)

    def test_overrides_reject_unknown_options(self):
        # the rule a document's options follow: a misspelt name is named, not a KeyError
        scenario = parse_scenario(PRESETS["example1"])
        with pytest.raises(ScenarioError, match=r"^unknown option\(s\): \['trails'\]$"):
            scenario.with_options(trails=5)


class TestPresets:
    def test_example1(self):
        scenario = parse_scenario(PRESETS["example1"])
        assert scenario.problem.exit_payoffs == (0.0, 4.0)
        assert {s.name for s in scenario.strategies} == {"stationary", "counting", "bell"}

    def test_example2(self):
        scenario = parse_scenario(PRESETS["example2"])
        assert scenario.problem.exit_payoffs == (0.0, 4.0, 1.0)

    def test_selection_example(self):
        scenario = parse_scenario(PRESETS["selection-example"])
        assert isinstance(scenario.problem, SelectionProblem)
        assert scenario.problem.destination_payoffs == (0.0, 4.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_json_dumps_of_preset_parses_the_same(self, name):
        # a document is plain JSON, so json.dumps of its dict writes one
        rewritten = json.dumps(json.loads(PRESETS[name]))
        assert rewritten != PRESETS[name]
        assert parse_scenario(rewritten) == parse_scenario(PRESETS[name])
