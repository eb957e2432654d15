import json
import math
import re

import pytest

from absentdriver import (
    Counting,
    DriveProblem,
    PerStep,
    Quantum,
    Scenario,
    ScenarioError,
    SelectionProblem,
    Stationary,
    build_state,
    parse_scenario,
    preset_scenario,
    scenario_to_document,
)
from absentdriver.scenario import PRESETS, NamedStrategy, ScenarioOptions

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


class TestParseScenario:
    def test_full_document(self):
        scenario = parse_scenario(EXAMPLE1_DOC)
        assert isinstance(scenario.problem, DriveProblem)
        assert scenario.problem.exit_payoffs == (0.0, 4.0)
        assert len(scenario.strategies) == 3
        assert scenario.strategies[0].strategy == Stationary(1 / 3)
        assert isinstance(scenario.strategies[1].strategy, Counting)
        bell = scenario.strategies[2].strategy
        assert isinstance(bell, Quantum)
        assert bell.state.amplitudes[1] == pytest.approx(1 / math.sqrt(2))
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

    def test_unnormalized_state_without_flag(self):
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
        with pytest.raises(ScenarioError, match="not normalized"):
            parse_scenario(doc)
        scenario = parse_scenario(doc, normalize_states=True)
        assert isinstance(scenario.strategies[0].strategy, Quantum)

    def test_missing_field_path(self):
        doc = json.dumps(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [{"name": "s", "kind": "stationary"}],
            }
        )
        with pytest.raises(ScenarioError, match=r"strategies\[0\].*alpha"):
            parse_scenario(doc)

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
        ["1" + "0" * 400, "-" + "1" * 400, "9" * 5000, "-" + "9" * 5000, "1e400"],
        ids=["int400", "negative_int400", "int5000", "negative_int5000", "float1e400"],
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
        state = parse_scenario(doc).strategies[0].strategy.state
        assert list(state.amplitudes) == [0, 1]

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
        doc = json.dumps(
            {
                "problem": {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
                "strategies": [{"name": "s", "kind": "per_step", "exit_probs": [0.5]}],
            }
        )
        with pytest.raises(ScenarioError, match="strategy/problem mismatch"):
            parse_scenario(doc)

    def test_bad_options(self):
        base = {
            "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
            "strategies": [{"name": "s", "kind": "counting"}],
        }
        with pytest.raises(ScenarioError, match="no trials"):
            parse_scenario(json.dumps({**base, "options": {"trials": 0}}))
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


class TestRoundTrip:
    def test_parse_of_emitted_document_is_equal(self):
        original = parse_scenario(EXAMPLE1_DOC)
        assert parse_scenario(scenario_to_document(original)) == original

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip(self, name):
        scenario = preset_scenario(name)
        assert parse_scenario(scenario_to_document(scenario)) == scenario

    def test_twenty_qubit_w_state_round_trip(self):
        m = 20
        kets = [("0" * i + "1" + "0" * (m - i - 1), complex(i + 1, -i)) for i in range(m)]
        scenario = Scenario(
            DriveProblem(tuple(range(m)), 0.5),
            (NamedStrategy("w", Quantum(build_state(kets[::-1], normalize=True))),),
        )
        doc = scenario_to_document(scenario)
        assert [t["bits"] for t in json.loads(doc)["strategies"][0]["terms"]] == sorted(
            bits for bits, _ in kets
        )
        assert parse_scenario(doc) == scenario

    def test_per_step_round_trip(self):
        scenario = Scenario(
            DriveProblem((1.0, 2.0), 0.5),
            (NamedStrategy("steps", PerStep((0.25, 0.75))),),
            ScenarioOptions(trials=10, seed=3, grid_step=0.5),
        )
        assert parse_scenario(scenario_to_document(scenario)) == scenario


class TestPresets:
    def test_example1(self):
        scenario = preset_scenario("example1")
        assert scenario.problem.exit_payoffs == (0.0, 4.0)
        assert {s.name for s in scenario.strategies} == {"stationary", "counting", "bell"}

    def test_example2(self):
        scenario = preset_scenario("example2")
        assert scenario.problem.exit_payoffs == (0.0, 4.0, 1.0)

    def test_selection_example(self):
        scenario = preset_scenario("selection-example")
        assert isinstance(scenario.problem, SelectionProblem)
        assert scenario.problem.destination_payoffs == (0.0, 4.0, 1.0, 1.0)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset_scenario("example99")
