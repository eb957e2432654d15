import json
import re
import tracemalloc

import numpy as np
import pytest

from absentdriver import parse_scenario
from absentdriver.cli import emit_csv, fmt_num, fmt_poly, fmt_value, main, run_command


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


class TestFormatting:
    def test_fmt_num_trims(self):
        assert fmt_num(0.25) == "0.25"
        assert fmt_num(0.0) == "0"
        assert fmt_num(4 / 3) == "1.33333333333"

    def test_fmt_value_fraction_hint(self):
        assert fmt_value(4 / 3) == "1.33333333333 (4/3)"
        assert fmt_value(23 / 8) == "2.875 (23/8)"
        assert fmt_value(2.0) == "2"
        assert fmt_value(0.123456789) == "0.123456789"

    def test_fmt_poly(self):
        assert fmt_poly((1.0, 2.0, -3.0)) == "1 + 2*alpha - 3*alpha^2"
        assert fmt_poly((5.0, -1.0, 0.0)) == "5 - alpha"
        assert fmt_poly((0.0,)) == "0"


class TestEmitCsv:
    def test_header_and_row(self):
        assert emit_csv([("alpha", "payoff"), (0, 1)]) == "alpha,payoff\n0,1\n"

    def test_counting_distribution_row(self):
        out = emit_csv([("p1", "p2", "p3", "p4"), (0.25, 0.25, 0.25, 0.25)])
        assert out == "p1,p2,p3,p4\n0.25,0.25,0.25,0.25\n"

    def test_header_only(self):
        assert emit_csv([("a", "b")]) == "a,b\n"

    def test_quoting(self):
        assert emit_csv([("name",), ('say "hi", twice',)]) == 'name\n"say ""hi"", twice"\n'


class TestEvalCommand:
    def test_preset_example1_values(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--preset", "example1")
        assert code == 0 and err == ""
        assert "1.33333333333 (4/3)" in out
        assert "1.66666666667 (5/3)" in out
        assert "[0.5, 0.5, 0]" in out

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "eval.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--preset", "example1", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "strategy,expected_payoff,p1,p2,p3"
        assert "bell,2,0.5,0.5,0" in lines

    def test_scenario_file(self, capsys, scenario_file):
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [{"name": "count", "kind": "counting"}],
            }
        )
        code, out, _ = run_cli(capsys, "eval", "--scenario", path)
        assert code == 0
        assert "1.66666666667 (5/3)" in out

    def test_normalize_states_flag(self, capsys, scenario_file):
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
                "strategies": [
                    {
                        "name": "bell",
                        "kind": "quantum",
                        "terms": [
                            {"bits": "01", "re": 1, "im": 0},
                            {"bits": "10", "re": 1, "im": 0},
                        ],
                    }
                ],
            }
        )
        code, _, err = run_cli(capsys, "eval", "--scenario", path)
        assert code == 2 and "not normalized" in err
        code, out, _ = run_cli(capsys, "eval", "--scenario", path, "--normalize-states")
        assert code == 0 and "[0.5, 0.5, 0]" in out


class TestOptimizeCommand:
    def test_example2(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--preset", "example2")
        assert code == 0
        assert "alpha* = 0.333333333333 (1/3)" in out
        assert "payoff = 1.33333333333 (4/3)" in out
        assert "closed_form" in out

    def test_large_problem(self, capsys, scenario_file):
        payoffs = np.random.default_rng(1024).uniform(0.0, 10.0, size=1025).round(3).tolist()
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": payoffs[:-1], "terminal_payoff": payoffs[-1]},
            "strategies": [{"name": "half", "kind": "stationary", "alpha": 0.5}],
        }
        code, out, err = run_cli(capsys, "optimize", "--scenario", scenario_file(doc))
        assert (code, err) == (0, "")
        payoff = float(re.search(r"payoff = ([^\s,]+)", out).group(1))
        assert payoff <= max(payoffs)

    def test_alpha_coefficients_past_float_range_rejected(self, capsys, scenario_file):
        payoffs = np.random.default_rng(1100).uniform(0.0, 10.0, size=1101).round(3).tolist()
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": payoffs[:-1], "terminal_payoff": payoffs[-1]},
            "strategies": [{"name": "half", "kind": "stationary", "alpha": 0.5}],
        }
        code, out, err = run_cli(capsys, "optimize", "--scenario", scenario_file(doc))
        assert (code, out) == (3, "")
        assert err == "runtime error: polynomial coefficients must be finite\n"


class TestSelectCommand:
    def test_selection_example_report(self, capsys):
        code, out, _ = run_cli(capsys, "select", "--preset", "selection-example")
        assert code == 0
        assert "alpha* = 0.5 (1/2)" in out
        assert "2.875 (23/8)" in out
        assert "counting average total: 3" in out
        assert "0.125 (1/8)" in out
        assert "1 + 3*alpha" in out
        assert "5 - alpha" in out

    def test_one_residual_drive_per_first_choice(self, capsys, scenario_file, monkeypatch):
        # the averaged polynomial, the counting round and the optimum need no
        # residual drives; only the per-first-choice table builds them
        import absentdriver.cli as cli
        import absentdriver.selection as selection

        calls = {"residual_problem": 0, "optimize_two_round": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(selection, "residual_problem")
        for module in (cli, selection):
            counted(module, "optimize_two_round")
        n = 64
        payoffs = np.random.default_rng(n).uniform(0.0, 10.0, size=n).round(3).tolist()
        path = scenario_file(
            {
                "problem": {"kind": "selection", "destination_payoffs": payoffs},
                "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.5}],
            }
        )
        assert run_cli(capsys, "select", "--scenario", path)[0] == 0
        assert calls == {"residual_problem": n, "optimize_two_round": 1}


class TestSimulateCommand:
    def test_reproducible_output(self, capsys):
        args = ("simulate", "--preset", "example1", "--trials", "20000", "--seed", "11")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "seed: 11" in out_a


    @pytest.mark.parametrize(
        "exits, strategy, mean",
        [
            ([1e308, 1e308], {"kind": "stationary", "alpha": 0.5}, "inf"),
            # mixed signs: inf + -inf, or inf where the dot product uses fused multiply-add
            ([1e308, -1e308], {"kind": "stationary", "alpha": 0.5}, "(nan|inf)"),
            # 0 * inf for the destinations that are never reached
            ([1e200, 1e200], {"kind": "per_step", "exit_probs": [1, 0.5]}, r"1e\+200"),
        ],
        ids=["overflow", "mixed-signs", "unreached-destination"],
    )
    def test_overflowing_result_is_runtime_error(self, capsys, scenario_file, exits, strategy, mean):
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": exits, "terminal_payoff": exits[0]},
                "strategies": [{"name": "s", **strategy}],
                "options": {"trials": 1000},
            }
        )
        code, out, err = run_cli(capsys, "simulate", "--scenario", path)
        assert (code, out) == (3, "")
        assert re.fullmatch(f"runtime error: simulation result is not finite: mean {mean}, std error nan\n", err)


def _twenty_qubit_doc(terms):
    return {
        "problem": {"kind": "drive", "exit_payoffs": list(range(20)), "terminal_payoff": 0.5},
        "strategies": [{"name": "plan", "kind": "quantum", "normalize": True, "terms": terms}],
        "options": {"trials": 100000, "seed": 7},
    }


class TestSparseQuantumPlans:
    def test_ket_order_does_not_change_output(self, capsys, scenario_file):
        # a counting-like plan: one ket per destination, distinct amplitudes
        terms = [
            {"bits": "1" * i + "0" + "1" * (19 - i), "re": 1.0 + i / 7, "im": (-1) ** i / 3}
            for i in range(20)
        ] + [{"bits": "1" * 20, "re": 0.5, "im": 0}]
        for command in ("eval", "simulate"):
            outputs = [
                run_cli(capsys, command, "--scenario", scenario_file(_twenty_qubit_doc(listed)))
                for listed in (terms, terms[::-1])
            ]
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0

    def test_twenty_qubit_ghz_allocates_no_dense_vector(self):
        # the dense vector alone would take 2**20 complex amplitudes, 16 MB
        text = json.dumps(
            _twenty_qubit_doc(
                [{"bits": "0" * 20, "re": 1, "im": 0}, {"bits": "1" * 20, "re": 0, "im": 1}]
            )
        )
        tracemalloc.start()
        try:
            scenario = parse_scenario(text)
            for command in ("eval", "simulate"):
                run_command(command, scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCurveCommand:
    def test_half_step_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--preset", "example1", "--grid-step", "0.5"
        )
        assert code == 0
        assert out == "alpha,payoff\n0,1\n0.5,1.25\n1,0\n"

    def test_csv_file_matches_stdout(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--preset", "example1", "--grid-step", "0.25",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert csv_path.read_text() == out


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "eval")[0] == 1  # neither --scenario nor --preset
        assert run_cli(capsys, "eval", "--preset", "nope")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_validation_errors(self, capsys, scenario_file):
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": [], "terminal_payoff": 1},
                "strategies": [{"name": "s", "kind": "counting"}],
            }
        )
        code, out, err = run_cli(capsys, "eval", "--scenario", path)
        assert code == 2
        assert "degenerate problem" in err and out == ""

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--scenario", str(tmp_path / "missing.json"))
        assert code == 2 and "scenario error" in err

    def test_command_problem_mismatch(self, capsys):
        assert run_cli(capsys, "select", "--preset", "example1")[0] == 2
        assert run_cli(capsys, "eval", "--preset", "selection-example")[0] == 2
        assert run_cli(capsys, "curve", "--preset", "selection-example")[0] == 2

    def test_runtime_error_on_unwritable_csv(self, capsys, tmp_path):
        bad = tmp_path / "no-such-dir" / "out.csv"
        code, _, err = run_cli(capsys, "eval", "--preset", "example1", "--csv", str(bad))
        assert code == 3 and "runtime error" in err

    def test_bad_trials_override(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "example1", "--trials", "0")
        assert code == 2 and "no trials" in err

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "9" * 5000], ids=["int400", "int5000"])
    def test_integer_past_float_range(self, capsys, tmp_path, literal):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": '
            + literal
            + '}, "strategies": [{"name": "s", "kind": "counting"}]}',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "eval", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == "scenario error: problem.terminal_payoff: number is outside the float range\n"

    @pytest.mark.parametrize("step", ["0", "1e-300", "9e-7", "1.5", "nan"])
    def test_bad_grid_step_override(self, capsys, step):
        # curve prints ceil(1/step) + 1 rows: tiny steps are rejected, not run
        code, out, err = run_cli(capsys, "curve", "--preset", "example1", "--grid-step", step)
        assert (code, out) == (2, "")
        assert err == "scenario error: --grid-step must be in [1e-06, 1]\n"
