import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from absentdriver import Stationary, expected_payoff, make_drive_problem, parse_scenario
from absentdriver.cli import (
    COMMANDS,
    _fraction_hint,
    build_parser,
    emit_csv,
    fmt_num,
    fmt_poly,
    fmt_value,
    main,
    run_command,
)
from absentdriver.scenario import MAX_TRIALS, PRESETS
from oracles import residual_problem

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))


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

    def test_fmt_num_refuses_non_finite(self):
        for x in (float("inf"), -float("inf"), float("nan")):
            with pytest.raises(ValueError, match="result is not finite"):
                fmt_num(x)

    def test_fmt_poly(self):
        assert fmt_poly((0.0, 4.0, -3.0)) == "4*beta - 3*beta^2"
        assert fmt_poly((5.0, -1.0, 0.0)) == "5 - beta"
        assert fmt_poly((2.5, 1.5, -1.5)) == "2.5 + 1.5*beta - 1.5*beta^2"
        assert fmt_poly((0.0,)) == "0"
        assert fmt_poly((-0.0,)) == "0"
        assert fmt_poly((0.0, 0.0)) == "0"


def _hint_inputs(kind, rng, n):
    """n seeded floats of one kind for the fraction-hint comparison."""
    if kind == "random":
        return rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-20, 21, n)
    if kind == "bit_patterns":  # every sign, exponent and mantissa, subnormals too
        x = rng.integers(0, 2**64, 2 * n, dtype=np.uint64).view(np.float64)
        return x[np.isfinite(x)][:n]
    if kind == "near_ratios":  # p/q with q <= 64, moved by up to 1e-12 or a few ulps
        q = rng.integers(1, 65, n)
        x = rng.integers(-100 * q, 100 * q + 1) / q
        half = n // 2
        x[:half] += rng.uniform(-1e-12, 1e-12, half)
        return np.concatenate([x[:half], x[half:] + rng.integers(-4, 5, n - half) * np.spacing(x[half:])])
    if kind == "dyadic":  # j / 2^e: exact midpoints between candidates, so ties
        return rng.integers(-4096, 4097, n) / 2.0 ** rng.integers(6, 14, n)
    if kind == "huge":
        return rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(1, 2, n), rng.integers(53, 1024, n))
    if kind == "subnormal":
        return rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(0, 4, n), -1024)
    assert kind == "integers"
    edge = [0.0, -0.0, 1.0, -1.0, 2.0**53, 2.0**53 + 2, -(2.0**63), 1e300]
    return np.concatenate([edge, rng.integers(-(10**6), 10**6 + 1, n).astype(float)])


@pytest.mark.parametrize(
    "kind, n",
    [("random", 250_000), ("bit_patterns", 100_000), ("near_ratios", 350_000),
     ("dyadic", 100_000), ("huge", 100_000), ("subnormal", 50_000), ("integers", 50_000)],
)
def test_fraction_hint_matches_limit_denominator(kind, n):
    """The integer hint is Fraction(x).limit_denominator(64), value for value."""
    values = _hint_inputs(kind, np.random.default_rng(2024), n).tolist()
    assert len(values) >= n
    mismatches = []
    for x in values:
        f = Fraction(x).limit_denominator(64)
        if _fraction_hint(x) != (f.numerator, f.denominator):
            mismatches.append(x)
    assert mismatches == []


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

    def test_csv_write_failure_leaves_stdout_empty(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "eval", "--preset", "example1", "--csv", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("runtime error: cannot write")

    def test_empty_csv_path_is_a_write_failure(self, capsys):
        # an empty path is a path that cannot be opened, as --scenario "" is one that cannot be read
        code, out, err = run_cli(capsys, "eval", "--preset", "example1", "--csv", "")
        assert code == 3
        assert out == ""
        assert err.startswith("runtime error: cannot write : ")

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

    def test_normalize_field(self, capsys, scenario_file):
        bell = {
            "name": "bell",
            "kind": "quantum",
            "terms": [{"bits": "01", "re": 1, "im": 0}, {"bits": "10", "re": 1, "im": 0}],
        }
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
            "strategies": [bell],
        }
        path = scenario_file(doc)
        code, _, err = run_cli(capsys, "eval", "--scenario", path)
        assert code == 2 and "not normalized" in err
        # the document is the only place that asks for rescaling
        code, out, err = run_cli(capsys, "eval", "--scenario", path, "--normalize-states")
        assert (code, out) == (1, "") and err.startswith("usage error: unrecognized arguments")
        bell["normalize"] = True
        code, out, _ = run_cli(capsys, "eval", "--scenario", scenario_file(doc))
        assert code == 0 and "[0.5, 0.5, 0]" in out

    def test_per_step_bytes_pinned(self, capsys, scenario_file):
        # the per_step([...]) label and both list columns, byte for byte
        doc = {
            "problem": {"kind": "drive", "exit_payoffs": [0, 4, -1.5], "terminal_payoff": 1},
            "strategies": [{"name": "steps", "kind": "per_step", "exit_probs": [0.25, 0.5, 1e-13]},
                           {"name": "sure", "kind": "per_step", "exit_probs": [0, 1, 0.3]}],
        }
        code, out, err = run_cli(capsys, "eval", "--scenario", scenario_file(doc))
        assert (code, err) == (0, "")
        assert out == (
            "problem: drive with 3 exits [0, 4, -1.5], terminal payoff 1\n"
            "\n"
            "strategy  kind                          expected payoff  destination distribution\n"
            "--------  ----------------------------  ---------------  ------------------------------\n"
            "steps     per_step([0.25, 0.5, 1e-13])  1.875 (15/8)     [0.25, 0.375, 3.75e-14, 0.375]\n"
            "sure      per_step([0, 1, 0.3])         4                [0, 1, 0, 0]\n"
        )

    @pytest.mark.parametrize("m, alpha", [(20_000, 1e-7), (100_000, 1e-6)])
    def test_long_drive(self, capsys, scenario_file, m, alpha):
        # its distribution sums to 1 within m rounding errors, not within a fixed 1e-12
        doc = _drive_doc([0] * m + [0])
        doc["strategies"] = [{"name": "s", "kind": "stationary", "alpha": alpha},
                             {"name": "p", "kind": "per_step", "exit_probs": [alpha] * m}]
        code, out, err = run_cli(capsys, "eval", "--scenario", scenario_file(doc))
        assert (code, err) == (0, "")
        assert [row.split()[0] for row in out.splitlines()[4:]] == ["s", "p"]

    def test_normalize_at_extreme_amplitudes(self, capsys, scenario_file):
        # the raw norm overflows to inf (exit 2, "state norm is 0.0", after a
        # numpy warning) or underflows to 0 (exit 2, "zero state cannot be rescaled")
        outputs = []
        for amplitude in (1, 1e200, 1e-200):
            terms = [{"bits": bits, "re": amplitude, "im": 0} for bits in ("01", "10")]
            path = scenario_file(_plan_doc(terms))
            code, out, err = run_cli(capsys, "eval", "--scenario", path)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[1:] == outputs[:1] * 2


def _drive_doc(payoffs):
    return {
        "problem": {"kind": "drive", "exit_payoffs": payoffs[:-1], "terminal_payoff": payoffs[-1]},
        "strategies": [{"name": "half", "kind": "stationary", "alpha": 0.5}],
    }


def _selection_doc(payoffs):
    return {
        "problem": {"kind": "selection", "destination_payoffs": payoffs},
        "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.5}],
    }


class TestOptimizeCommand:
    def test_example2(self, capsys, tmp_path):
        csv_path = tmp_path / "optimize.csv"
        code, out, _ = run_cli(capsys, "optimize", "--preset", "example2", "--csv", str(csv_path))
        assert code == 0
        assert "stationary payoff polynomial (beta = 1 - alpha): 4*beta - 3*beta^2\n" in out
        assert "beta coefficients: [0, 4, -3, 0]\n" in out
        assert "alpha* = 0.333333333333 (1/3)" in out
        assert "payoff = 1.33333333333 (4/3)" in out
        assert "closed_form" in out
        assert csv_path.read_text() == (
            "alpha_star,payoff_star,method,b0,b1,b2,b3\n"
            "0.333333333333,1.33333333333,closed_form,0,4,-3,0\n"
        )

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

    @pytest.mark.parametrize("m", [1100, 20000])
    def test_past_alpha_binomial_float_range(self, capsys, scenario_file, m):
        # the alpha binomials C(m, k) pass the float range from about m = 1030;
        # the beta coefficients are payoff differences at every size
        payoffs = np.random.default_rng(m).uniform(0.0, 10.0, size=m + 1).round(3).tolist()
        code, out, err = run_cli(capsys, "optimize", "--scenario", scenario_file(_drive_doc(payoffs)))
        assert (code, err) == (0, "")
        match = re.search(r"optimum: alpha\* = ([^\s,]+).*, payoff = ([^\s,]+)", out)
        alpha, payoff = float(match.group(1)), float(match.group(2))
        problem = make_drive_problem(payoffs[:-1], payoffs[-1])
        at_alpha = expected_payoff(problem, Stationary(alpha))
        assert payoff == pytest.approx(at_alpha, rel=1e-9)
        grid = [expected_payoff(problem, Stationary(a)) for a in np.linspace(0.0, 1.0, 201)]
        assert payoff >= max(grid) - 1e-9

    def test_maximum_inside_one_scan_segment(self, capsys, scenario_file):
        # exit 1100 of 3300 pays 3300: the peak and the minimum after it lie in
        # one of 1001 equal segments of beta, and a sign-change scan printed
        # alpha* = 0, payoff = 1.05 (21/20)
        payoffs = [0.0] * 3300 + [1.05]
        payoffs[1099] = 3300.0
        code, out, err = run_cli(capsys, "optimize", "--scenario", scenario_file(_drive_doc(payoffs)))
        assert (code, err) == (0, "")
        match = re.search(r"optimum: alpha\* = ([^\s,]+), payoff = ([^\s,]+), method = numeric", out)
        assert match.group(2) == "1.17419454118"

        def grid_argmax(a):
            f = 3300.0 * a * (1.0 - a) ** 1099 + 1.05 * (1.0 - a) ** 3300
            return a[np.argmax(f)]

        coarse = grid_argmax(np.linspace(0.0, 1.0, 100_001))
        fine = grid_argmax(np.linspace(coarse - 1e-5, coarse + 1e-5, 200_001))
        assert abs(float(match.group(1)) - fine) <= 1e-9

    @pytest.mark.parametrize(
        "payoffs, optimum",
        [
            # unscaled, Horner's rule gives payoff(0) = -inf, beside the true -1e308
            ([1e308, 0, -1e308], "alpha* = 1, payoff = 1e+308, method = closed_form"),
            # and +inf here, beside the true maximum 1e308
            ([0, -1e308, 0, 1e308], "alpha* = 0, payoff = 1e+308, method = closed_form"),
            # and -inf for every alpha < 0.353, which hid the maximum at alpha = 0
            ([-1.7e308] * 4 + [5e306, 1e308, -7e307, -8.5e307],
             "alpha* = 0, payoff = -8.5e+307, method = numeric"),
        ],
        ids=["minimum", "maximum", "hidden-maximum"],
    )
    def test_horner_steps_past_float_range(self, capsys, scenario_file, payoffs, optimum):
        code, out, err = run_cli(capsys, "optimize", "--scenario", scenario_file(_drive_doc(payoffs)))
        assert (code, err) == (0, "")
        assert f"optimum: {optimum}\n" in out

    def test_non_finite_coefficient_is_runtime_error(self, capsys, scenario_file):
        # -1e308 - 1e308: a printed beta coefficient past the float range,
        # though the optimum itself is finite
        path = scenario_file(_drive_doc([1e308, -1e308, 1e308]))
        code, out, err = run_cli(capsys, "optimize", "--scenario", path)
        assert (code, out, err) == (3, "", "runtime error: result is not finite\n")

    def test_cancelling_coefficients_keep_the_small_payoffs(self, capsys, scenario_file):
        # beta coefficients -1e16 and 1 - (-1e16) = 1e16 cancel; at alpha = 0
        # the driver takes the terminal, which pays 2
        path = scenario_file(_drive_doc([-1e16, 1, 0, 0, 2]))
        code, out, err = run_cli(capsys, "optimize", "--scenario", path)
        assert (code, err) == (0, "")
        assert "optimum: alpha* = 0, payoff = 2, method = numeric\n" in out


class TestSelectCommand:
    def test_selection_example_report(self, capsys, tmp_path):
        csv_path = tmp_path / "select.csv"
        code, out, _ = run_cli(
            capsys, "select", "--preset", "selection-example", "--csv", str(csv_path)
        )
        assert code == 0
        assert "alpha* = 0.5 (1/2)" in out
        assert "2.875 (23/8)" in out
        assert "counting average total: 3" in out
        assert "0.125 (1/8)" in out
        assert "average stationary polynomial (beta = 1 - alpha): 2.5 + 1.5*beta - 1.5*beta^2" in out
        # per first choice at alpha* = 1/2: 1 + 3a, 5 - a, 2 + 2a - 3a^2 twice
        rows = out.split("\n\n")[1].splitlines()[2:]
        assert [row.split()[2] for row in rows] == ["2.5", "4.5", "2.25", "2.25"]
        assert csv_path.read_text().splitlines() == [
            "first_choice,first_payoff,counting_second_round,counting_total,stationary_total",
            "1,0,2,2,2.5",
            "2,4,0.666666666667,4.66666666667,4.5",
            "3,1,1.66666666667,2.66666666667,2.25",
            "4,1,1.66666666667,2.66666666667,2.25",
        ]

    def test_large_selection_output_is_linear(self, capsys, scenario_file):
        # one value per first choice: a polynomial per row made this 30 MB
        n = 1000
        payoffs = np.random.default_rng(n).uniform(0.0, 10.0, size=n).round(3).tolist()
        code, out, err = run_cli(capsys, "select", "--scenario", scenario_file(_selection_doc(payoffs)))
        assert (code, err) == (0, "")
        assert len(out.encode()) < 200_000

    def test_non_finite_total_is_runtime_error(self, capsys, scenario_file):
        # first pick 1e308 plus a second round near 1e308 passes the float range
        path = scenario_file(_selection_doc([1e308, -1e308, 1e308]))
        code, out, err = run_cli(capsys, "select", "--scenario", path)
        assert (code, out, err) == (3, "", "runtime error: result is not finite\n")

    def test_cancelling_payoffs_are_summed_exactly(self, capsys, scenario_file):
        # a float sum left to right loses the 1 between 1e16 and -1e16
        path = scenario_file(_selection_doc([1e16, 1, -1e16]))
        code, out, err = run_cli(capsys, "select", "--scenario", path)
        assert (code, err) == (0, "")
        rows = out.split("\n\n")[1].splitlines()[2:]
        assert rows[1].split()[3:] == ["1", "+", "0", "1"]
        assert "counting average total: 0.666666666667 (2/3)\n" in out

    def test_counting_round_past_float_range_in_the_sum(self, capsys, scenario_file):
        # the payoff sum minus 1.7e308 is -inf unscaled, though the mean of
        # row 3's other payoffs, -3.6e307, is finite
        payoffs = [-7e307, -7e307, 1.7e308, 1e308, -7e307, -7e307]
        code, out, err = run_cli(capsys, "select", "--scenario", scenario_file(_selection_doc(payoffs)))
        assert (code, err) == (0, "")
        rows = out.split("\n\n")[1].splitlines()[2:]
        seconds = [float(row.split()[5]) for row in rows]
        assert seconds[2] == -3.6e307
        for c, second in enumerate(seconds):  # the others' mean, summed in eighths
            others = payoffs[:c] + payoffs[c + 1:]
            assert second == pytest.approx(sum(v / 8 for v in others) / 5 * 8, rel=1e-11)

    def test_payoff_mean_past_float_range_in_the_sum(self, capsys, scenario_file):
        # the payoffs sum to 2.4e308, but every total and mean printed is finite
        payoffs = [8e307, 8e307, 8e307, 0.0]
        code, out, err = run_cli(capsys, "select", "--scenario", scenario_file(_selection_doc(payoffs)))
        assert (code, err) == (0, "")
        alpha = float(re.search(r"alpha\* = ([^\s,]+)", out).group(1))
        drive = make_drive_problem(payoffs[:-1], payoffs[-1])
        rows = out.split("\n\n")[1].splitlines()[2:]
        for c, row in enumerate(rows, start=1):
            second = expected_payoff(residual_problem(drive, c), Stationary(alpha))
            assert float(row.split()[2]) == pytest.approx(payoffs[c - 1] + second, rel=1e-12)
        assert "stationary optimum: alpha* = 1, payoff = 1.4e+308\n" in out
        assert "counting average total: 1.2e+308\n" in out

    def test_maximum_behind_an_overflowing_horner_step(self, capsys, scenario_file):
        # unscaled, the averaged polynomial reached -inf on the way to the
        # true maximum, and alpha* = 1 (payoff -6.43e307) was printed instead
        payoffs = [-6.2e307, -6.2e307, 1.31e308, 1.31e308, -7.6e307, -7.6e307]
        code, out, err = run_cli(capsys, "select", "--scenario", scenario_file(_selection_doc(payoffs)))
        assert (code, err) == (0, "")
        match = re.search(r"stationary optimum: alpha\* = ([^\s,]+), payoff = ([^\s,]+)", out)
        alpha, payoff = float(match.group(1)), float(match.group(2))
        drive = make_drive_problem(payoffs[:-1], payoffs[-1])

        def direct(a):
            # the mean of the row totals, summed in shares: their plain sum overflows
            n = len(payoffs)
            return sum(
                (payoffs[c - 1] + expected_payoff(residual_problem(drive, c), Stationary(a))) / n
                for c in range(1, n + 1)
            )

        assert payoff == pytest.approx(direct(alpha), rel=1e-9)
        assert payoff >= max(direct(a) for a in np.linspace(0.0, 1.0, 201))

    def test_no_residual_drives(self, capsys, scenario_file, monkeypatch):
        # the averaged polynomial, the per-choice totals, the counting round
        # and the optimum are all closed forms over the payoff list
        import absentdriver.cli as cli
        import absentdriver.selection as selection

        calls = {"optimize_two_round": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

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
        assert calls == {"optimize_two_round": 1}


class TestSimulateCommand:
    def test_reproducible_output(self, capsys):
        args = ("simulate", "--preset", "example1", "--trials", "20000", "--seed", "11")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "seed: 11" in out_a

    def test_csv_writes_the_seed_exactly(self, capsys, tmp_path):
        # a 12-significant-digit seed column read 1.23456789012e+16
        csv_path = tmp_path / "simulate.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "example1", "--trials", "10",
            "--seed", "12345678901234567", "--csv", str(csv_path),
        )
        assert (code, err) == (0, "")
        assert "seed: 12345678901234567" in out
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        assert rows[0].split(",")[1:3] == ["trials", "seed"]
        assert {tuple(row.split(",")[1:3]) for row in rows[1:]} == {("10", "12345678901234567")}

    @pytest.mark.parametrize("offset", [1.0, 1e8, 1e12, 1e15])
    def test_std_error_holds_at_large_payoff_offsets(self, capsys, scenario_file, offset):
        # the same counts over payoffs B, B + 1, B: a one-pass variance printed
        # 0 at 1e8 and 1e15, and 11.8632891347 at 1e12
        doc = {"problem": {"kind": "drive", "exit_payoffs": [offset, offset + 1.0],
                           "terminal_payoff": offset},
               "strategies": [{"name": "c", "kind": "counting"}]}
        code, out, err = run_cli(capsys, "simulate", "--scenario", scenario_file(doc),
                                 "--trials", "1000000", "--seed", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split()[3] == "0.000471214790551"

    @pytest.mark.parametrize(
        "exits, strategy, trials",
        [
            ([1e308, 1e308], {"kind": "stationary", "alpha": 0.5}, 1000),
            ([1e308, -1e308], {"kind": "stationary", "alpha": 0.5}, 1000),
            # destinations that are never reached
            ([1e200, 1e200], {"kind": "per_step", "exit_probs": [1, 0.5]}, 1000),
            # unscaled, the sum of squares passes the float range at 1e5 trials
            ([1e154, -3e153], {"kind": "stationary", "alpha": 0.4}, 100_000),
        ],
        ids=["overflow", "mixed-signs", "unreached-destination", "squares"],
    )
    def test_payoffs_past_float_range_in_the_sums(
        self, capsys, scenario_file, tmp_path, exits, strategy, trials
    ):
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": exits, "terminal_payoff": exits[0]},
                "strategies": [{"name": "s", **strategy}],
                "options": {"trials": trials},
            }
        )
        rows = {}
        for command in ("eval", "simulate"):
            csv_path = tmp_path / f"{command}.csv"
            code, _, err = run_cli(capsys, command, "--scenario", path, "--csv", str(csv_path))
            assert (code, err) == (0, "")
            rows[command] = csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")
        exact = float(rows["eval"][1])
        mean, std_error = float(rows["simulate"][3]), float(rows["simulate"][4])
        assert abs(mean - exact) <= 4.0 * std_error + 1e-12 * abs(exact)

    def test_std_error_of_the_largest_float(self, capsys, scenario_file):
        # one car at each of +max and -max: the standard error is the largest float
        top = sys.float_info.max
        path = scenario_file(
            {
                "problem": {"kind": "drive", "exit_payoffs": [top], "terminal_payoff": -top},
                "strategies": [{"name": "s", "kind": "per_step", "exit_probs": [0.5]}],
            }
        )
        code, out, err = run_cli(capsys, "simulate", "--scenario", path, "--trials", "2", "--seed", "0")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split() == ["s", "2", "0", "1.79769313486e+308", "[0.5,", "0.5]"]


def _plan_doc(terms):
    m = len(terms[0]["bits"])
    return {
        "problem": {"kind": "drive", "exit_payoffs": list(range(m)), "terminal_payoff": 0.5},
        "strategies": [{"name": "plan", "kind": "quantum", "normalize": True, "terms": terms}],
        "options": {"trials": 100000, "seed": 7},
    }


def _ghz_terms(m):
    return [{"bits": "0" * m, "re": 1, "im": 0}, {"bits": "1" * m, "re": 0, "im": 1}]


class TestSparseQuantumPlans:
    def test_ket_order_does_not_change_output(self, capsys, scenario_file):
        # a counting-like plan: one ket per destination, distinct amplitudes
        terms = [
            {"bits": "1" * i + "0" + "1" * (19 - i), "re": 1.0 + i / 7, "im": (-1) ** i / 3}
            for i in range(20)
        ] + [{"bits": "1" * 20, "re": 0.5, "im": 0}]
        for command in ("eval", "simulate"):
            outputs = [
                run_cli(capsys, command, "--scenario", scenario_file(_plan_doc(listed)))
                for listed in (terms, terms[::-1])
            ]
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0

    @pytest.mark.parametrize("m", [20, 1024])
    def test_ghz_allocates_no_dense_vector(self, m):
        # the dense vector alone would take 2**m complex amplitudes, 16 MB at 20 qubits
        text = json.dumps(_plan_doc(_ghz_terms(m)))
        tracemalloc.start()
        try:
            scenario = parse_scenario(text)
            for command in ("eval", "simulate"):
                run_command(command, scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("m", [64, 256, 1024])
    @pytest.mark.parametrize("plan", ["ghz", "w"])
    def test_plans_past_float_precision(self, capsys, scenario_file, tmp_path, plan, m):
        # Past 53 qubits a ket's basis index has no exact float; eval reads
        # destinations off the strings, and simulate agrees with it.
        w = [{"bits": "0" * i + "1" + "0" * (m - 1 - i), "re": m - i, "im": 0} for i in range(m)]
        path = scenario_file(_plan_doc(_ghz_terms(m) if plan == "ghz" else w))
        rows = {}
        for command in ("eval", "simulate"):
            csv_path = tmp_path / f"{command}.csv"
            code, _, err = run_cli(capsys, command, "--scenario", path, "--csv", str(csv_path))
            assert (code, err) == (0, "")
            rows[command] = csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")
        exact = float(rows["eval"][1])
        if plan == "ghz":  # exit at the first intersection or reach the terminal
            assert rows["eval"][2:] == ["0.5"] + ["0"] * (m - 1) + ["0.5"]
            assert exact == 0.25
        else:  # every W ket exits first but 10...0 (weight m**2), which exits second
            assert float(rows["eval"][3]) == pytest.approx(m**2 / sum(k * k for k in range(1, m + 1)))
        mean, std_error = float(rows["simulate"][3]), float(rows["simulate"][4])
        assert abs(mean - exact) <= 4.0 * std_error


class TestCurveCommand:
    def test_half_step_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--preset", "example1", "--grid-step", "0.5"
        )
        assert code == 0
        assert out == "alpha,payoff\n0,1\n0.5,1.25\n1,0\n"

    def test_horner_step_past_float_range(self, capsys, scenario_file):
        # payoff(0) is the terminal -1e308; unscaled, Horner's rule reached -inf
        path = scenario_file(_drive_doc([1e308, 0, -1e308]))
        code, out, err = run_cli(capsys, "curve", "--scenario", path, "--grid-step", "0.5")
        assert (code, out, err) == (0, "alpha,payoff\n0,-1e+308\n0.5,2.5e+307\n1,1e+308\n", "")

    @pytest.mark.parametrize(
        "payoffs, values",
        [
            ([1e308, -1e308, 1e308], "1e+308 6.25e+307 5e+307 6.25e+307 1e+308"),
            ([1e308, 1e308, -1e308], "-1e+308 -1.25e+307 5e+307 8.75e+307 1e+308"),
        ],
    )
    def test_payoff_differences_past_float_range(self, capsys, scenario_file, payoffs, values):
        # a beta coefficient of 2e308 or -2e308, but every printed payoff is finite
        path = scenario_file(_drive_doc(payoffs))
        code, out, err = run_cli(capsys, "curve", "--scenario", path, "--grid-step", "0.25")
        assert (code, err) == (0, "")
        assert [row.split(",")[1] for row in out.split()[1:]] == values.split()

    def test_cancelling_coefficients_keep_the_small_payoffs(self, capsys, scenario_file):
        # the beta coefficient 1 - 1e16 rounds to -1e16, which cancelled the
        # terminal payoff 1 at alpha = 0
        path = scenario_file(_drive_doc([1e16, 1]))
        code, out, err = run_cli(capsys, "curve", "--scenario", path, "--grid-step", "0.5")
        assert (code, out, err) == (0, "alpha,payoff\n0,1\n0.5,5e+15\n1,1e+16\n", "")

    def test_csv_file_matches_stdout(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--preset", "example1", "--grid-step", "0.25",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert csv_path.read_text() == out

    def test_signed_zero_payoffs_print_zero(self, capsys, scenario_file):
        path = scenario_file(_drive_doc([-0.0, -0.0, -0.0]))
        code, out, err = run_cli(capsys, "curve", "--scenario", path, "--grid-step", "0.5")
        assert (code, out, err) == (0, "alpha,payoff\n0,0\n0.5,0\n1,0\n", "")
        code, out, err = run_cli(capsys, "optimize", "--scenario", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "optimum: alpha* = 0, payoff = 0, method = closed_form"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--preset", "example1"),
        ("optimize", "--preset", "example2"),
        ("select", "--preset", "selection-example"),
        ("simulate", "--preset", "example1", "--trials", "100"),
        ("curve", "--preset", "example1", "--grid-step", "0.25"),
    ],
    ids=lambda argv: argv[0],
)
def test_csv_formatted_only_once_and_only_when_asked(capsys, tmp_path, monkeypatch, argv):
    # curve prints its CSV, so its --csv file takes the printed bytes; no
    # other command formats CSV without --csv
    import absentdriver.cli as cli

    calls = []
    monkeypatch.setattr(cli, "emit_csv", lambda rows: calls.append(rows) or emit_csv(rows))
    code, out, _ = run_cli(capsys, *argv)
    assert (code, len(calls)) == (0, argv[0] == "curve")
    csv_path = tmp_path / "out.csv"
    calls.clear()
    code, with_csv, _ = run_cli(capsys, *argv, "--csv", str(csv_path))
    assert (code, with_csv, len(calls)) == (0, out, 1)
    if argv[0] == "curve":
        assert csv_path.read_bytes() == out.encode()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "eval")[0] == 1  # neither --scenario nor --preset
        assert run_cli(capsys, "eval", "--preset", "nope")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_only_the_flags_a_command_reads(self, capsys, command):
        own = {"simulate": {"--trials", "--seed"}, "curve": {"--grid-step"}}.get(command, set())
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", "--scenario", "--preset", "--csv"} | own

    @pytest.mark.parametrize(
        "command, own",
        [("eval", ""), ("optimize", ""), ("select", ""),
         ("simulate", " [--trials N] [--seed S]"), ("curve", " [--grid-step H]")],
    )
    def test_usage_line_in_flag_order(self, capsys, monkeypatch, command, own):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = run_cli(capsys, command, "--help")
        presets = ",".join(sorted(PRESETS))
        assert code == 0
        assert out.splitlines()[0] == (
            f"usage: absentdriver {command} [-h] (--scenario PATH | --preset {{{presets}}})"
            f"{own} [--csv PATH]"
        )

    def test_parsers_share_no_values(self):
        first, second = build_parser(), build_parser()
        a = first.parse_args(["simulate", "--preset", "example1", "--trials", "5", "--csv", "a.csv"])
        b = second.parse_args(["simulate", "--scenario", "b.json", "--seed", "7"])
        c = first.parse_args(["curve", "--preset", "example2", "--grid-step", "0.5"])
        d = first.parse_args(["simulate", "--preset", "example2"])
        assert vars(a) == {"command": "simulate", "scenario": None, "preset": "example1",
                           "trials": 5, "seed": None, "csv": "a.csv"}
        assert vars(b) == {"command": "simulate", "scenario": "b.json", "preset": None,
                           "trials": None, "seed": 7, "csv": None}
        assert vars(c) == {"command": "curve", "scenario": None, "preset": "example2",
                           "grid_step": 0.5, "csv": None}
        assert vars(d) == {"command": "simulate", "scenario": None, "preset": "example2",
                           "trials": None, "seed": None, "csv": None}

    def test_deep_nesting_is_a_scenario_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"problem": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--scenario", str(path))
        assert (code, out, err) == (2, "", "scenario error: invalid JSON: nested too deeply\n")

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

    def test_run_command_rejects_unknown_command(self):
        with pytest.raises(ValueError, match=r"^unknown command 'bogus'$"):
            run_command("bogus", parse_scenario(PRESETS["example1"]))

    def test_command_problem_mismatch(self, capsys):
        assert run_cli(capsys, "select", "--preset", "example1")[0] == 2
        assert run_cli(capsys, "eval", "--preset", "selection-example")[0] == 2
        assert run_cli(capsys, "curve", "--preset", "selection-example")[0] == 2

    def test_runtime_error_on_unwritable_csv(self, capsys, tmp_path):
        bad = tmp_path / "no-such-dir" / "out.csv"
        code, _, err = run_cli(capsys, "eval", "--preset", "example1", "--csv", str(bad))
        assert code == 3 and "runtime error" in err

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command", ["eval", "curve"])
    def test_closed_stdout_is_a_runtime_error(self, capsys, monkeypatch, command, failing):
        # a reader that quit early (`| head -1`) closes the pipe under a write or the final flush
        def broken(*_):
            raise BrokenPipeError(32, "Broken pipe")

        closed = io.StringIO()
        monkeypatch.setattr(closed, failing, broken)
        monkeypatch.setattr(sys, "stdout", closed)
        code = main([command, "--preset", "example1"])
        assert sys.stdout.name == os.devnull  # so the flush at exit does not fail again
        sys.stdout.close()
        message = "runtime error: cannot write stdout: [Errno 32] Broken pipe\n"
        assert (code, capsys.readouterr().err) == (3, message)

    def test_bad_trials_override(self, capsys):
        # rejected before a single trial runs
        for trials in ("0", "-5", str(MAX_TRIALS + 1), "1" + "0" * 30):
            code, out, err = run_cli(capsys, "simulate", "--preset", "example1", "--trials", trials)
            assert (code, out) == (2, "")
            assert err == "scenario error: --trials must be an integer in [1, 1000000000]\n"

    def test_largest_trials_override_accepted(self, capsys):
        # only simulate reads --trials and --seed, and only curve --grid-step
        for command, *flag in (("eval", "--trials", "5"), ("curve", "--seed", "1"),
                               ("simulate", "--grid-step", "0.5")):
            code, out, err = run_cli(capsys, command, "--preset", "example1", *flag)
            assert (code, out) == (1, "")
            assert err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"
        # a simulate run at the cap is one chain of binomial draws, quick to run
        code, out, err = run_cli(capsys, "simulate", "--preset", "example1", "--trials", str(MAX_TRIALS))
        assert (code, err) == (0, "") and f"  {MAX_TRIALS}  " in out

    def test_bad_seed_override(self, capsys):
        for seed in ("-1", str(2**64)):
            code, out, err = run_cli(capsys, "simulate", "--preset", "example1", "--seed", seed)
            assert (code, out) == (2, "")
            assert err == "scenario error: --seed must be an unsigned 64-bit integer\n"

    def test_non_utf8_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(
            b'{"problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1}, '
            b'"strategies": [{"name": "caf\xff", "kind": "counting"}]}'
        )
        code, out, err = run_cli(capsys, "eval", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"scenario error: cannot read {path}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

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
        assert err == "scenario error: --grid-step must be a number in [1e-06, 1]\n"


class TestDemoScenarios:
    """Every shipped scenario file runs through every drive command."""

    def test_scenarios_found(self):
        assert SCENARIOS

    @pytest.mark.parametrize("command", ["eval", "optimize", "simulate", "curve"])
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_command_succeeds(self, capsys, path, command):
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert (code, err) == (0, "")
        assert out


# sha256 of json.dumps([exit code, stdout, stderr]) for every preset run.  The
# bytes must not change with a refactor; no command runs numpy or BLAS, so no
# CPU kernel can reach them either.
PRESET_RUN_SHA256 = {
    ("example1", "eval"): "e5438f3ab9c39067c45294bd73a07b1748f09366784a3c12c978f719156d23e8",
    ("example1", "optimize"): "238ef29c2c4cf9ac511e36f06b5b0facb2908ba9c9afe03dfcebf8dd2e53897d",
    ("example1", "select"): "d710788f7d392715e582702ae587bb3488844929f89c2554edb08464c5825829",
    ("example1", "simulate"): "ab8db700af15df26926028cd392f25bb2f3273b1791406c807c7e5f291082ba6",
    ("example1", "curve"): "25054dea0ea762b8f7603da93355616c425a201e2ffbb8aee3318d38fe95f8f2",
    ("example2", "eval"): "4a2a96fae2ebdbffe5112d1da4a42aa420c708704564abf5fb9d5ea32d9cae64",
    ("example2", "optimize"): "3a539bbadbba8ef13bd4d4709d52ee49ab718107f37227331a3ed7cef95a4202",
    ("example2", "select"): "d710788f7d392715e582702ae587bb3488844929f89c2554edb08464c5825829",
    ("example2", "simulate"): "49c30727b8a6bc29ecd1d448a382f5ee990410495c04ef33e96e13bf68d3d2ef",
    ("example2", "curve"): "25054dea0ea762b8f7603da93355616c425a201e2ffbb8aee3318d38fe95f8f2",
    ("selection-example", "eval"): "5e3eb92f8d6c394ae9099e22d0ce740f7aa021adbb45292f879567adef8ed8ac",
    ("selection-example", "optimize"): "4ad68c8658466c326d33a09097a8848846eb8f82adc0d2b74cd567cd736252e6",
    ("selection-example", "select"): "d24326fec1fcd2f8a6dbb2a8e92428e431bb1f8e43dd92b2ae80b8fef09973e9",
    ("selection-example", "simulate"): "2d384b5f5017bbe9347e839b97994989dfc1afb0e113235b74213815db12692a",
    ("selection-example", "curve"): "907d9de0aab12a8b7dc5d4f931c4df63efd660cd999c4bab0ef92293d45f4782",
}


def test_every_preset_run_pinned():
    assert set(PRESET_RUN_SHA256) == {(p, c) for p in PRESETS for c in COMMANDS}


@pytest.mark.parametrize("preset,command", sorted(PRESET_RUN_SHA256))
def test_preset_run_bytes_pinned(capsys, preset, command):
    code, out, err = run_cli(capsys, command, "--preset", preset)
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert digest == PRESET_RUN_SHA256[preset, command]


# Under a BLAS dot both printed a payoff that followed the CPU's kernel: the
# tie drive's exact payoff, 6.7337402031249995..., sits on a 12-digit rounding
# tie, and the cancel document's products near +-3.3e15 cancel.
KERNEL_DOCS = {
    "tie": ({"problem": {"kind": "drive", "exit_payoffs": [5.322, 0.426, 8.552], "terminal_payoff": 7.273},
             "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.075}]},
            "6.73374020313 "),
    "cancel": ({"problem": {"kind": "drive", "exit_payoffs": [1e16, 1], "terminal_payoff": -1e16},
                "strategies": [{"name": "count", "kind": "counting"},
                               {"name": "plan", "kind": "quantum", "normalize": True,
                                "terms": [{"bits": b, "re": 1} for b in ("01", "10", "11")]}]},
               None),
}


@pytest.mark.parametrize("name", sorted(KERNEL_DOCS))
def test_eval_bytes_do_not_follow_blas_kernel(tmp_path, name):
    doc, payoff = KERNEL_DOCS[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for coretype in (None, "Prescott"):  # this CPU's default kernel, then a forced one
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        argv = [sys.executable, "-m", "absentdriver.cli", "eval", "--scenario", str(path)]
        outs.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert payoff is None or payoff in outs[0]


def test_cli_import_leaves_out_numpy_polynomial():
    # every CLI process pays for what it imports: numpy.polynomial adds
    # about 0.8 MB of resident memory, fractions and decimal about 0.2 MB,
    # and none of them is needed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, absentdriver.cli; print(sorted(m for m in sys.modules"
             " if m.startswith('numpy.polynomial') or m in ('fractions', 'decimal')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _drive_and_selection_runs(tmp_path):
    """argv lists of every command but simulate, on a drive document, presets and a selection."""
    doc = {"problem": {"kind": "drive", "exit_payoffs": [0, 4, 1], "terminal_payoff": 1},
           "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.25},
                          {"name": "c", "kind": "counting"},
                          {"name": "p", "kind": "per_step", "exit_probs": [0.5, 0.25, 1]}]}
    drive = tmp_path / "drive.json"
    drive.write_text(json.dumps(doc), encoding="utf-8")
    return [["optimize", "--scenario", str(drive)], ["eval", "--scenario", str(drive)],
            ["curve", "--scenario", str(drive), "--csv", str(tmp_path / "curve.csv")],
            ["select", "--preset", "selection-example", "--csv", str(tmp_path / "select.csv")],
            ["optimize", "--preset", "example2"],
            ["curve", "--preset", "example1", "--csv", str(tmp_path / "quantum-curve.csv")]]


def test_drive_and_selection_runs_leave_out_numpy(tmp_path):
    # numpy is most of a CLI process's import time, and no command needs it:
    # quantum plans are scored, and simulate's binomials drawn, on Python numbers
    runs = _drive_and_selection_runs(tmp_path)
    probe = (
        "import contextlib, io, sys\n"
        "import absentdriver\n"
        "from absentdriver.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n"
        "main(['eval', '--preset', 'example1'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['simulate', '--preset', 'example1', '--trials', '100', '--seed', '1'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stderr == "[0, 0, 0, 0, 0, 0] False\nFalse\nFalse\n"
    fresh = subprocess.run([sys.executable, "-m", "absentdriver.cli", "eval", "--preset", "example1"],
                           env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == fresh.stdout
    assert "quantum(2 qubits)" in proc.stdout


def test_package_and_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # together they were a quarter of `import absentdriver`; argparse, json and csv load
    # neither, so only the package could
    runs = [*_drive_and_selection_runs(tmp_path), ["eval", "--preset", "example1"],
            ["simulate", "--preset", "example1", "--trials", "100", "--seed", "1"]]
    probe = (
        "import sys\n"
        "startup = set(sys.modules)\n"
        "import contextlib, io\n"
        "import absentdriver\n"
        "from absentdriver.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules) - startup))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0, 0] []\n"
