"""Command-line front end.

Each subcommand reads ``--scenario PATH`` or ``--preset NAME`` (a built-in
document, parsed like a file), writes ``--csv PATH`` if asked, and takes only
the option overrides it reads::

    eval      per-strategy destination distributions and expected payoffs
    optimize  best stationary exit probability for the problem
    select    two-round selection breakdown, optimum, counting comparison
    simulate  seeded Monte Carlo report per strategy       [--trials N] [--seed S]
    curve     CSV of (alpha, expected payoff) over a grid  [--grid-step H]

Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 runtime error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from itertools import count, takewhile

from .classical import beta_coefficients, destination_distribution, stationary_payoff
from .model import Counting, PerStep, SelectionProblem, Stationary
from .optimize import optimize_stationary
from .scenario import PRESETS, Scenario, ScenarioError, parse_scenario
from .selection import (
    counting_round_values,
    first_choice_totals,
    optimize_two_round,
    two_round_average_drive,
)
from .simulate import estimate_payoff


def fmt_num(x) -> str:
    """12 significant digits, no trailing noise (the CSV number format).

    Every printed number passes through here, so an overflowed result is
    refused rather than printed as ``inf`` or ``nan``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("result is not finite")
    return f"{x:.12g}"


def _fraction_hint(x: float) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(64)`` as (numerator, denominator).

    The same continued-fraction steps on ``x.as_integer_ratio()``, and the
    same choice between the last convergent and the semiconvergent (the
    convergent on a tie), compared exactly by integer cross-multiplication.
    """
    n, d = x.as_integer_ratio()
    if d <= 64:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while (q2 := q0 + (a := num // den) * q1) <= 64:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (64 - q0) // q1
    pb, qb = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * qb <= abs(pb * d - n * qb) * q1:
        return p1, q1
    return pb, qb


def fmt_value(x) -> str:
    """Decimal plus a fraction hint when the value is a simple rational."""
    x = float(x)
    decimal = fmt_num(x)
    p, q = _fraction_hint(x)
    if q > 1 and abs(x - p / q) <= 1e-12:
        return f"{decimal} ({p}/{q})"
    return decimal


def fmt_poly(coeffs) -> str:
    """Render c0 + c1*beta + c2*beta^2 + ... skipping zero terms."""
    parts = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        magnitude = fmt_num(abs(c))
        if power == 0:
            term = magnitude
        else:
            var = "beta" if power == 1 else f"beta^{power}"
            term = var if abs(c) == 1 else f"{magnitude}*{var}"
        if not parts:
            parts.append(term if c >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def fmt_list(values) -> str:
    """``[v1, v2, ...]``, each value in the fmt_num format."""
    return "[" + ", ".join(map(fmt_num, values)) + "]"


def emit_csv(rows) -> str:
    """RFC-4180-style CSV: header first, exact integers, 12-significant-digit floats, LF endings."""
    import csv  # here, so only the commands that write CSV load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([v if isinstance(v, (str, int)) else fmt_num(v) for v in row])
    return buf.getvalue()


def _render_table(header, rows) -> str:
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _strategy_label(strategy) -> str:
    if isinstance(strategy, Stationary):
        return f"stationary(alpha={fmt_num(strategy.alpha)})"
    if isinstance(strategy, Counting):
        return "counting"
    if isinstance(strategy, PerStep):
        return f"per_step({fmt_list(strategy.exit_probs)})"
    return f"quantum({strategy.num_qubits} qubits)"


def _problem_line(problem) -> str:
    if isinstance(problem, SelectionProblem):
        return (f"problem: two-round selection over {problem.num_destinations} destinations "
                f"{fmt_list(problem.destination_payoffs)}")
    return (
        f"problem: drive with {problem.num_intersections} exits {fmt_list(problem.exit_payoffs)}, "
        f"terminal payoff {fmt_num(problem.terminal_payoff)}"
    )


def _run_eval(scenario: Scenario) -> tuple[str, list]:
    problem = scenario.problem
    k = problem.num_destinations
    table_rows = []
    csv_rows = [("strategy", "expected_payoff", *(f"p{i}" for i in range(1, k + 1)))]
    for named in scenario.strategies:
        dist = destination_distribution(problem, named.strategy)
        payoff = dist.mean(problem.destination_payoffs)
        table_rows.append(
            (named.name, _strategy_label(named.strategy), fmt_value(payoff), fmt_list(dist.probs))
        )
        csv_rows.append((named.name, payoff, *dist.probs))
    text = _problem_line(problem) + "\n\n"
    text += _render_table(("strategy", "kind", "expected payoff", "destination distribution"),
                          table_rows)
    return text, csv_rows


def _run_optimize(scenario: Scenario) -> tuple[str, list]:
    problem = scenario.problem
    coeffs = beta_coefficients(problem)
    result = optimize_stationary(problem)
    text = "\n".join(
        [
            _problem_line(problem),
            f"stationary payoff polynomial (beta = 1 - alpha): {fmt_poly(coeffs)}",
            f"beta coefficients: {fmt_list(coeffs)}",
            f"optimum: alpha* = {fmt_value(result.alpha_star)}, "
            f"payoff = {fmt_value(result.payoff_star)}, method = {result.method}",
        ]
    )
    rows = [
        ("alpha_star", "payoff_star", "method", *(f"b{j}" for j in range(len(coeffs)))),
        (result.alpha_star, result.payoff_star, result.method, *coeffs),
    ]
    return text, rows


def _run_select(scenario: Scenario) -> tuple[str, list]:
    sel = scenario.problem
    counting_values = counting_round_values(sel)
    mean, second_round = two_round_average_drive(sel)
    b0, *higher = beta_coefficients(second_round)  # the first pick's mean joins b0 only
    best = optimize_two_round(sel)
    totals = first_choice_totals(sel, best.alpha_star)
    counting_total = 2 * mean  # each destination is the first pick or the second w.p. 1/n
    improvement = counting_total - best.payoff_star

    table_rows = []
    csv_rows = [
        ("first_choice", "first_payoff", "counting_second_round", "counting_total",
         "stationary_total")
    ]
    for choice, (total, (first, second)) in enumerate(zip(totals, counting_values), start=1):
        first_text = fmt_num(first)
        table_rows.append(
            (
                choice,
                first_text,
                fmt_value(total),
                f"{first_text} + {fmt_value(second)}",
                fmt_value(first + second),
            )
        )
        csv_rows.append((choice, first, second, first + second, total))
    text = _problem_line(sel) + "\n\n"
    text += _render_table(
        ("first choice", "first payoff", "stationary total at alpha*", "counting split",
         "counting total"),
        table_rows,
    )
    text += "\n\n" + "\n".join(
        [
            f"average stationary polynomial (beta = 1 - alpha): {fmt_poly((b0 + mean, *higher))}",
            f"stationary optimum: alpha* = {fmt_value(best.alpha_star)}, "
            f"payoff = {fmt_value(best.payoff_star)}",
            f"counting average total: {fmt_value(counting_total)}",
            f"counting improvement over optimized stationary: {fmt_value(improvement)}",
        ]
    )
    return text, csv_rows


def _run_simulate(scenario: Scenario) -> tuple[str, list]:
    problem = scenario.problem
    options = scenario.options
    k = problem.num_destinations
    table_rows = []
    csv_rows = [
        ("strategy", "trials", "seed", "mean_payoff", "std_error",
         *(f"p{i}" for i in range(1, k + 1)))
    ]
    for named in scenario.strategies:
        report = estimate_payoff(problem, named.strategy, options.trials, options.seed)
        table_rows.append(
            (
                named.name,
                report.trials,
                fmt_num(report.mean_payoff),
                fmt_num(report.std_error),
                fmt_list(report.empirical_distribution.probs),
            )
        )
        csv_rows.append(
            (
                named.name,
                report.trials,
                report.seed,
                report.mean_payoff,
                report.std_error,
                *report.empirical_distribution.probs,
            )
        )
    text = (
        _problem_line(problem)
        + f"\nseed: {options.seed}\n\n"
        + _render_table(
            ("strategy", "trials", "mean payoff", "std error", "empirical distribution"),
            table_rows,
        )
    )
    return text, csv_rows


def _run_curve(scenario: Scenario) -> tuple[str, list]:
    problem = scenario.problem
    step = scenario.options.grid_step
    grid = [*takewhile(lambda alpha: alpha < 1.0 - 1e-12, (i * step for i in count())), 1.0]
    rows = [("alpha", "payoff"), *zip(grid, stationary_payoff(problem, grid))]
    return emit_csv(rows).rstrip("\n"), rows


_RUNNERS = {
    "eval": _run_eval,
    "optimize": _run_optimize,
    "select": _run_select,
    "simulate": _run_simulate,
    "curve": _run_curve,
}
COMMANDS = tuple(_RUNNERS)


def run_command(command: str, scenario: Scenario) -> tuple[str, list]:
    """Dispatch a subcommand: its stdout text and its ``--csv`` rows, header first."""
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    is_selection = isinstance(scenario.problem, SelectionProblem)
    if command == "select" and not is_selection:
        raise ScenarioError("command/problem mismatch: 'select' needs a selection problem")
    if command != "select" and is_selection:
        raise ScenarioError(
            f"command/problem mismatch: '{command}' needs a drive problem, got selection"
        )
    return _RUNNERS[command](scenario)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we document 1
        raise _UsageError(message)


# Each flag is declared once, in a parent parser that every subparser reading
# it lists; argparse adds the parents' actions instead of building new ones.
_SOURCE = argparse.ArgumentParser(add_help=False)
_source = _SOURCE.add_mutually_exclusive_group(required=True)
_source.add_argument("--scenario", metavar="PATH", help="scenario document to load")
_source.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario, no file needed")
_SIMULATE = argparse.ArgumentParser(add_help=False)
_SIMULATE.add_argument("--trials", type=int, metavar="N", help="override simulation trials")
_SIMULATE.add_argument("--seed", type=int, metavar="S", help="override the 64-bit seed")
_CURVE = argparse.ArgumentParser(add_help=False)
_CURVE.add_argument("--grid-step", type=float, metavar="H", help="override the alpha grid step")
_CSV = argparse.ArgumentParser(add_help=False)
_CSV.add_argument("--csv", metavar="PATH", help="also write the result table as CSV")
# the overrides each command reads, between its source and --csv
_OWN_FLAGS = {"simulate": (_SIMULATE,), "curve": (_CURVE,)}


def build_parser() -> _Parser:
    parser = _Parser(prog="absentdriver", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for command in COMMANDS:
        sub.add_parser(command, parents=[_SOURCE, *_OWN_FLAGS.get(command, ()), _CSV])
    return parser


# scenario option -> the flag that overrides it
_OVERRIDES = {"trials": "--trials", "seed": "--seed", "grid_step": "--grid-step"}


def _load_scenario(args) -> Scenario:
    if args.preset:
        text = PRESETS[args.preset]
    else:
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
    scenario = parse_scenario(text)
    overrides = {k: v for k in _OVERRIDES if (v := getattr(args, k, None)) is not None}
    return scenario.with_options(_OVERRIDES, **overrides) if overrides else scenario


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        print("usage error: a subcommand is required "
              f"({', '.join(COMMANDS)})", file=sys.stderr)
        return 1
    try:
        scenario = _load_scenario(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"scenario error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        text, rows = run_command(args.command, scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit status
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if args.csv is not None:  # before any stdout, so a failed write leaves stdout empty
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                # curve's text is its CSV: write it rather than format the grid again
                fh.write(text + "\n" if args.command == "curve" else emit_csv(rows))
        except OSError as exc:
            print(f"runtime error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 3
    try:
        print(text)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
    except OSError as exc:
        print(f"runtime error: cannot write stdout: {exc}", file=sys.stderr)
        sys.stdout = open(os.devnull, "w")  # the exit flush would fail again
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
