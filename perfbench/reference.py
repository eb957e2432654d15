"""Independent reference answers and stdout checks for benchmark jobs.

Nothing here imports the package under test.  Classical answers come from
the product form ``P(exit i) = p_i * prod_{j<i} (1 - p_j)``; the stationary
payoff is evaluated directly in ``beta = 1 - alpha`` by a Horner recurrence,
which stays accurate at every ``m`` (no monomial expansion in ``alpha``).
Quantum answers sum ``|amplitude|^2`` ket by ket at the position of the
first 0.  Simulation reports are checked by their z-score against the exact
mean.

``check(command, doc, stdout)`` returns ``(problems, max_z)``: an empty list
when the output is right, else one line per defect, and the largest
simulation z-score seen.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

# Grid for the "no better maximum exists" check on optimize and select.
GRID_POINTS = 4097
# A simulated mean further than this many standard errors from the exact
# mean is a failure (two-sided chance about 2e-9 per row for a correct run).
MAX_Z = 6.0
PROB_TOL = 1e-9


def payoff_tol(payoffs) -> float:
    """Absolute payoff tolerance: far above 12-digit print rounding."""
    return 1e-9 * (1.0 + max(abs(v) for v in payoffs))


# -- classical references -------------------------------------------------


def product_form(steps, k: int) -> np.ndarray:
    """Destination distribution for per-step exit probabilities ``steps``."""
    probs = np.zeros(k)
    keep = 1.0
    for i, p in enumerate(steps):
        probs[i] = keep * p
        keep *= 1.0 - p
    probs[k - 1] = keep
    return probs


def step_probs(strategy: dict, m: int) -> list[float]:
    kind = strategy["kind"]
    if kind == "stationary":
        return [strategy["alpha"]] * m
    if kind == "counting":
        return [1.0 / (m + 1 - i) for i in range(m)]
    return list(strategy["exit_probs"])


def stationary_payoff(exits, terminal, alphas) -> np.ndarray:
    """``sum_i v_i a (1-a)^(i-1) + v_T (1-a)^m`` evaluated in ``beta = 1 - a``."""
    alphas = np.asarray(alphas, dtype=float)
    beta = 1.0 - alphas
    acc = np.full_like(alphas, float(terminal))
    for v in reversed(exits):
        acc = v * alphas + beta * acc
    return acc


def _grid_max(exits, terminal) -> float:
    return float(stationary_payoff(exits, terminal, np.linspace(0.0, 1.0, GRID_POINTS)).max())


def quantum_distribution(strategy: dict, m: int) -> np.ndarray:
    probs = np.zeros(m + 1)
    for term in strategy["terms"]:
        weight = term["re"] ** 2 + term.get("im", 0.0) ** 2
        first_zero = term["bits"].find("0")
        probs[first_zero if first_zero >= 0 else m] += weight
    return probs / probs.sum()


def distribution(problem: dict, strategy: dict) -> np.ndarray:
    m = len(problem["exit_payoffs"])
    if strategy["kind"] == "quantum":
        return quantum_distribution(strategy, m)
    return product_form(step_probs(strategy, m), m + 1)


class Objective(NamedTuple):
    """``base + E(alpha)`` for a drive with ``exits`` and ``terminal``, bounded by ``upper``."""

    base: float
    exits: list
    terminal: float
    upper: float


def drive_objective(payoffs) -> Objective:
    """Stationary payoff of a drive; ``payoffs`` are exits then terminal."""
    return Objective(0.0, list(payoffs[:-1]), float(payoffs[-1]), float(max(payoffs)))


def selection_objective(payoffs) -> Objective:
    """Averaged two-round payoff: first pick uniform, stationary second round.

    The second-round payoff is linear in the residual payoffs, so averaging
    the ``n`` residual drives position by position gives one drive problem
    with the same stationary payoff as the average.  No first and second pick
    together beat the two largest payoffs.
    """
    v = np.asarray(payoffs, dtype=float)
    residual = np.array([np.delete(v, c) for c in range(v.size)]).mean(axis=0)
    return Objective(float(v.mean()), list(residual[:-1]), float(residual[-1]),
                     float(sum(sorted(payoffs)[-2:])))


def bound_problems(label: str, alpha: float, payoff: float, obj: Objective) -> list[str]:
    """An optimum outside [0, 1], above the bound, or off the product form at alpha*."""
    if not 0.0 <= alpha <= 1.0:
        return [f"{label}: alpha* = {alpha!r} outside [0, 1]"]
    tol = payoff_tol([*obj.exits, obj.terminal, obj.base])
    problems = []
    if not payoff <= obj.upper + tol:
        problems.append(f"{label}: payoff {payoff:.12g} above the largest payoff {obj.upper:.12g}")
    at_alpha = obj.base + float(stationary_payoff(obj.exits, obj.terminal, alpha))
    if not _close(payoff, at_alpha, tol):
        problems.append(f"{label}: payoff {payoff:.12g} but product form at alpha* gives "
                        f"{at_alpha:.12g}")
    return problems


# -- stdout parsing ---------------------------------------------------------

_VALUE = r"([^\s,]+)(?: \(-?\d+/\d+\))?"
_OPTIMUM = re.compile(rf"alpha\* = {_VALUE}, payoff = {_VALUE}")


def _vector(text: str) -> list[float]:
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ValueError(f"not a vector: {text[:40]!r}")
    return [float(x) for x in inner[1:-1].split(",")]


def _table_rows(text: str) -> dict[str, str]:
    """Rows of the aligned table after the dashed rule, keyed by first cell."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = {}
    for line in lines[rule + 1 :]:
        if not line.strip():
            break
        rows[line.split()[0]] = line
    return rows


def _line(text: str, prefix: str) -> str:
    return next(line for line in text.splitlines() if line.startswith(prefix))


# -- checks -----------------------------------------------------------------


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol  # False for nan


def _check_dist(name: str, got, want, problems: list[str]) -> None:
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} probabilities, expected {len(want)}")
        return
    worst = max(abs(g - w) for g, w in zip(got, want))
    if not worst <= PROB_TOL:
        problems.append(f"{name}: distribution off by {worst:.3g}")


def _check_eval(doc, stdout, problems):
    problem = doc["problem"]
    payoffs = [*problem["exit_payoffs"], problem["terminal_payoff"]]
    tol = payoff_tol(payoffs)
    rows = _table_rows(stdout)
    for strategy in doc["strategies"]:
        name = strategy["name"]
        line = rows.get(name)
        if line is None:
            problems.append(f"{name}: row missing")
            continue
        cut = line.rindex("  [") + 2
        got_dist = _vector(line[cut:])
        got_payoff = float(re.search(_VALUE + "$", line[:cut].rstrip()).group(1))
        want_dist = distribution(problem, strategy)
        want_payoff = float(want_dist @ np.asarray(payoffs))
        _check_dist(name, got_dist, want_dist, problems)
        if not _close(got_payoff, want_payoff, tol):
            problems.append(f"{name}: payoff {got_payoff!r}, expected {want_payoff:.12g}")


def _check_optimum(label, alpha, payoff, obj: Objective, problems) -> None:
    """Optimizer output: the bounds, and no better point on a fine grid."""
    problems += bound_problems(label, alpha, payoff, obj)
    best = obj.base + _grid_max(obj.exits, obj.terminal)
    if not payoff >= best - payoff_tol([*obj.exits, obj.terminal, obj.base]):
        problems.append(f"{label}: payoff {payoff:.12g} below grid maximum {best:.12g}")


def _check_optimize(doc, stdout, problems):
    problem = doc["problem"]
    match = _OPTIMUM.search(_line(stdout, "optimum:"))
    obj = drive_objective([*problem["exit_payoffs"], problem["terminal_payoff"]])
    _check_optimum("optimum", float(match.group(1)), float(match.group(2)), obj, problems)


def _check_curve(doc, stdout, problems):
    problem = doc["problem"]
    exits, terminal = problem["exit_payoffs"], problem["terminal_payoff"]
    step = doc.get("options", {}).get("grid_step", 0.05)
    want_alphas = []
    i = 0
    while i * step < 1.0 - 1e-12:
        want_alphas.append(i * step)
        i += 1
    want_alphas.append(1.0)
    lines = stdout.splitlines()
    if lines[0] != "alpha,payoff" or len(lines) != len(want_alphas) + 1:
        problems.append(f"curve: {len(lines) - 1} rows, expected {len(want_alphas)}")
        return
    want = stationary_payoff(exits, terminal, want_alphas)
    tol = payoff_tol([*exits, terminal])
    errors = []
    for line, alpha, value in zip(lines[1:], want_alphas, want):
        got_alpha, got_payoff = (float(x) for x in line.split(","))
        err = abs(got_payoff - value)
        if not (abs(got_alpha - alpha) <= 1e-11 and err <= tol):
            errors.append(math.inf if math.isnan(err) else err)
    if errors:
        bad, worst = len(errors), max(errors)
        problems.append(f"curve: {bad} of {len(want_alphas)} points off, worst by {worst:.3g}")


def _check_select(doc, stdout, problems):
    payoffs = doc["problem"]["destination_payoffs"]
    n = len(payoffs)
    rows = _table_rows(stdout)
    if len(rows) != n:
        problems.append(f"select: {len(rows)} first-choice rows, expected {n}")
    match = _OPTIMUM.search(_line(stdout, "stationary optimum:"))
    payoff_star = float(match.group(2))
    _check_optimum("select optimum", float(match.group(1)), payoff_star,
                   selection_objective(payoffs), problems)
    tol = payoff_tol(payoffs)
    counting = sum(v + (sum(payoffs) - v) / (n - 1) for v in payoffs) / n
    got = float(re.match(r"counting average total: " + _VALUE, _line(stdout, "counting average")).group(1))
    if not _close(got, counting, tol):
        problems.append(f"select: counting total {got!r}, expected {counting:.12g}")
    got = float(re.match(r"counting improvement over optimized stationary: " + _VALUE,
                        _line(stdout, "counting improvement")).group(1))
    if not _close(got, counting - payoff_star, 2 * tol):
        problems.append(f"select: improvement {got!r}, expected {counting - payoff_star:.12g}")


def _check_simulate(doc, stdout, problems) -> float:
    problem = doc["problem"]
    payoffs = np.asarray([*problem["exit_payoffs"], problem["terminal_payoff"]])
    options = doc.get("options", {})
    if f"seed: {options['seed']}" not in stdout.splitlines():
        problems.append("simulate: seed line missing")
    rows = _table_rows(stdout)
    max_z = 0.0
    for strategy in doc["strategies"]:
        name = strategy["name"]
        line = rows.get(name)
        if line is None:
            problems.append(f"{name}: row missing")
            continue
        head, dist = line.split("[", 1)
        _, trials, mean, std_error = head.split()
        emp = _vector("[" + dist)
        if int(trials) != options["trials"] or len(emp) != payoffs.size:
            problems.append(f"{name}: {trials} trials over {len(emp)} destinations")
            continue
        exact = float(distribution(problem, strategy) @ payoffs)
        mean, std_error = float(mean), float(std_error)
        if std_error > 0.0:
            z = abs(mean - exact) / std_error
        else:
            z = 0.0 if _close(mean, exact, payoff_tol(payoffs)) else math.inf
        if math.isfinite(z):
            max_z = max(max_z, z)
        if not z <= MAX_Z:
            problems.append(f"{name}: mean {mean!r} is {z:.3g} standard errors from {exact:.12g}")
        if not abs(sum(emp) - 1.0) <= 1e-9:
            problems.append(f"{name}: empirical distribution sums to {sum(emp)!r}")
    return max_z


_CHECKS = {
    "eval": _check_eval,
    "optimize": _check_optimize,
    "curve": _check_curve,
    "select": _check_select,
    "simulate": _check_simulate,
}


def check(command: str, doc: dict, stdout: str) -> tuple[list[str], float]:
    """Compare one job's stdout with the reference.

    Returns the problems found (empty when the output is right) and the
    largest simulation z-score (0 for other commands).
    """
    problems: list[str] = []
    max_z = 0.0
    try:
        max_z = _CHECKS[command](doc, stdout, problems) or 0.0
    except (ValueError, IndexError, KeyError, StopIteration, AttributeError) as exc:
        problems.append(f"unparseable output ({type(exc).__name__}: {exc})")
    return problems, max_z
