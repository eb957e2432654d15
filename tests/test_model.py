import ast
import copy
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import absentdriver
from absentdriver import (
    Counting,
    DestinationDistribution,
    NamedStrategy,
    OptimizationResult,
    PerStep,
    Scenario,
    ScenarioOptions,
    SelectionProblem,
    SimulationReport,
    Stationary,
    build_state,
    destination_distribution,
    estimate_payoff,
    expected_payoff,
    make_drive_problem,
    step_exit_probabilities,
)


class TestMakeDriveProblem:
    def test_example1_shape(self):
        problem = make_drive_problem([0, 4], 1)
        assert problem.exit_payoffs == (0.0, 4.0)
        assert problem.terminal_payoff == 1.0
        assert problem.num_destinations == 3

    def test_example2_shape(self):
        problem = make_drive_problem([0, 4, 1], 1)
        assert problem.num_intersections == 3
        assert problem.num_destinations == 4
        assert problem.destination_payoffs == (0.0, 4.0, 1.0, 1.0)

    def test_empty_exits_rejected(self):
        with pytest.raises(ValueError, match="degenerate problem"):
            make_drive_problem([], 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payoff_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid payoff"):
            make_drive_problem([0, bad], 1)
        with pytest.raises(ValueError, match="invalid payoff"):
            make_drive_problem([0, 1], bad)

    def test_immutable(self):
        problem = make_drive_problem([0, 4], 1)
        with pytest.raises(AttributeError):
            problem.terminal_payoff = 2.0


class TestSelectionProblem:
    def test_needs_two_destinations(self):
        with pytest.raises(ValueError, match="degenerate problem"):
            SelectionProblem((1.0,))

    def test_example_payoffs(self):
        sel = SelectionProblem((0, 4, 1, 1))
        assert sel.num_destinations == 4


class TestStrategyValidation:
    @pytest.mark.parametrize("alpha", [-0.1, 1.1, float("nan")])
    def test_stationary_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="probability"):
            Stationary(alpha)

    def test_per_step_entries_checked(self):
        with pytest.raises(ValueError, match="probability"):
            PerStep((0.5, 1.5))


def _scenario(alpha):
    return Scenario(make_drive_problem([0, 4], 1), (NamedStrategy("s", Stationary(alpha)),))


# (build one, build a record that differs in one field or None, its repr)
RECORDS = [
    (lambda: make_drive_problem([0, 4], 1), lambda: make_drive_problem([0, 4], 2),
     "DriveProblem(exit_payoffs=(0.0, 4.0), terminal_payoff=1.0)"),
    (lambda: DestinationDistribution((0.25, 0.25, 0.5)), lambda: DestinationDistribution((0.5, 0.5)),
     "DestinationDistribution(probs=(0.25, 0.25, 0.5))"),
    (lambda: SelectionProblem((1, 2, 3)), lambda: SelectionProblem((1, 2)),
     "SelectionProblem(destination_payoffs=(1.0, 2.0, 3.0))"),
    (lambda: Stationary(0.3), lambda: Stationary(0.4), "Stationary(alpha=0.3)"),
    (Counting, None, "Counting()"),
    (lambda: PerStep((0.5, 1)), lambda: PerStep((0.5, 0.5)), "PerStep(exit_probs=(0.5, 1.0))"),
    (lambda: build_state([("01", 0.6), ("10", 0.8)]), lambda: build_state([("01", 0.8), ("10", 0.6)]),
     "StateVector(bits=('01', '10'), values=((0.6+0j), (0.8+0j)))"),
    (lambda: OptimizationResult(0.1, 0.2, "numeric", 0.0),
     lambda: OptimizationResult(0.1, 0.2, "closed_form", 0.0),
     "OptimizationResult(alpha_star=0.1, payoff_star=0.2, method='numeric', gap=0.0)"),
    (lambda: NamedStrategy("s", Stationary(0.3)), lambda: NamedStrategy("t", Stationary(0.3)),
     "NamedStrategy(name='s', strategy=Stationary(alpha=0.3))"),
    (ScenarioOptions, lambda: ScenarioOptions(seed=1),
     "ScenarioOptions(trials=100000, seed=12345, grid_step=0.05)"),
    (lambda: _scenario(0.3), lambda: _scenario(0.4),
     "Scenario(problem=DriveProblem(exit_payoffs=(0.0, 4.0), terminal_payoff=1.0), "
     "strategies=(NamedStrategy(name='s', strategy=Stationary(alpha=0.3)),), "
     "options=ScenarioOptions(trials=100000, seed=12345, grid_step=0.05))"),
    (lambda: SimulationReport(10, 1.5, 0.25, DestinationDistribution((0.5, 0.5)), 7),
     lambda: SimulationReport(10, 1.5, 0.25, DestinationDistribution((0.5, 0.5)), 8),
     "SimulationReport(trials=10, mean_payoff=1.5, std_error=0.25, "
     "empirical_distribution=DestinationDistribution(probs=(0.5, 0.5)), seed=7)"),
]


@pytest.mark.parametrize("make,make_other,text", RECORDS,
                         ids=[text.split("(")[0] for *_, text in RECORDS])
def test_records_are_frozen_values(make, make_other, text):
    record = make()
    assert record == make() and record is not make()
    assert hash(record) == hash(make())
    assert record.__eq__(object()) is NotImplemented
    if make_other is not None:
        assert record != make_other()
    assert repr(record) == text
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == text
    fields = dict(vars(record))
    for name in [*fields, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert vars(record) == fields


def steps(strategy, num_destinations: int) -> list[float]:
    """Per-intersection exit probabilities on a problem with ``num_destinations``."""
    problem = make_drive_problem([0.0] * (num_destinations - 1), 0.0)
    return list(step_exit_probabilities(problem, strategy))


class TestExitProbability:
    def test_counting_first_of_four(self):
        assert steps(Counting(), 4)[0] == pytest.approx(0.25)

    def test_counting_last_branch_is_half(self):
        assert steps(Counting(), 4)[2] == pytest.approx(0.5)

    def test_stationary_zero_never_exits(self):
        assert steps(Stationary(0.0), 6) == [0.0] * 5

    def test_stationary_constant_across_steps(self):
        assert steps(Stationary(0.3), 5) == [0.3] * 4

    def test_per_step_indexing(self):
        assert steps(PerStep((0.1, 0.2, 0.3)), 4) == [0.1, 0.2, 0.3]

    def test_per_step_length_mismatch(self):
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            steps(PerStep((0.1, 0.2)), 4)

    @pytest.mark.parametrize("entry", [step_exit_probabilities, destination_distribution,
                                       expected_payoff, lambda p, s: estimate_payoff(p, s, 10, 1)],
                             ids=["step_exit_probabilities", "destination_distribution",
                                  "expected_payoff", "estimate_payoff"])
    def test_unknown_strategy_type(self, entry):
        with pytest.raises(TypeError, match=r"^unknown strategy type: str$"):
            entry(make_drive_problem([0, 4], 1), "stationary")

    def test_quantum_steps_are_exit_hazards(self):
        # the Bell pair exits at 1 or 2, each half the time: exit 2 is certain once reached
        strategy = build_state([("01", 1), ("10", 1)], normalize=True)
        assert steps(strategy, 3) == pytest.approx([0.5, 1.0], abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 7, 40])
    def test_counting_values_are_reciprocals(self, k):
        # the vectorised form gives the same floats as 1.0 / (k - i + 1)
        assert steps(Counting(), k) == [1.0 / (k - i + 1) for i in range(1, k)]

    @given(k=st.integers(min_value=2, max_value=40), data=st.data())
    def test_counting_induces_uniform_destinations(self, k, data):
        # (1 - 1/k)(1 - 1/(k-1))...(1 - 1/(k-i+1)) * 1/(k-i) == 1/k for every i
        i = data.draw(st.integers(min_value=1, max_value=k - 1))
        p = steps(Counting(), k)
        reach = math.prod(1.0 - p[j - 1] for j in range(1, i))
        assert reach * p[i - 1] == pytest.approx(1.0 / k, abs=1e-12)

    def test_deterministic(self):
        assert steps(Counting(), 7) == steps(Counting(), 7)


class TestSummation:
    def test_mean_independent_of_order(self):
        # a correctly rounded sum of the rounded products, so any order of the
        # (probability, payoff) pairs gives the same float
        rng = np.random.default_rng(21)
        for _ in range(3000):
            k = int(rng.integers(2, 14))
            probs = rng.random(k)
            probs /= probs.sum()
            payoffs = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3, 16, k)
            want = DestinationDistribution(probs).mean(payoffs)
            for _ in range(4):
                order = rng.permutation(k)
                assert DestinationDistribution(probs[order]).mean(payoffs[order]) == want

    def test_package_makes_no_blas_call(self):
        # OpenBLAS picks its kernels per CPU, so a BLAS sum can print other
        # digits on another machine
        blas = {"linalg", "dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
        found = []
        for path in sorted(Path(absentdriver.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute) and node.attr in blas
                    or isinstance(node, ast.alias) and blas & set(node.name.split("."))
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in Path(absentdriver.__file__).parent.glob("*.py"))
    )
    def test_package_imports_only_what_it_uses(self, module):
        # a name counts as used if code reads it, __all__ lists it or a string annotation names it
        path = Path(absentdriver.__file__).parent / module
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
            annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
            for annotation in filter(None, annotations):
                for part in ast.walk(annotation):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                    if isinstance(n, ast.Name))
        unused = [f"{module}:{line} {name}" for name, line in imported.items() if name not in used]
        assert unused == []
