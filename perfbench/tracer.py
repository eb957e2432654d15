"""Spans around the package's public functions, recorded from outside it.

:meth:`Tracer.install` rebinds every module-level name in ``absentdriver.*``
that refers to a traced function (the names ``cli``, ``selection``,
``optimize``, ``simulate`` and ``scenario`` import, and the defining
module's own name, which covers calls inside a module) to a wrapper that
records a span: name, start, end, parent span and job id.  No source file is
edited; :meth:`Tracer.uninstall` restores the originals.  Functions a later
version of the package no longer has are skipped.

Boundary counts (trials, qubits, optimizer routes) are taken by small
observers at the same wrappers.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "classical", "optimize", "quantum", "selection", "simulate", "cli")

TRACED = {
    "scenario": ("parse_scenario",),
    "classical": (
        "stationary_payoff_polynomial", "destination_distribution", "expected_payoff",
        "step_exit_probabilities",
    ),
    "optimize": ("optimize_stationary", "maximize_polynomial"),
    "quantum": (
        "build_state", "product_state", "first_zero_destinations", "first_zero_distribution",
        "quantum_expected_payoff",
    ),
    "selection": (
        "round_breakdowns", "residual_problem", "two_round_average_polynomial",
        "optimize_two_round", "counting_round_values", "two_round_counting_total",
        "selection_improvement",
    ),
    "simulate": ("estimate_payoff",),
}

PACKAGE = "absentdriver"
JOB_SPAN = "cli.main"
_DEFAULT_BLOCK = 1 << 16


class Tracer:
    """In-memory span recorder plus boundary counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, ok]
        self.stack: list[int] = []
        self.job = ""
        self.counts: dict[str, float] = defaultdict(float)
        self.table_sizes: dict[int, int] = {}
        self.optimizer_results: list[tuple] = []  # (kind, payoffs, alpha*, payoff*, method)
        self._bindings: list[tuple] = []  # (module, name, original, wrapper)

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, True])
        self.stack.append(index)
        return index

    def close(self, index: int, ok: bool) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = ok
        self.stack.pop()

    def _wrap(self, name: str, fn, observe):
        def traced(*args, **kwargs):
            index = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(index, ok)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind traced names in every loaded module of the package."""
        if not self._bindings:
            wrappers = {}
            for layer, names in TRACED.items():
                module = sys.modules.get(f"{PACKAGE}.{layer}")
                for fname in names:
                    fn = getattr(module, fname, None)
                    if fn is not None:
                        observe = getattr(self, f"_observe_{fname}", None)
                        wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, observe))
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE
                                          or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in vars(module).items():
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._bindings.append((module, attr, value, entry[1]))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # -- observers (cheap: run inside the caller's span) -------------------

    def _observe_estimate_payoff(self, args, kwargs, report):
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        trials = args[2] if len(args) > 2 else kwargs["trials"]
        block = getattr(sys.modules.get(f"{PACKAGE}.simulate"), "BLOCK_SIZE", _DEFAULT_BLOCK)
        self.counts["simulate.trials"] += trials
        self.counts["simulate.blocks"] += -(-trials // block)
        state = getattr(strategy, "state", None)
        if state is not None:
            self.counts["quantum.amplitudes"] += 2 ** state.num_qubits

    def _observe_build_state(self, args, kwargs, state):
        self.counts["quantum.amplitudes"] += 2 ** state.num_qubits

    _observe_product_state = _observe_build_state

    def _observe_first_zero_distribution(self, args, kwargs, dist):
        state = args[0] if args else kwargs["state"]
        self.counts["quantum.amplitudes"] += 2 ** state.num_qubits

    def _observe_first_zero_destinations(self, args, kwargs, table):
        m = args[0] if args else kwargs["num_qubits"]
        if m not in self.table_sizes:
            # The build holds a (2^m x m) int64 bit matrix next to the table.
            self.table_sizes[m] = int(table.nbytes) * (m + 1)

    def _observe_optimize_stationary(self, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        self.optimizer_results.append(
            ("drive", problem.destination_payoffs, result.alpha_star, result.payoff_star,
             result.method)
        )

    def _observe_optimize_two_round(self, args, kwargs, result):
        sel = args[0] if args else kwargs["sel"]
        self.optimizer_results.append(
            ("selection", sel.destination_payoffs, result.alpha_star, result.payoff_star,
             result.method)
        )

    # -- output -----------------------------------------------------------

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, ok in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job, "ok": ok,
                }) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer total, self time, calls and failures, plus named groups."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += durations[i]

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i][3]
        while p >= 0:
            if pred(names[p]):
                return True
            p = spans[p][3]
        return False

    out: dict[str, float] = {}
    for layer in LAYERS:
        in_layer = (lambda n, layer=layer: _layer(n) == layer)
        total = self_time = 0.0
        calls = failures = 0
        for i, name in enumerate(names):
            if not in_layer(name):
                continue
            self_time += durations[i] - child_time[i]
            if not has_ancestor(i, in_layer):
                total += durations[i]
                calls += 1
                failures += not spans[i][5]
        out[f"{layer}.s"] = total
        out[f"{layer}.self_s"] = self_time
        out[f"{layer}.calls"] = calls
        out[f"{layer}.failures"] = failures

    def group_total(members) -> float:
        member = (lambda n: n in members)
        return sum(durations[i] for i, n in enumerate(names)
                   if n in members and not has_ancestor(i, member))

    def count(fname) -> int:
        return sum(1 for n in names if n == fname)

    out["scenario.parse_s"] = group_total({"scenario.parse_scenario"})
    out["classical.polynomial_s"] = group_total({"classical.stationary_payoff_polynomial"})
    out["classical.polynomial_calls"] = count("classical.stationary_payoff_polynomial")
    out["classical.distribution_s"] = group_total(
        {"classical.destination_distribution", "classical.expected_payoff"})
    out["selection.residual_problems"] = count("selection.residual_problem")
    out["quantum.build_s"] = group_total({"quantum.build_state", "quantum.product_state"})
    out["quantum.table_s"] = group_total({"quantum.first_zero_destinations"})
    out["quantum.distribution_s"] = group_total(
        {"quantum.first_zero_distribution", "quantum.quantum_expected_payoff"})
    out["quantum.amplitudes"] = tracer.counts["quantum.amplitudes"]
    out["quantum.table_bytes"] = sum(tracer.table_sizes.values())
    out["simulate.trials"] = tracer.counts["simulate.trials"]
    out["simulate.blocks"] = tracer.counts["simulate.blocks"]
    simulate_s = out["simulate.s"]
    out["simulate.trials_per_s"] = out["simulate.trials"] / simulate_s if simulate_s else 0.0
    return out
