"""Per-layer size sweeps, each along its layer's own axis.

Run in a fresh interpreter (``run.py --trace 1`` starts it) so that the
first ``first_zero_distribution`` call at each qubit count is really cold.
Calls the package's public functions directly and times them with
``time.perf_counter``; prints one JSON object of ``{metric: seconds}`` plus
a ``failures`` list as its last line.

Axes: ``m`` (polynomial, optimizer), ``n`` (two-round selection), trials
and qubits (simulator), qubits (quantum state and first-zero reduction).
The points m = 200 optimizer, m = 8 / 1e6-trial classical simulate,
20-qubit / 1e6-trial quantum simulate, ``product_state(0.3, 20)`` and the
cold and warm 20-qubit ``first_zero_distribution`` reproduce the baselines
listed in ROADMAP.md.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _points(ad):
    """Yield ``(metric, prepare, repeats)``; ``prepare()`` builds the inputs
    untimed and returns the call to time, so a missing function fails only
    its own point."""
    rng = random.Random("sweep")

    def drive(m):
        return ad.make_drive_problem([rng.uniform(0, 10) for _ in range(m)], rng.uniform(0, 10))

    def selection(n):
        return ad.SelectionProblem(tuple(rng.uniform(0, 10) for _ in range(n)))

    for m in (8, 64, 256, 1024):
        yield (f"sweep.classical.polynomial.m{m}_s",
               lambda m=m: (lambda p=drive(m): ad.stationary_payoff_polynomial(p)), 5)
    for m in (8, 64, 200):
        yield (f"sweep.optimize.stationary.m{m}_s",
               lambda m=m: (lambda p=drive(m): ad.optimize_stationary(p)), 3)
    for n, repeats in ((16, 3), (64, 3), (200, 1)):
        yield (f"sweep.selection.two_round.n{n}_s",
               lambda n=n: (lambda s=selection(n): ad.optimize_two_round(s)), repeats)
    for trials, label in ((10_000, "1e4"), (100_000, "1e5"), (1_000_000, "1e6")):
        yield (f"sweep.simulate.classical_m8.t{label}_s",
               lambda t=trials: (lambda p=drive(8), s=ad.Stationary(0.3):
                                 ad.estimate_payoff(p, s, t, 7)), 3)
    for q in (10, 16, 20):
        yield (f"sweep.quantum.product_state.q{q}_s",
               lambda q=q: (lambda: ad.product_state(0.3, q)), 3)
    for q in (10, 16, 20):
        # Cold first: nothing earlier in this process reduced a q-qubit state.
        # A GHZ plan, as in the quantum workload: reducing product_state(0.3, 20)
        # raises, its 2^20 weights summing to 1 + 1.3e-12 (tolerance 1e-12).
        for temperature, repeats in (("cold", 1), ("warm", 3)):
            yield (f"sweep.quantum.first_zero_{temperature}.q{q}_s",
                   lambda q=q: (lambda s=ad.build_state([("0" * q, 1), ("1" * q, 1)], normalize=True):
                                ad.first_zero_distribution(s)),
                   repeats)
    for q in (10, 20):
        yield (f"sweep.simulate.quantum_t1e6.q{q}_s",
               lambda q=q: (lambda p=drive(q), s=ad.Quantum(ad.product_state(0.3, q)):
                            ad.estimate_payoff(p, s, 1_000_000, 7)), 1)


def main() -> int:
    import absentdriver as ad

    results: dict[str, float] = {}
    failures: list[str] = []
    for name, prepare, repeats in _points(ad):
        try:
            results[name] = _timed(prepare(), repeats)
        except Exception as exc:  # noqa: BLE001 - a missing or failing point is reported, not fatal
            results[name] = 0.0
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    print(json.dumps({"metrics": results, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
