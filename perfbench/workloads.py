"""Seeded job generators for the benchmark workloads.

A job is one CLI call: a command plus the scenario document it reads.  Jobs
come in cycles of fixed composition: every cycle of a workload holds the same
commands at the same sizes, and only the payoffs, probabilities, amplitudes
and simulation seeds change with ``(seed, cycle)``.  The fixed composition
keeps medians and percentiles comparable across seeds; the fresh values keep
a cache keyed on inputs from turning later cycles into free work.

Generation uses :class:`random.Random` seeded with a string, which is stable
across Python and numpy versions, so one seed always gives one job list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("exact", "quantum", "montecarlo")

# exact: small head like the presets and a short eval tail at large m.  Head
# selections stop at n = 5: from n = 6 a select takes twice as long, and that
# step would sit right at p90.
EXACT_HEAD = {"eval": 100, "optimize": 100, "curve": 100}
EXACT_HEAD_SELECT = 60
EXACT_HEAD_N = (3, 4, 5)
# The timed tail is eval only: optimize and curve at these m, and select at
# n = 64 and 200, hit the stationary polynomial's precision defect (ROADMAP
# item 1).  They run as the known-defect probe instead (probe_jobs): every
# run checks and reports them, apart from the timed jobs, so the timed loop
# holds only jobs the program answers correctly and the defect stays visible.
EXACT_TAIL_M = (64, 256, 1024)
PROBE_M = EXACT_TAIL_M
PROBE_N = (64, 200)

# quantum: sparse-ket plans on the dense 2^m engine, exact and sampled.
# Simulate skips 17 qubits: an odd number of (command, qubits) classes puts
# the median and p90 inside a class instead of on the step between two.
QUANTUM_QUBITS = (10, 12, 14, 16, 17, 18, 19, 20)
QUANTUM_SIM_QUBITS = (10, 12, 14, 16, 18, 19, 20)
QUANTUM_PLANS = ("ghz", "w", "single", "counting_state")
QUANTUM_TRIALS = 100_000

# montecarlo: block RNG and tallying at >= 1e6 trials, weighted toward small m
# so that a run of a few tens of seconds holds 100+ jobs.  Cost grows with m;
# the classes fill 0-30-40-60-70-80-100 % of a cycle, so the median and p90
# fall inside the m = 16 and m = 64 classes, not on a class boundary.
MONTECARLO_JOBS = (
    ("stationary", 8), ("counting", 8), ("per_step", 8), ("stationary", 12),
    ("counting", 16), ("per_step", 16), ("stationary", 24), ("counting", 32),
    ("per_step", 64), ("stationary", 64),
)
MONTECARLO_TRIALS = 1_000_000


@dataclass(frozen=True)
class Job:
    """One CLI call of a workload."""

    job_id: str  # "<cycle>.<index>"
    command: str
    size: str  # size class, such as "m=8", "n=200" or "q=20"
    doc: dict

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)


def _payoffs(rng: random.Random, count: int) -> list[float]:
    return [round(rng.uniform(0.0, 10.0), 3) for _ in range(count)]


def _drive(rng: random.Random, m: int) -> dict:
    return {
        "kind": "drive",
        "exit_payoffs": _payoffs(rng, m),
        "terminal_payoff": round(rng.uniform(0.0, 10.0), 3),
    }


def _classical(rng: random.Random, kind: str, m: int, high: float = 0.95) -> dict:
    if kind == "stationary":
        return {"name": kind, "kind": kind, "alpha": round(rng.uniform(0.05, high), 4)}
    if kind == "counting":
        return {"name": kind, "kind": kind}
    return {
        "name": kind,
        "kind": kind,
        "exit_probs": [round(rng.uniform(0.0, high), 4) for _ in range(m)],
    }


def _drive_job(rng: random.Random, command: str, m: int) -> tuple[str, str, dict]:
    doc = {"problem": _drive(rng, m)}
    if command == "eval":
        doc["strategies"] = [_classical(rng, k, m) for k in ("stationary", "counting", "per_step")]
    else:
        doc["strategies"] = [_classical(rng, "stationary", m)]
    if command == "curve":
        doc["options"] = {"grid_step": 0.05 if m % 2 else 0.01}
    return command, f"m={m}", doc


def _select_job(rng: random.Random, n: int) -> tuple[str, str, dict]:
    doc = {
        "problem": {"kind": "selection", "destination_payoffs": _payoffs(rng, n)},
        "strategies": [_classical(rng, "stationary", n)],
    }
    return "select", f"n={n}", doc


def _exact_cycle(rng: random.Random) -> list[tuple[str, str, dict]]:
    specs = []
    for command, count in EXACT_HEAD.items():
        specs += [(command, 2 + i % 7) for i in range(count)]
    specs += [("eval", m) for m in EXACT_TAIL_M]
    out = [_drive_job(rng, command, m) for command, m in specs]
    out += [_select_job(rng, EXACT_HEAD_N[i % len(EXACT_HEAD_N)]) for i in range(EXACT_HEAD_SELECT)]
    return out


def _exact_probe(rng: random.Random) -> list[tuple[str, str, dict]]:
    out = [_drive_job(rng, command, m) for m in PROBE_M for command in ("optimize", "curve")]
    return out + [_select_job(rng, n) for n in PROBE_N]


def _amplitude(rng: random.Random, magnitude: float) -> dict:
    re, im = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    return {"re": re * magnitude, "im": im * magnitude}


def _plan(rng: random.Random, plan: str, m: int) -> dict:
    if plan == "ghz":
        kets = ["0" * m, "1" * m]
    elif plan == "w":
        kets = ["0" * i + "1" + "0" * (m - i - 1) for i in range(m)]
    elif plan == "single":
        kets = ["".join(rng.choice("01") for _ in range(m))]
    else:  # (m+1)-term state with at most one zero: reproduces counting
        kets = ["1" * i + "0" + "1" * (m - i - 1) for i in range(m)] + ["1" * m]
    equal = plan == "counting_state"
    terms = [
        {"bits": bits, **_amplitude(rng, 1.0 if equal else round(rng.uniform(0.5, 1.5), 3))}
        for bits in kets
    ]
    return {"name": plan, "kind": "quantum", "normalize": True, "terms": terms}


def _quantum_cycle(rng: random.Random) -> list[tuple[str, str, dict]]:
    out = []
    for m in QUANTUM_QUBITS:
        for plan in QUANTUM_PLANS:
            for command in ("eval", "simulate") if m in QUANTUM_SIM_QUBITS else ("eval",):
                doc = {"problem": _drive(rng, m), "strategies": [_plan(rng, plan, m)]}
                if command == "simulate":
                    doc["options"] = {"trials": QUANTUM_TRIALS, "seed": rng.getrandbits(63)}
                out.append((command, f"q={m}", doc))
    return out


def _montecarlo_cycle(rng: random.Random) -> list[tuple[str, str, dict]]:
    out = []
    for kind, m in MONTECARLO_JOBS:
        doc = {
            "problem": _drive(rng, m),
            "strategies": [_classical(rng, kind, m, high=0.5)],
            "options": {"trials": MONTECARLO_TRIALS, "seed": rng.getrandbits(63)},
        }
        out.append(("simulate", f"m={m}", doc))
    return out


_CYCLES = {"exact": _exact_cycle, "quantum": _quantum_cycle, "montecarlo": _montecarlo_cycle}
_PROBES = {"exact": _exact_probe}


def cycle_jobs(workload: str, seed: int, cycle: int) -> list[Job]:
    """The jobs of one cycle; the order is fixed, only the values are seeded."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    specs = _CYCLES[workload](rng)
    return [Job(f"{cycle}.{i}", command, size, doc) for i, (command, size, doc) in enumerate(specs)]


def probe_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's known-defect probe: jobs the program answers wrongly
    when the benchmark was written.  Run once per run and reported apart
    from the timed jobs; empty for workloads without one."""
    probe = _PROBES.get(workload)
    if probe is None:
        return []
    specs = probe(random.Random(f"{workload}:{seed}:probe"))
    return [Job(f"probe.{i}", command, size, doc) for i, (command, size, doc) in enumerate(specs)]
