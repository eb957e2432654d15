"""Output corpus: every command at the edges the validators accept, its bytes pinned.

Each group's documents are generated here from fixed seeds, so nothing large
is stored.  Every run goes through ``cli.main`` in process, with ``--csv``
where the command takes a document, and its record is the exit code, stdout,
stderr and CSV bytes.  ``corpus_sha256.json`` pins one sha256 per group over
its records, plus a short digest per run, so a mismatch names the runs that
changed.  Runs that exit 1, 2 or 3 are pinned like the others, so a changed
exit code shows.

A change that moves output on purpose rewrites the pins with
``PYTHONPATH=src python tests/test_corpus.py``, which prints the runs whose
digest moved; each one is a change to a check.  The slower tail (a 1e-6
grid, m = 1e5, a mixed-magnitude n = 1e4 selection) runs when
``ABSENTDRIVER_CORPUS_TAIL=1`` is set.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from absentdriver.cli import COMMANDS, main
from absentdriver.scenario import MAX_TRIALS, MIN_GRID_STEP, PRESETS

PINS = Path(__file__).with_name("corpus_sha256.json")
TAIL = os.environ.get("ABSENTDRIVER_CORPUS_TAIL") == "1"
MAX = sys.float_info.max
SEED_MAX = 2**64 - 1
# placeholders in an argv, replaced by paths in the run's directory
SCENARIO, CSV = "<scenario>", "<csv>"

STATIONARY = {"kind": "stationary", "alpha": 0.3}
COUNTING = {"kind": "counting"}
DRIVE_COMMANDS = ("eval", "optimize", "curve", "simulate")


def drive(exits, terminal, *strategies, **options):
    """A drive document; strategies are named ``s0``, ``s1``, ... in order."""
    doc = {"problem": {"kind": "drive", "exit_payoffs": list(exits), "terminal_payoff": terminal},
           "strategies": [{"name": f"s{i}", **s} for i, s in enumerate(strategies or (COUNTING,))]}
    if options:
        doc["options"] = options
    return doc


def selection(payoffs):
    return {"problem": {"kind": "selection", "destination_payoffs": list(payoffs)},
            "strategies": [{"name": "s", **COUNTING}]}


def stationary(alpha):
    return {"kind": "stationary", "alpha": alpha}


def per_step(probs):
    return {"kind": "per_step", "exit_probs": list(probs)}


def plan(terms, normalize=False):
    """A quantum plan from ``(bits, re)`` or ``(bits, re, im)`` tuples."""
    out = {"kind": "quantum", "terms": [dict(zip(("bits", "re", "im"), t)) for t in terms]}
    if normalize:
        out["normalize"] = True
    return out


def run(name, doc, command, *flags):
    """One run of ``command`` on ``doc``, with ``--csv``."""
    return name, [command, "--scenario", SCENARIO, *flags, "--csv", CSV], doc


def runs_of(name, doc, commands=DRIVE_COMMANDS):
    return [run(f"{name}/{command}", doc, command) for command in commands]


def decimals(rng, k, low=-10.0, high=10.0):
    """``k`` payoffs with three decimals."""
    return [round(rng.uniform(low, high), 3) for _ in range(k)]


def mixed(rng, k):
    """``k`` payoffs ``+-10**U(-3, 16)``: neighbours often differ by 1e19 in size."""
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 16.0) for _ in range(k)]


def random_strategies(rng, m):
    return (stationary(round(rng.random(), 3)), COUNTING,
            per_step([round(rng.random(), 3) for _ in range(m)]))


def presets():
    out = []
    for preset in sorted(PRESETS):
        for command in COMMANDS:
            out.append((f"{preset}/{command}", [command, "--preset", preset, "--csv", CSV], None))
    out.append(("example1/simulate-overrides",
                ["simulate", "--preset", "example1", "--trials", "777", "--seed", "0", "--csv", CSV],
                None))
    return out


def sizes():
    """m = 1 and m = 2000, and small random drives between them."""
    rng = random.Random(1)
    out = runs_of("m1", drive([2.5], -1.25, stationary(0.25), COUNTING, per_step([0.5]),
                              plan([("1", 0.6), ("0", 0.8)]), trials=1000))
    out += runs_of("m1-ket", drive([4.0], 1.0, plan([("0", 1)])))
    for seed in range(8):
        m = 1 + seed
        exits = decimals(rng, m)
        out += runs_of(f"m{m}-seed{seed}", drive(exits, decimals(rng, 1)[0], *random_strategies(rng, m),
                                                 trials=5000, seed=seed))
    exits = decimals(rng, 2000)
    out += runs_of("m2000", drive(exits, 1.5, *random_strategies(rng, 2000), trials=100_000))
    return out


def payoffs():
    """Payoffs at the float range's ends, subnormals, -0.0, mixed magnitudes, 3 decimals."""
    rng = random.Random(2)
    docs = {
        "max-min": ([MAX, -MAX], MAX),
        "max-all": ([MAX, MAX, MAX], MAX),
        "minus-max": ([-MAX], MAX),
        "near-max": ([1.7e308, -1.6e308, 1.0], 1.5e308),
        "subnormal": ([5e-324, -5e-324, 2.2250738585072014e-308], 1e-310),
        "subnormal-only": ([5e-324, 1e-323], 0.0),
        "negative-zero": ([-0.0, 0.0], -0.0),
        "zero-and-max": ([0.0, MAX], -0.0),
        "tiny-and-huge": ([1e-300, 1e300, -1e-300], 1.0),
    }
    for seed in range(4):
        docs[f"mixed-seed{seed}"] = (mixed(rng, 6), mixed(rng, 1)[0])
        docs[f"decimals-seed{seed}"] = (decimals(rng, 5, -1000.0, 1000.0), decimals(rng, 1)[0])
    out = []
    for name, (exits, terminal) in docs.items():
        doc = drive(exits, terminal, STATIONARY, COUNTING, per_step([0.5] * len(exits)),
                    trials=1000, seed=3, grid_step=0.25)
        out += runs_of(name, doc)
    return out


def alphas():
    """Stationary alpha and per-step probabilities of 0, -0.0 and 1, and optima at either end."""
    out = []
    edges = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 0.5]
    doc = drive([0.0, 4.0, 1.0], 1.0, *map(stationary, edges),
                per_step([0.0, -0.0, 1.0]), per_step([1.0, 0.0, 0.0]), per_step([-0.0, -0.0, -0.0]),
                trials=10_000, seed=5)
    out += runs_of("edges", doc, ("eval", "simulate"))
    out += runs_of("optimum-at-0", drive([0.0, 1.0, 2.0], 3.0))
    out += runs_of("optimum-at-1", drive([3.0, 2.0, 1.0], 0.0))
    out += runs_of("flat", drive([1.0, 1.0, 1.0], 1.0))
    out += runs_of("paper-example1", drive([0.0, 4.0], 1.0, stationary(1 / 3)))
    return out


def select():
    """n = 2 up to n = 1e4, at the same payoff edges as the drives."""
    rng = random.Random(3)
    docs = {
        "n2": [0.0, 4.0],
        "n2-equal": [2.5, 2.5],
        "n2-max": [MAX, -MAX],
        "n3-max": [MAX, -MAX, MAX],
        "n2-subnormal": [5e-324, -0.0],
        "n3-negative-zero": [-0.0, -0.0, 0.0],
        "paper-example": [0.0, 4.0, 1.0, 1.0],
        "concentrated": [10.0, 0.0, 0.0, 0.0],
        "n10000": decimals(rng, 10_000),
    }
    for seed in range(6):
        n = 2 + seed
        docs[f"n{n}-decimals-seed{seed}"] = decimals(rng, n)
        docs[f"n{n}-mixed-seed{seed}"] = mixed(rng, n)
    out = [run(name, selection(values), "select") for name, values in docs.items()]
    out.append(run("n3-uniform-flat", selection([7.0, 7.0, 7.0]), "select"))
    return out


def simulate():
    """trials 1 and MAX_TRIALS, seeds 0 and 2**64 - 1, every strategy kind, payoff offsets."""
    strategies = (STATIONARY, COUNTING, per_step([0.25, 0.5, 1.0]),
                  plan([("001", 1), ("110", 1), ("111", 1)], normalize=True))
    doc = drive([0.0, 4.0, 1.0], 1.0, *strategies)
    out = []
    for trials in ("1", "2", "65536", "65537", "1000000", str(MAX_TRIALS)):
        for seed in ("0", "1", str(SEED_MAX)):
            out.append(run(f"trials{trials}-seed{seed}", doc, "simulate",
                           "--trials", trials, "--seed", seed))
    out.append(run("options", drive([0.0, 4.0], 1.0, trials=MAX_TRIALS, seed=SEED_MAX), "simulate"))
    # payoffs near one large value, where a one-pass variance cancels
    for offset in (1.0, 1e8, 1e12, 1e15):
        out.append(run(f"offset{offset:g}", drive([offset, offset + 1.0], offset), "simulate",
                       "--trials", "1000000", "--seed", "1"))
    out.append(run("max-min", drive([MAX], -MAX, per_step([0.5])), "simulate",
                   "--trials", "2", "--seed", "0"))
    rng = random.Random(4)
    for seed in range(3):
        out.append(run(f"mixed-seed{seed}", drive(mixed(rng, 8), mixed(rng, 1)[0], COUNTING, STATIONARY),
                       "simulate", "--trials", "100000", "--seed", str(seed)))
    return out


def curve():
    """grid_step 1, a fine step, steps that do not divide 1, and the flag against the option."""
    doc = drive([0.0, 4.0, 1.0], 1.0)
    out = []
    for step in ("1", "0.5", "0.3", "0.05", "0.001", "0.0001"):
        out.append(run(f"step{step}", doc, "curve", "--grid-step", step))
    out.append(run("option-step", drive([MAX, -MAX], MAX, grid_step=0.125), "curve"))
    out.append(run("int-step", drive([1.0, -1.0], 0.5, grid_step=1), "curve"))
    out.append(run("mixed", drive(mixed(random.Random(5), 6), 1e-3), "curve", "--grid-step", "0.01"))
    return out


def quantum():
    """Plans of one ket, of 1024 qubits, and normalized from 1e300 and 1e-300."""
    m = 1024
    plans = {
        "one-ket": (3, [plan([("110", 1)])]),
        "one-ket-terminal": (3, [plan([("111", -1)])]),
        "bell": (2, [plan([("01", 1), ("10", 1)], normalize=True)]),
        "phases": (2, [plan([("01", 0, 1), ("10", 0, -1)], normalize=True)]),
        "near-norm": (2, [plan([("01", 0.7071068), ("10", 0.7071068)])]),
        "huge": (3, [plan([("001", 1e300), ("110", 1e300, 1e300)], normalize=True)]),
        "tiny": (3, [plan([("001", 1e-300), ("011", 3e-300), ("111", 5e-324)], normalize=True)]),
        "max-amplitude": (2, [plan([("00", MAX), ("11", -MAX)], normalize=True)]),
        "w8": (8, [plan([("0" * i + "1" + "0" * (7 - i), 8 - i) for i in range(8)], normalize=True)]),
        "ket1024": (m, [plan([("1" * (m - 1) + "0", 1)])]),
        "ghz1024": (m, [plan([("0" * m, 0.6), ("1" * m, 0, 0.8)])]),
        "counting1024": (m, [plan([("1" * i + "0" + "1" * (m - 1 - i), 1) for i in range(0, m, 97)]
                                  + [("1" * m, 1)], normalize=True)]),
    }
    rng = random.Random(6)
    out = []
    for name, (width, strategies) in plans.items():
        doc = drive(decimals(rng, width), 1.0, *strategies, trials=10_000, seed=9)
        out += runs_of(name, doc, ("eval", "simulate", "optimize"))
    return out


def failures():
    """Runs that exit 1, 2 or 3 today."""
    base = drive([0.0, 4.0], 1.0)
    out = [
        run("optimize-overflow", drive([1e308, -1e308], 1e308), "optimize"),
        run("select-overflow", selection([MAX, -MAX, MAX, -MAX]), "select"),
        run("ragged-plan", drive([0.0, 4.0], 1.0, plan([("01", 1), ("1", 1)])), "eval"),
        run("plan-width", drive([0.0, 4.0], 1.0, plan([("011", 1)])), "eval"),
        run("plan-norm", drive([0.0, 4.0], 1.0, plan([("01", 1), ("10", 1)])), "eval"),
        run("plan-zero", drive([0.0, 4.0], 1.0, plan([("01", 0)], normalize=True)), "eval"),
        run("plan-duplicate", drive([0.0, 4.0], 1.0, plan([("01", 0.6), ("01", 0.8)])), "eval"),
        run("plan-empty", drive([0.0, 4.0], 1.0, plan([])), "eval"),
        run("plan-bad-bits", drive([0.0, 4.0], 1.0, plan([("0x", 1)])), "eval"),
        run("alpha-above-1", drive([0.0], 1.0, stationary(1.5)), "eval"),
        run("alpha-negative", drive([0.0], 1.0, stationary(-1e-300)), "eval"),
        run("per-step-length", drive([0.0, 4.0], 1.0, per_step([0.5])), "eval"),
        run("payoff-1e400", '{"problem": {"kind": "drive", "exit_payoffs": [1e400], "terminal_payoff": 0},'
            ' "strategies": [{"name": "c", "kind": "counting"}]}', "eval"),
        run("payoff-nan", '{"problem": {"kind": "drive", "exit_payoffs": [NaN], "terminal_payoff": 0},'
            ' "strategies": [{"name": "c", "kind": "counting"}]}', "eval"),
        run("bad-json", '{"problem": ', "eval"),
        run("no-exits", drive([], 1.0), "eval"),
        run("one-destination", selection([1.0]), "select"),
        run("select-on-drive", base, "select"),
        run("eval-on-selection", selection([0.0, 4.0]), "eval"),
        run("trials-0", base, "simulate", "--trials", "0"),
        run("trials-above-max", base, "simulate", "--trials", str(MAX_TRIALS + 1)),
        run("seed-negative", base, "simulate", "--seed", "-1"),
        run("seed-2**64", base, "simulate", "--seed", str(2**64)),
        run("grid-step-0", base, "curve", "--grid-step", "0"),
        run("grid-step-below-min", base, "curve", "--grid-step", repr(MIN_GRID_STEP / 2)),
        run("grid-step-2", base, "curve", "--grid-step", "2"),
        run("option-trials-float", drive([0.0], 1.0, trials=1.5), "simulate"),
        run("option-unknown", drive([0.0], 1.0, trails=5), "simulate"),
        ("usage-no-command", [], None),
        ("usage-eval-trials", ["eval", "--preset", "example1", "--trials", "5"], None),
        ("usage-trials-text", ["simulate", "--preset", "example1", "--trials", "many"], None),
        ("usage-no-source", ["eval"], None),
        ("usage-unknown-preset", ["eval", "--preset", "nosuch"], None),
    ]
    return out


def tail_curve():
    return [("example1/curve-fine", ["curve", "--preset", "example1", "--grid-step", repr(MIN_GRID_STEP),
                                     "--csv", CSV], None),
            run("decimals/curve-fine", drive(decimals(random.Random(7), 8), 1.0), "curve",
                "--grid-step", repr(MIN_GRID_STEP))]


def tail_sizes():
    rng = random.Random(8)
    m = 100_000
    doc = drive(decimals(rng, m), 1.5, stationary(0.001), COUNTING, trials=MAX_TRIALS)
    out = runs_of("m100000", doc, ("eval", "simulate", "curve"))
    out.append(run("n10000-mixed", selection(mixed(rng, 10_000)), "select"))
    return out


GROUPS = {"presets": presets, "sizes": sizes, "payoffs": payoffs, "alphas": alphas,
          "select": select, "simulate": simulate, "curve": curve, "quantum": quantum,
          "failures": failures}
TAIL_GROUPS = {"tail-curve": tail_curve, "tail-sizes": tail_sizes}


def records(group, directory):
    """``{run name: record}``: each record the JSON of ``[exit code, stdout, stderr, csv]``."""
    scenario, csv = Path(directory, "scenario.json"), Path(directory, "out.csv")
    out = {}
    for name, argv, doc in (GROUPS | TAIL_GROUPS)[group]():
        assert name not in out, name
        if doc is not None:
            scenario.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        csv.unlink(missing_ok=True)
        argv = [str(scenario) if a == SCENARIO else str(csv) if a == CSV else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = csv.read_text(encoding="utf-8") if csv.exists() else None
        out[name] = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written]).encode()
    return out


def pins(recorded):
    """The group's sha256 over every run's name and record, and a short digest per run."""
    group = hashlib.sha256()
    for name, record in recorded.items():
        group.update(name.encode() + b"\0" + record + b"\0")
    return {"sha256": group.hexdigest(),
            "runs": {name: hashlib.sha256(record).hexdigest()[:16] for name, record in recorded.items()}}


def changed_runs(got, pinned):
    """Runs whose digest moved, and runs added or removed."""
    names = got["runs"].keys() | pinned["runs"].keys()
    return sorted(n for n in names if got["runs"].get(n) != pinned["runs"].get(n))


PINNED = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def test_every_group_pinned():
    assert set(PINNED) == set(GROUPS) | set(TAIL_GROUPS)


@pytest.mark.parametrize("group", sorted(TAIL_GROUPS) if TAIL else sorted(GROUPS))
def test_group_bytes_pinned(group, tmp_path):
    got = pins(records(group, tmp_path))
    if got["sha256"] != PINNED[group]["sha256"]:
        changed = changed_runs(got, PINNED[group])
        pytest.fail(f"group {group}: {len(changed)} run(s) changed: {', '.join(changed)}")


if __name__ == "__main__":
    updated = {}
    with tempfile.TemporaryDirectory() as directory:
        for group in sorted(GROUPS | TAIL_GROUPS):
            updated[group] = pins(records(group, directory))
            if group in PINNED and updated[group]["sha256"] != PINNED[group]["sha256"]:
                for name in changed_runs(updated[group], PINNED[group]):
                    print(f"{group}: {name}")
    PINS.write_text(json.dumps(updated, indent=1, sort_keys=True) + "\n", encoding="utf-8")
