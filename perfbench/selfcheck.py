"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, in about half a minute:

* ``BENCHMARK.json`` keeps to its schema's limits;
* one seed reproduces an identical job list, and another seed changes it;
* the reference accepts known-right output and rejects known-wrong output;
* a tiny run of ``run.py`` (both ``--trace`` modes, workload ``exact``)
  prints a last line with exactly the required keys, and every metric of
  ``BENCHMARK.json`` with its unit, and reports the known-defect probe.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

# Metrics perfbench/README.md promises, per run mode.
REQUIRED = {
    0: ("setup_s", "cli_process_s", "jobs_per_s", "job_ms.p50", "job_ms.p90", "success_rate",
        "peak_rss_mb"),
    1: ("scenario.parse_s", "scenario.calls", "classical.polynomial_s",
        "classical.polynomial_calls", "classical.distribution_s", "optimize.s", "optimize.calls",
        "optimize.numeric_share", "optimize.bound_violations", "selection.s", "selection.calls",
        "selection.residual_problems", "quantum.build_s", "quantum.table_s",
        "quantum.distribution_s", "quantum.amplitudes", "quantum.table_bytes", "simulate.s",
        "simulate.trials", "simulate.blocks", "simulate.trials_per_s", "simulate.max_abs_z",
        "cli.self_s", "trace.overhead", "sweep.optimize.stationary.m200_s",
        "sweep.simulate.classical_m8.t1e6_s", "sweep.simulate.quantum_t1e6.q20_s",
        "sweep.quantum.product_state.q20_s", "sweep.quantum.first_zero_cold.q20_s",
        "sweep.quantum.first_zero_warm.q20_s", "probe.failed", "probe.bound_violations"),
}
# Printed on the report lines (not in the last line) on every workload.
PRINTED_ONLY = ("error_rate", "trials_per_s")


def check_benchmark_json(errors: list[str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for item in spec["workloads"]:
        names.append(item["name"])
        if set(item) != {"name", "why"} or len(item["why"]) > 200 or "\n" in item["why"]:
            errors.append(f"workload entry {item}")
    for section, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for item in spec[section]:
            names.append(item["name"])
            if set(item) != fields or not UNIT.match(item["unit"]) or \
                    item["better"] not in ("lower", "higher"):
                errors.append(f"{section} entry {item}")
            if section == "end_to_end" and not 0 < item["bound"] <= 0.25:
                errors.append(f"bound of {item['name']}")
    errors += [f"bad or repeated name {n!r}" for n in names
               if not NAME.match(n) or names.count(n) > 1]
    setup = [i for i in spec["end_to_end"] if i["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] != max(i["bound"] for i in spec["end_to_end"]):
        errors.append("setup_s must be in s, lower is better, with the largest bound")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds")
    return spec


def check_job_lists(errors: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    for name in workloads.WORKLOADS:
        first = [j.text() for j in workloads.cycle_jobs(name, 11, 0)]
        again = [j.text() for j in workloads.cycle_jobs(name, 11, 0)]
        other = [j.text() for j in workloads.cycle_jobs(name, 12, 0)]
        if first != again:
            errors.append(f"{name}: one seed gave two job lists")
        if first == other:
            errors.append(f"{name}: seeds 11 and 12 gave the same job list")


def check_reference(errors: list[str]) -> None:
    import reference

    doc = {"problem": {"kind": "drive", "exit_payoffs": [0, 4], "terminal_payoff": 1},
           "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.5}]}
    good = "optimum: alpha* = 0.333333333333 (1/3), payoff = 1.33333333333 (4/3), method = x"
    bad = good.replace("1.33333333333 (4/3)", "1.5 (3/2)")
    if reference.check("optimize", doc, good)[0]:
        errors.append(f"reference rejects the right optimum: {reference.check('optimize', doc, good)}")
    if not reference.check("optimize", doc, bad)[0]:
        errors.append("reference accepts a wrong optimum")
    sel = {"problem": {"kind": "selection", "destination_payoffs": [0, 4, 1, 1]},
           "strategies": [{"name": "s", "kind": "stationary", "alpha": 0.5}]}
    text = ("---\n1\n2\n3\n4\n\nstationary optimum: alpha* = 0.5 (1/2), payoff = 2.875 (23/8)\n"
            "counting average total: 3\ncounting improvement over optimized stationary: 0.125")
    if reference.check("select", sel, text)[0]:
        errors.append(f"reference rejects the right selection: {reference.check('select', sel, text)}")


def check_run(spec: dict, trace: int, errors: list[str]) -> None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "exact", "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        errors.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: last-line keys {sorted(result)}")
    if not isinstance(result["correct"], bool) or not isinstance(result["attempted"], int) \
            or result["attempted"] < 1 or not isinstance(result["failed"], int):
        errors.append(f"trace {trace}: correct/attempted/failed malformed")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {item["name"]: item["unit"] for item in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"trace {trace}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                      f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            errors.append(f"trace {trace}: metric {name} malformed")
    errors += [f"trace {trace}: {name} not reported" for name in REQUIRED[trace] if name not in got]
    if trace == 0:
        errors += [f"{name} not printed" for name in PRINTED_ONLY
                   if not any(line.split()[:1] == [name] for line in lines)]
        if not any(line.startswith("known-defect probe:") for line in lines):
            errors.append("exact: known-defect probe not reported")


def main() -> int:
    errors: list[str] = []
    spec = check_benchmark_json(errors)
    check_job_lists(errors)
    check_reference(errors)
    for trace in (0, 1):
        check_run(spec, trace, errors)
    for line in errors:
        print(f"FAIL {line}")
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
