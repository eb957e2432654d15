"""absentdriver benchmark: seeded CLI jobs in a closed loop, checked against a reference.

Run from the repository root::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One client runs the workload's generated scenario jobs one after another
through ``absentdriver.cli.main(argv)`` in this process (closed loop, one
thread), each reading a scenario file written for it.  Every job's stdout is
checked by ``reference.py``.  Jobs run in whole cycles of fixed composition
until at least ``--seconds`` of job time and at least ``MIN_JOBS`` jobs are
done.  After the loop, the workload's known-defect probe (jobs the program
answered wrongly when the benchmark was written) runs once, untimed; its
failures are printed and reported as ``probe.*`` metrics, apart from the
``correct``/``attempted``/``failed`` of the timed jobs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced and
untraced cycles alternately, reports per-layer metrics from the traced ones,
the tracing overhead, and the size sweeps of ``sweep.py``.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it list every metric with its unit, the failing jobs and
the run's metadata.  Spans and a full report go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import JOB_SPAN, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Enough jobs that p90 has at least ten samples beyond it.
MIN_JOBS = 100
# No new cycle starts after this much wall time, so a run ends in time even
# when the program gets much slower.
WALL_CAP_S = 110.0

# Import probes and CLI processes per run (each a fresh interpreter).
SAMPLES = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import absentdriver; "
                "print(repr(time.perf_counter() - t))")
CLI_ENTRY = "import sys; from absentdriver.cli import main; sys.exit(main())"
# CLI process sample: the first three cycle-0 jobs of one (command, size)
# class, taken in turn; one class keeps the median from jumping between sizes.
CLI_SAMPLE = {
    "exact": ("optimize", "m=8"),
    "quantum": ("eval", "q=20"),
    "montecarlo": ("simulate", "m=8"),
}
# Traced runs do a fixed amount of work, so per-layer totals and counts
# compare across commits: round(seconds / nominal cycle time) cycles.
TRACE_CYCLE_S = {"exact": 1.0, "quantum": 1.1, "montecarlo": 2.7}

END_TO_END = (
    ("setup_s", "s"), ("cli_process_s", "s"), ("jobs_per_s", "1/s"), ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"), ("success_rate", "ratio"), ("peak_rss_mb", "MB"),
)
# Printed for every workload but not gated: each is 0 on some workload.
END_TO_END_INFO = (("error_rate", "ratio"), ("trials_per_s", "1/s"))


@dataclass
class JobResult:
    job_id: str
    command: str
    size: str
    seconds: float
    problems: list[str]
    trials: int = 0
    max_z: float = 0.0
    traced: bool = False


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "absentdriver").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


# -- jobs -------------------------------------------------------------------


def _trials(job) -> int:
    if job.command != "simulate":
        return 0
    return job.doc.get("options", {}).get("trials", 0) * len(job.doc["strategies"])


def _write_jobs(jobs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = directory / f"{job.job_id}.json"
        path.write_text(job.text(), encoding="utf-8")
        paths[job.job_id] = path
    return paths


def _judge(job, code, stdout: str, stderr: str, reference) -> tuple[list[str], float]:
    if code != 0:
        first = stderr.strip().splitlines()[:1]
        return [f"exit {code}: {first[0] if first else ''}"], 0.0
    return reference.check(job.command, job.doc, stdout)


def run_job(cli_main, job, path, reference, tracer=None) -> JobResult:
    """One in-process CLI call, timed around ``main(argv)`` only."""
    out, err = io.StringIO(), io.StringIO()
    argv = [job.command, "--scenario", str(path)]
    code = None
    if tracer is not None:
        tracer.install()
        tracer.job = job.job_id
        span = tracer.open(JOB_SPAN)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span, code == 0)
        tracer.uninstall()
    problems, max_z = _judge(job, code, out.getvalue(), err.getvalue(), reference)
    return JobResult(job.job_id, job.command, job.size, seconds, problems, _trials(job), max_z,
                     traced=tracer is not None)


def run_cycles(workload, seed, cli_main, reference, keep_going, tracer=None,
               before_cycle=None) -> list[list[JobResult]]:
    """Run whole cycles while ``keep_going(cycle, results)``; returns results per cycle.

    With a tracer, every other job is traced, alternating by cycle, so traced
    and untraced jobs share host conditions and each job position runs both
    ways over two cycles.
    """
    cycles: list[list[JobResult]] = []
    results: list[JobResult] = []
    loop_start = time.perf_counter()
    while keep_going(len(cycles), results) and time.perf_counter() - loop_start < WALL_CAP_S:
        if before_cycle is not None:
            before_cycle(sum(r.seconds for r in results))
        cycle = len(cycles)
        jobs = workloads.cycle_jobs(workload, seed, cycle)
        paths = _write_jobs(jobs, WORK)
        try:
            done = [run_job(cli_main, job, paths[job.job_id], reference,
                            tracer if tracer is not None and (i + cycle) % 2 == 0 else None)
                    for i, job in enumerate(jobs)]
        finally:
            for path in paths.values():
                path.unlink()
        cycles.append(done)
        results += done
    return cycles


# -- subprocess measurements -----------------------------------------------


def run_probe(workload, seed, cli_main, reference, tracer=None) -> list[JobResult]:
    """Run the known-defect probe once; every job traced when ``tracer`` is given."""
    jobs = workloads.probe_jobs(workload, seed)
    paths = _write_jobs(jobs, WORK / "probe")
    try:
        return [run_job(cli_main, job, paths[job.job_id], reference, tracer) for job in jobs]
    finally:
        for path in paths.values():
            path.unlink()


class ProcessSampler:
    """Fresh-interpreter measurements spread over the closed loop.

    One ``import absentdriver`` probe and one real CLI process are taken every
    ``interval`` seconds of job time (and topped up at the end), so they see
    the same host conditions as the loop instead of one moment of the run.
    The CLI sample is three cycle-0 jobs of the ``CLI_SAMPLE`` class, taken
    in turn.
    """

    def __init__(self, workload, seed, reference, interval: float):
        jobs = workloads.cycle_jobs(workload, seed, 0)
        self.jobs = [j for j in jobs if (j.command, j.size) == CLI_SAMPLE[workload]][:3]
        self.paths = _write_jobs(self.jobs, WORK / "cli")
        self.reference = reference
        self.interval = interval
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.results: list[JobResult] = []

    def due(self, busy: float) -> None:
        while len(self.setup) < SAMPLES and busy >= len(self.setup) * self.interval:
            self.take()

    def finish(self) -> None:
        while len(self.setup) < SAMPLES:
            self.take()

    def take(self) -> None:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        self.setup.append(float(proc.stdout.strip().splitlines()[-1]))

        job = self.jobs[len(self.cli) % len(self.jobs)]
        argv = [sys.executable, "-c", CLI_ENTRY, job.command, "--scenario",
                str(self.paths[job.job_id])]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=120)
        seconds = time.perf_counter() - start
        self.cli.append(seconds)
        problems, max_z = _judge(job, proc.returncode, proc.stdout, proc.stderr, self.reference)
        self.results.append(JobResult(f"cli-{job.job_id}", job.command, job.size, seconds,
                                      problems, _trials(job), max_z))


def run_sweep() -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "sweep.py")], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[float, int]:
    """p90, or the highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    q = 90
    while q > 50 and n * (100 - q) / 100.0 < 10:
        q -= 1
    return percentile(values, q), q


def failure_report(results: list[JobResult]) -> list[str]:
    lines = []
    by_command = Counter(r.command for r in results)
    failed_by_command = Counter(r.command for r in results if r.problems)
    for command in sorted(by_command):
        lines.append(f"  {command:<9} {failed_by_command[command]:>5} failed of {by_command[command]}")
    groups = defaultdict(list)
    for r in results:
        if r.problems:
            groups[(r.command, r.size)].append(r)
    for (command, size), rs in sorted(groups.items()):
        ids = ", ".join(r.job_id for r in rs[:8]) + (" ..." if len(rs) > 8 else "")
        lines.append(f"  FAIL {command} {size}: {len(rs)} jobs [{ids}]: {rs[0].problems[0]}")
    return lines


def end_to_end(results, setup, cli_times) -> tuple[dict, list[str]]:
    latencies = [r.seconds * 1000.0 for r in results]
    busy = sum(r.seconds for r in results)
    failed = sum(1 for r in results if r.problems)
    sim = [r for r in results if r.trials]
    tail, q = tail_percentile(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "cli_process_s": statistics.median(cli_times),
        "jobs_per_s": len(results) / busy,
        "job_ms.p50": percentile(latencies, 50),
        "job_ms.p90": tail,
        "success_rate": 1.0 - failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / len(results),
        "trials_per_s": sum(r.trials for r in sim) / sum(r.seconds for r in sim) if sim else 0.0,
    }
    beyond = sum(1 for x in latencies if x > tail)
    notes = [
        f"setup_s: median of {len(setup)} fresh-interpreter imports",
        f"cli_process_s: median of {len(cli_times)} CLI processes",
        f"job_ms: {len(latencies)} samples; tail is p{q} with {beyond} samples beyond it",
        "trials_per_s: no simulate jobs in this workload" if not sim else
        f"trials_per_s: {len(sim)} simulate jobs",
    ]
    if q != 90:
        notes.append(f"job_ms.p90 holds p{q}: p90 had fewer than ten samples beyond it")
    return values, notes


def bound_violations(optimizer_results, reference) -> float:
    """Share of optimizer results above the payoff bound or off the product form."""
    violations = 0
    for kind, payoffs, alpha, payoff, _ in optimizer_results:
        objective = (reference.drive_objective if kind == "drive"
                     else reference.selection_objective)(payoffs)
        violations += bool(reference.bound_problems(kind, alpha, payoff, objective))
    return violations / len(optimizer_results) if optimizer_results else 0.0


def per_layer(tracer, cycles, reference, sweep, probe, probe_tracer) -> dict:
    values = summarize(tracer)
    results = [r for done in cycles for r in done]
    checked = tracer.optimizer_results
    values["optimize.numeric_share"] = (
        sum(1 for *_, method in checked if method == "numeric") / len(checked) if checked else 0.0)
    values["optimize.bound_violations"] = bound_violations(checked, reference)
    values["simulate.max_abs_z"] = max((r.max_z for r in results), default=0.0)

    # Cycle 0 pays the cold caches; leave it out of the comparison.
    warm = [r for done in cycles[1:] for r in done]

    def rate(selected):
        return len(selected) / sum(r.seconds for r in selected)

    values["trace.base_jobs_per_s"] = rate([r for r in warm if not r.traced])
    values["trace.overhead"] = rate([r for r in warm if r.traced]) / values["trace.base_jobs_per_s"]
    values.update(sweep["metrics"])
    values["sweep.failures"] = len(sweep["failures"])
    values["probe.failed"] = sum(1 for r in probe if r.problems)
    values["probe.bound_violations"] = bound_violations(probe_tracer.optimizer_results, reference)
    return values


PER_LAYER_UNITS = {
    "calls": "count", "failures": "count", "polynomial_calls": "count",
    "residual_problems": "count", "amplitudes": "count", "table_bytes": "bytes.computed",
    "trials": "count", "blocks": "count", "trials_per_s": "1/s", "max_abs_z": "sigma",
    "numeric_share": "ratio", "bound_violations": "ratio", "overhead": "ratio",
    "base_jobs_per_s": "1/s",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(last, "s" if last == "s" or last.endswith("_s") else "count")


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    if not (SRC / "absentdriver" / "cli.py").is_file():
        return _fail(f"no package source at {SRC / 'absentdriver'}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import absentdriver
        from absentdriver.cli import main as cli_main
    except ImportError as exc:
        return _fail(f"cannot import the package under test: {exc}")
    if SRC.resolve() not in Path(absentdriver.__file__).resolve().parents:
        return _fail(f"imported absentdriver from {absentdriver.__file__}, not from {SRC}")

    import numpy as np

    import reference

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": _source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_start = time.perf_counter()
    try:
        if args.trace == 0:
            sampler = ProcessSampler(args.workload, args.seed, reference, args.seconds / SAMPLES)
            cycles = run_cycles(
                args.workload, args.seed, cli_main, reference,
                lambda c, rs: c == 0 or sum(r.seconds for r in rs) < args.seconds
                or len(rs) < MIN_JOBS, before_cycle=sampler.due)
            sampler.finish()
            results = [r for done in cycles for r in done]
            values, notes = end_to_end(results, sampler.setup, sampler.cli)
            probe = run_probe(args.workload, args.seed, cli_main, reference)
            units = dict(END_TO_END + END_TO_END_INFO)
            reported = [name for name, _ in END_TO_END]
            checked = results + sampler.results
        else:
            tracer = Tracer()
            # An odd count, so cycles 1.. run every job position traced and untraced.
            n_cycles = max(3, round(args.seconds / TRACE_CYCLE_S[args.workload]) | 1)
            cycles = run_cycles(args.workload, args.seed, cli_main, reference,
                                lambda c, rs: c < n_cycles, tracer)
            if len(cycles) < 3:
                return _fail("traced run needs at least three cycles; it hit the wall-time cap")
            probe_tracer = Tracer()
            probe = run_probe(args.workload, args.seed, cli_main, reference, probe_tracer)
            sweep = run_sweep()
            values = per_layer(tracer, cycles, reference, sweep, probe, probe_tracer)
            units = {name: layer_unit(name) for name in values}
            reported = list(values)
            checked = [r for done in cycles for r in done]
            notes = [f"{len(cycles)} cycles, every other job traced; per-layer metrics cover "
                     f"{sum(r.traced for r in checked)} traced jobs; trace.overhead = traced / "
                     "untraced jobs_per_s over cycles 1..",
                     f"{len(tracer.spans)} spans"]
            notes += [f"sweep failure: {line}" for line in sweep["failures"]]
            tracer.write(OUT / f"spans-{stem}.jsonl", run_start)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum(1 for r in checked if r.problems)
    print(f"absentdriver benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key in ("python", "numpy", "nproc", "affinity", "commit", "source_sha256"):
        print(f"  {key}: {meta[key]}")
    print("metrics:")
    for name in (reported if args.trace else [n for n, _ in END_TO_END + END_TO_END_INFO]):
        print(f"  {name:<44} {values[name]!r} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    print(f"jobs: {len(checked)} checked, {failed} failed")
    for line in failure_report(checked):
        print(line)
    probe_failed = [r for r in probe if r.problems]
    if probe:
        print(f"known-defect probe: {len(probe_failed)} of {len(probe)} jobs wrong "
              "(run once, untimed; not in correct/attempted/failed)")
        for line in failure_report(probe):
            print(line)

    report = {
        "meta": meta, "metrics": {n: {"value": values[n], "unit": units[n]} for n in values},
        "notes": notes, "attempted": len(checked), "failed": failed,
        "failures": [{"job": r.job_id, "command": r.command, "size": r.size,
                      "problems": r.problems} for r in checked if r.problems],
        "probe_failures": [{"job": r.job_id, "command": r.command, "size": r.size,
                            "problems": r.problems} for r in probe_failed],
        "jobs": [[r.job_id, r.command, r.size, r.seconds] for r in checked],
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checked), "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
