"""Benchmark for the polyvis command line.

    python3 bench/run.py --workload census --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; it benchmarks the polyvis sources in ../src. Workloads
(see workloads.py): census, euler, grid, queries, or all of them in turn.

--trace 0 (end to end): runs the workload's ops as fresh
`python -m polyvis ...` processes, one at a time from this process (closed
loop, one client), in passes over the op list until --seconds is used up.
A pass's wall time is the sum of each op's time from spawn to exit, so
checking between ops is excluded. It reports wall_s (median pass time),
setup_s (median time of a fresh interpreter that imports polyvis.cli,
timed three at a time before, between and after the passes) and
peak_rss_mb (largest ru_maxrss of any child, from os.wait4).

The host's speed drifts by up to +-20%, at times more, over tens of
seconds, so raw times spread over seeds by more than any bound a
regression check can use. wall_s and setup_s are therefore given at the
nominal host speed: after each op and each import a fixed pure-Python
loop is timed, and the time measured is scaled by
REFERENCE_NOMINAL_S / (that reference time; for a pass, the median over
its ops). The raw medians are printed beside them. This process and its
children are pinned to one CPU, so the loop runs where the ops ran.

--trace 1 (per layer): one untraced pass of child processes (for
proc.cpu_s and proc.start_s), then, until --seconds is used up, pairs of
in-process passes through polyvis.cli.main, untraced and then traced with
the span recorder of spans.py. Layer metrics are (low) medians over the
traced passes.

Every op of every pass is checked against its recorded answer
(answers.json); the first pass also runs the oracle checks of checks.py.
fail_rate is failed ops over attempted ops. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Children run
with LATTICE_SCOPE_CAP unset, PYTHONPATH set to ../src only, BLAS thread
counts at 1, and their --out files in a fresh directory under
../.bench_tmp that is deleted once the file is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
ANSWERS = Path(__file__).resolve().parent / "answers.json"
SETUP_PER_ROUND = 3
REFERENCE_LOOP = 300_000
REFERENCE_NOMINAL_S = 0.025  # the loop's time on the host these figures were tuned on
OP_TIMEOUT_S = 60.0

CHILD_ENV_FIXED = {
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_SCOPE_CAP"}
    env.update(CHILD_ENV_FIXED)
    return env


def use_child_env_here() -> None:
    """Give in-process runs and the oracles the children's polyvis and environment."""
    os.environ.pop("LATTICE_SCOPE_CAP", None)
    os.environ.update(CHILD_ENV_FIXED)
    sys.path.insert(0, str(SRC))


@dataclass
class Run:
    code: int
    stdout: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def spawn(argv: list[str], workdir: Path) -> Run:
    """Run one child to completion and reap it with os.wait4 for its rusage."""
    with open(workdir / "stdout", "wb+") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return Run(proc.returncode, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_child(argv: list[str], workdir: Path) -> Run:
    return spawn([sys.executable, "-m", "polyvis", *argv], workdir)


def run_in_process(argv: list[str], workdir: Path) -> Run:
    from polyvis import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return Run(code, buf.getvalue(), time.perf_counter() - start)


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)


def reference_s() -> float:
    """Time of a fixed pure-Python loop that no polyvis change can touch: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def run_pass(ops, runner, answers: dict, oracle_rng: random.Random | None = None) -> Pass:
    """One pass over ops; each op's output is checked, then its directory deleted."""
    SCRATCH.mkdir(exist_ok=True)
    result = Pass()
    for op in ops:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            out_path = Path(tmp) / "out.csv"
            run = runner(op.resolve(str(out_path)), Path(tmp))
            result.reference_s.append(reference_s())
            result.wall_s += run.wall_s
            result.cpu_s += run.cpu_s
            result.rss_mb = max(result.rss_mb, run.rss_mb)
            result.attempted += 1
            got = checks.observe(run.code, run.stdout, out_path if op.writes_out else None)
            problems = checks.compare(op, got, answers)
            if oracle_rng is not None:
                problems += checks.oracle(op, got, out_path if op.writes_out else None, oracle_rng)
            if problems:
                result.failures.append((op.key, problems))
    return result


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(import time, reference time right after it) for count fresh interpreters."""
    SCRATCH.mkdir(exist_ok=True)
    times = []
    for _ in range(count):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            run = spawn([sys.executable, "-c", "import polyvis.cli"], Path(tmp))
        if run.code != 0:
            raise SystemExit("error: a fresh interpreter cannot import polyvis.cli")
        times.append((run.wall_s, reference_s()))
    return times


def at_nominal_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference


def _time_left(started: float, seconds: float, next_pass_s: float) -> bool:
    return time.perf_counter() - started + next_pass_s <= seconds


def end_to_end(workload, seed: int, seconds: float, answers: dict):
    ops = workload.ops(seed)
    # Imports are timed in rounds between the passes, so that setup_s and
    # the passes sample the same stretch of time on a host whose speed drifts.
    setup = measure_setup(SETUP_PER_ROUND)
    started = time.perf_counter()
    passes = [run_pass(ops, run_child, answers, random.Random(f"oracle:{workload.name}:{seed}"))]
    setup += measure_setup(SETUP_PER_ROUND)
    while _time_left(started, seconds, max(p.wall_s for p in passes)):
        passes.append(run_pass(ops, run_child, answers))
        setup += measure_setup(SETUP_PER_ROUND)
    metrics = {
        "wall_s": statistics.median(at_nominal_speed(p.wall_s, statistics.median(p.reference_s)) for p in passes),
        "setup_s": statistics.median(at_nominal_speed(s, r) for s, r in setup),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    reference = statistics.median([r for p in passes for r in p.reference_s] + [r for _, r in setup])
    notes = {
        "wall_s": f"median of {len(passes)} passes of {len(ops)} ops"
        + ("; no higher percentile has ten samples beyond it" if len(passes) < 20 else "")
        + f"; raw median {statistics.median(p.wall_s for p in passes):.4f} s; reference {reference:.4f} s",
        "setup_s": f"median of {len(setup)} imports; raw median {statistics.median(s for s, _ in setup):.4f} s",
        "peak_rss_mb": f"max over {sum(p.attempted for p in passes)} children",
    }
    return passes, metrics, notes


def per_layer(workload, seed: int, seconds: float, answers: dict):
    ops = workload.ops(seed)
    started = time.perf_counter()
    child = run_pass(ops, run_child, answers, random.Random(f"oracle:{workload.name}:{seed}"))
    passes = [child]
    plain, traced, layers = [], [], []
    while not plain or _time_left(started, seconds, plain[-1].wall_s + traced[-1].wall_s):
        plain.append(run_pass(ops, run_in_process, answers))
        recorder = spans.Recorder()

        def run_traced(argv, workdir):
            recorder.begin_op()
            return run_in_process(argv, workdir)

        with recorder.installed():
            traced.append(run_pass(ops, run_traced, answers))
        layers.append(recorder.metrics())
    passes += plain + traced
    plain_s = statistics.median(p.wall_s for p in plain)
    # median_low keeps counts whole; they are the same in every traced pass
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["proc.cpu_s"] = child.cpu_s
    metrics["proc.start_s"] = child.wall_s - plain_s
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - plain_s
    notes = {"trace.overhead_s": f"{len(traced)} traced and {len(plain)} untraced in-process passes"}
    return passes, metrics, notes


def report(workload, seed: int, trace: int, passes, metrics: dict, notes: dict) -> dict:
    units = {n: spec[0] for n, spec in {**workloads.END_TO_END, **workloads.PER_LAYER}.items()}
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload {workload.name}  seed {seed}  trace {trace}: {workload.why}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_rate':34s} {len(failures) / attempted:14.6g} ratio  ({len(failures)} of {attempted} ops failed)")
    for key, problems in failures[:10]:
        print(f"  FAILED {key}: {'; '.join(problems)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyvis" / "cli.py").is_file() or not ANSWERS.is_file():
        print(f"error: {SRC / 'polyvis'} or {ANSWERS.name} is missing; run from a polyvis checkout", file=sys.stderr)
        return 2
    use_child_env_here()
    # One CPU for this process and every child, so that the reference loop
    # runs on the core the ops ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    answers = json.loads(ANSWERS.read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            measure = per_layer if args.trace else end_to_end
            passes, metrics, notes = measure(workload, args.seed, args.seconds, answers)
            result = report(workload, args.seed, args.trace, passes, metrics, notes)
            print(json.dumps(result), flush=True)
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
