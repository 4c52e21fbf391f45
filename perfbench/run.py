#!/usr/bin/env python3
"""Benchmark of the spinshield command line on three workloads.

    python3 perfbench/run.py --workload default_serial --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and driven in-process through `spinshield.cli.main`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a separate serial traced run.  Every run's output passes the gate in
`gate.py`.  The last stdout line is one JSON object; a copy with the run
environment goes to `.perfbench/BENCH_<workload>_seed<seed>_trace<t>.json`.
See NOTES.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULT_DIR = ROOT / ".perfbench"

# Pool workers plus BLAS threads must stay within the usable cores, and
# numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

import gate
from tracer import Tracer

NPROC = len(os.sched_getaffinity(0))
MIN_REPS = 3
SETUP_REPS = 9
DEFAULT_TWO_S = (2, 4, 10, 20, 40, 100, 200, 400, 1000)

END_TO_END = {
    "wall_s": "s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sweep.trial_seed.self_s": "s",
    "sweep.trial_rng.self_s": "s",
    "sweep.trial_rng.calls": "count",
    "sweep.summarize.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.draw_reuse": "ratio",
    "sweep.parallel_efficiency": "ratio",
    "model.sample_coefficients.self_s": "s",
    "model.sample_coefficients.calls": "count",
    "model.CoefficientSet.self_s": "s",
    "model.CoefficientSet.bytes": "bytes_computed",
    "model.normalization.self_s": "s",
    "closedform.branch_sums.self_s": "s",
    "closedform.branch_sums.us_per_call.m11": "us",
    "closedform.branch_sums.us_per_call.m1001": "us",
    "closedform.branch_sums.us_per_call.m100001": "us",
    "closedform.evaluate.self_s": "s",
    "closedform.evaluate.calls": "count",
    "closedform.concurrence_closed.self_s": "s",
    "closedform.one_tangle_closed.self_s": "s",
    "closedform.monogamy_slack.self_s": "s",
    "oracle.assemble_state.self_s": "s",
    "oracle.assemble_state.calls": "count",
    "oracle.reduce.self_s": "s",
    "oracle.wootters_concurrence.self_s": "s",
    "oracle.one_tangle.self_s": "s",
    "oracle.separability_structure_check.self_s": "s",
    "oracle.crosscheck_fraction": "ratio",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; sweeps carry the grid the gate expects."""

    name: str
    argv: tuple[str, ...]
    workers: int
    two_s: tuple[int, ...] = ()
    n: tuple[int, ...] = ()
    trials: int = 0
    cases: int = 0

    @property
    def is_sweep(self) -> bool:
        return bool(self.two_s)

    @property
    def results(self) -> int:
        """Per-trial results one run delivers: rows x trials, or families x cases."""
        if self.is_sweep:
            return len(self.two_s) * len(self.n) * self.trials
        return len(gate.VERIFY_FAMILIES) * self.cases


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline run, bound by per-trial Python overhead at small m.
        Workload("default_serial", ("sweep",), 1, DEFAULT_TWO_S, (1, 2, 3), 200),
        # Same closed-form and model code at m = 100001; 3 tasks on every core.
        Workload(
            "large_spin",
            ("sweep", "--two-s", "100000", "--n", "1,2,3", "--trials", "20"),
            NPROC, (100000,), (1, 2, 3), 20,
        ),
        # The only oracle-bound run; a multiple of 32 cases hits each size 1..32 equally.
        Workload("verify_dense", ("verify", "--two-s-max", "32", "--cases", "64"), 1, cases=64),
    )
}


class SourceMissing(RuntimeError):
    pass


def load_cli():
    """spinshield.cli imported from this checkout's src/, never from elsewhere."""
    if not (SRC / "spinshield" / "__init__.py").is_file():
        raise SourceMissing(f"no spinshield package under {SRC.name}/ in {ROOT}")
    sys.path.insert(0, str(SRC))
    import spinshield.cli

    if Path(spinshield.cli.__file__).resolve().parent != SRC / "spinshield":
        raise SourceMissing(f"spinshield was imported from {spinshield.cli.__file__}")
    return spinshield.cli


class Runner:
    """Runs one workload in-process and gates every run's output."""

    def __init__(self, cli, workload: Workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = RESULT_DIR / "work" / f"{workload.name}-{os.getpid()}"
        self.reference = (
            gate.reference_rows(workload.two_s, workload.n, workload.trials, seed)
            if workload.is_sweep else None
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0

    def run(self, workers: int, tracer: Tracer | None = None) -> float:
        """One gated CLI run; returns its wall seconds."""
        w = self.workload
        argv = [*w.argv, "--seed", str(self.seed)]
        if w.is_sweep:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir.mkdir(parents=True)
            argv += ["--out", str(self.work_dir)]
        os.environ["SPINSHIELD_WORKERS"] = str(workers)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            start = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()}"]
        if w.is_sweep:
            problems += gate.check_sweep(
                self.work_dir, self.reference, w.two_s, w.n, w.trials, self.seed
            )
            files = sum(p.stat().st_size for p in self.work_dir.iterdir())
        else:
            problems += gate.check_verify(out.getvalue(), w.cases)
            files = 0
        self.output_bytes = files + len(out.getvalue().encode())
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return wall

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import spinshield and spinshield.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    cmd = [sys.executable, "-c", "import spinshield, spinshield.cli"]
    times = []
    for i in range(SETUP_REPS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        if i:  # the first run may write the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def branch_sums_us(seed: int) -> dict[str, float]:
    """Median microseconds per branch_sums call at the ROADMAP's three sizes."""
    import spinshield as ss

    c = (0j, 0j, complex(2**-0.5), complex(2**-0.5))
    result = {}
    for m, reps in ((11, 2000), (1001, 300), (100001, 9)):
        two_s = m - 1
        x_max = ss.x_max_schedule(two_s, 1)
        cs = ss.sample_coefficients(
            ss.SpinDims(two_s), x_max, x_max, c, ss.trial_rng(seed, two_s, 1)
        )
        ss.branch_sums(cs)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            ss.branch_sums(cs)
            times.append(time.perf_counter() - start)
        result[f"closedform.branch_sums.us_per_call.m{m}"] = statistics.median(times) * 1e6
    return result


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    w = runner.workload
    setup = measure_setup()
    runner.run(w.workers)  # warm-up: imports, caches, first pool start
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(runner.run(w.workers))
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "results_per_s": w.results / wall,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"walls_s": walls, "workers": w.workers}


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Serial untraced, parallel untraced (sweeps) and serial traced runs, in turn."""
    w = runner.workload
    runner.run(1)
    serial, parallel, traced_walls, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    tracer = None
    while not traced_walls or time.perf_counter() < deadline:
        serial.append(runner.run(1))
        if w.is_sweep:
            parallel.append(runner.run(NPROC))
        tracer = Tracer()
        traced_walls.append(runner.run(1, tracer))
        layers.append(tracer.layer_metrics())
    RESULT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(RESULT_DIR / f"spans_{w.name}_seed{runner.seed}.csv")
    metrics = {k: statistics.median(run[k] for run in layers) for k in layers[0]}
    serial_wall = statistics.median(serial)
    metrics["sweep.parallel_efficiency"] = (
        serial_wall / (NPROC * statistics.median(parallel)) if parallel else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - serial_wall
    metrics["cli.output_bytes"] = runner.output_bytes
    metrics.update(branch_sums_us(runner.seed))
    self_sum = sum(v for k, v in layers[-1].items() if k.endswith(".self_s"))
    detail = {
        "serial_walls_s": serial,
        "parallel_walls_s": parallel,
        "traced_walls_s": traced_walls,
        "workers": {"serial": 1, "parallel": NPROC},
        "self_sum_over_traced_wall": self_sum / traced_walls[-1],
        "spans": len(tracer.spans),
    }
    return {k: metrics[k] for k in PER_LAYER}, detail


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workers) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "workers": workers,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        # without a bytecode cache, setup_s includes compiling spinshield
        "bytecode_cache": not sys.dont_write_bytecode,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cli, WORKLOADS[args.workload], args.seed)
    try:
        metrics, detail = (traced if args.trace else end_to_end)(runner, args.seconds)
    finally:
        runner.close()
    units = PER_LAYER if args.trace else END_TO_END
    failed_fraction = runner.failed / runner.attempted
    for name, value in metrics.items():
        print(f"{name:<46} {value:>16.6g} {units[name]}")
    print(f"{'failed_fraction':<46} {failed_fraction:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} runs)")
    for problem in runner.problems[:20]:
        print(f"gate: {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(detail.pop("workers")),
        **result,
        "failed_fraction": failed_fraction,
        "detail": detail,
        "problems": runner.problems,
    }
    path = RESULT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
