"""Tests of the benchmark's tracer and output gate.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
from tracer import PATCHES, SELF_SUM_TOL, Tracer, binding

CLI = run.load_cli()

SMALL = run.Workload(
    "small", ("sweep", "--two-s", "2,4,10", "--n", "1,2,3", "--trials", "20"),
    1, (2, 4, 10), (1, 2, 3), 20,
)


def _bound_objects():
    return [binding(module, attr)[2] for module, attr, _ in PATCHES]


def _all_original(originals) -> bool:
    return all(now is was for now, was in zip(_bound_objects(), originals))


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["sweep.run_sweep", 1.0, 4.0, 0],
        ["closedform.evaluate", 2.0, 3.0, 1],
        ["oracle.reduce", 5.0, 6.0, 0],
    ]
    times = tracer.self_times()
    assert (times["cli.main"], times["sweep.run_sweep"]) == (6.0, 2.0)
    assert (times["closedform.evaluate"], times["oracle.reduce"]) == (1.0, 1.0)
    assert sum(times.values()) == 10.0


def test_default_serial_counts_repeat_and_match_arithmetic():
    originals = _bound_objects()
    runner = run.Runner(CLI, run.WORKLOADS["default_serial"], seed=0)
    try:
        tracers = [Tracer(), Tracer()]
        walls = [runner.run(1, t) for t in tracers]
    finally:
        runner.close()
    assert runner.failed == 0, runner.problems
    assert _all_original(originals)
    assert tracers[0].calls == tracers[1].calls
    metrics = tracers[0].layer_metrics()
    # 27 gridpoints x 200 trials; the oracle checks two_s = 2 and 4 (m*m <= 64)
    assert metrics["model.sample_coefficients.calls"] == 5400
    assert metrics["sweep.trial_rng.calls"] == 5400
    assert metrics["closedform.evaluate.calls"] == 5400
    assert metrics["oracle.assemble_state.calls"] == 2 * 3 * 200 == 1200
    # each (two_s, trial) stream is drawn once per n in (1, 2, 3)
    assert metrics["sweep.draw_reuse"] == 1800 / 5400 == 1 / 3
    # 4 x m complex128 rows in both x and y per draw
    assert metrics["model.CoefficientSet.bytes"] == 600 * sum(
        2 * 4 * 16 * (two_s + 1) for two_s in run.DEFAULT_TWO_S
    )
    self_sum = sum(tracers[0].self_times().values())
    assert abs(self_sum - walls[0]) <= SELF_SUM_TOL * walls[0]


def test_patches_restored_when_run_raises():
    originals = _bound_objects()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert not any(now is was for now, was in zip(_bound_objects(), originals))
            raise RuntimeError("run failed")
    assert _all_original(originals)


@pytest.fixture(scope="module")
def small_run():
    runner = run.Runner(CLI, SMALL, seed=7)
    runner.run(1)
    yield runner
    runner.close()


def test_gate_passes_program_output(small_run):
    assert small_run.failed == 0, small_run.problems


def test_gate_catches_changed_draw_stream(small_run):
    other = gate.reference_rows(SMALL.two_s, SMALL.n, SMALL.trials, seed=8)
    problems = gate.check_sweep(small_run.work_dir, other, SMALL.two_s, SMALL.n, SMALL.trials, 7)
    assert any("two_s=2 mean_c" in p for p in problems)


def test_gate_admits_low_digit_changes(small_run):
    text = (small_run.work_dir / "sweep.csv").read_text()
    order = [(n, s) for n in SMALL.n for s in SMALL.two_s]

    def perturbed(delta_gap: float) -> str:
        lines = text.splitlines()
        for i, line in enumerate(lines[1:], start=1):
            f = line.split(",")
            f[3] = repr(float(f[3]) * (1 + 1e-12))
            for col in (7, 8, 10):  # mean_gap, std_gap, min_slack
                f[col] = repr(float(f[col]) + delta_gap)
            lines[i] = ",".join(f)
        return "\n".join(lines) + "\n"

    assert gate.compare_rows(perturbed(5e-13), small_run.reference, order, SMALL.trials) == []
    assert gate.compare_rows(perturbed(1e-11), small_run.reference, order, SMALL.trials)


def test_gate_checks_header_order_and_digests(small_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(small_run.work_dir, out)
    lines = (out / "sweep.csv").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    problems = gate.check_sweep(out, small_run.reference, SMALL.two_s, SMALL.n, SMALL.trials, 7)
    assert any("row order" in p for p in problems)
    assert any("digest.sweep.csv" in p for p in problems)
    (out / "sweep.csv").write_text("n,two_s\n")
    assert any("header" in p for p in gate.check_sweep(
        out, small_run.reference, SMALL.two_s, SMALL.n, SMALL.trials, 7
    ))


def test_verify_gate_needs_every_family_passing():
    good = "".join(f"{family}: 64/64\n" for family in gate.VERIFY_FAMILIES)
    assert gate.check_verify(good, 64) == []
    assert gate.check_verify(good.replace("symmetry: 64/64", "symmetry: 63/64"), 64)
    assert gate.check_verify(good.replace("separability: 64/64\n", ""), 64)


def test_reference_seeding_and_digest_match_the_contract():
    assert gate.trial_seed(0, 2, 1) == 2604956420638222821
    assert gate.trial_seed(123456789, 1000, 200) == 17262197685551615133
    assert gate.trial_seed(-1, 4, 1) == 8658841118767523735
    data = b"n,two_s\n1,2\n"
    assert gate.fnv1a64(data) == CLI.fnv1a64(data)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
