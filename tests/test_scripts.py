"""Smoke tests for the example scripts and the README's library example: each runs to the end."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinshield

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, SPINSHIELD_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name,args,last_line",
    [
        ("gap_scaling_study.py", ["--two-s", "4", "--draws", "1"], "0.00391"),
        ("run_default_sweep.py", ["--trials", "2", "--out", "{tmp}"],
         "wrote sweep.csv, plot.gp, manifest.txt to {tmp}/"),
    ],
)
def test_script_runs_to_its_last_line(tmp_path, name, args, last_line):
    out = tmp_path / "out"
    proc = _run_script(name, *(a.format(tmp=out) for a in args))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].strip().startswith(last_line.format(tmp=out))


def test_readme_library_example_runs_and_every_export_resolves():
    text = (ROOT / "README.md").read_text()
    code = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].monogamy_slack >= 0.0
    assert len(namespace["points"]) == 27
    for name in spinshield.__all__:
        assert getattr(spinshield, name) is not None, name


def test_the_package_all_is_the_one_declared_import_surface():
    assert spinshield.__all__ == [
        "SpinDims", "SweepConfig", "branch_sums", "evaluate", "first_order_expansion",
        "run_sweep", "sample_coefficients", "trial_rng", "x_max_schedule",
    ]
    # the submodules declare none; a leading underscore marks their private names
    for module in ("model", "closedform", "oracle", "sweep", "cli"):
        assert not hasattr(importlib.import_module(f"spinshield.{module}"), "__all__"), module


def test_every_perfbench_tracer_patch_binds():
    # the benchmark's traced run patches these names; a renamed or deleted
    # one would break it, and no tier-1 test runs the benchmark itself
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for module, attr, name in tracer.PATCHES:
        assert callable(tracer.binding(module, attr)[2]), (module, attr, name)
