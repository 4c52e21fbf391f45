"""Smoke tests for the example scripts: each runs to the end and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
