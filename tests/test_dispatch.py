"""Complex-mode output is byte-identical at every SIMD dispatch level numpy offers on the host.

numpy picks its SIMD loops at run time, and ``NPY_DISABLE_CPU_FEATURES``
turns levels off for one process.  Each setting turns off the host's
dispatch levels from one level upward, down to the baseline, and runs a
small complex sweep and ``single --complex`` in a subprocess.  Only the
levels of the host that runs the tests are covered.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import ORACLE_KEY

ROOT = Path(__file__).resolve().parents[1]

SWEEP = [
    "sweep", "--two-s", "2,10,100,1000", "--trials", "5",
    "--complex", "--c3", "0.6", "--c4", "0.8j", "--seed", "9",
]
SINGLE = ["single", "--two-s", "100", "--seed", "7", "--complex", "--json"]


def _host_levels() -> list[str]:
    """The dispatch levels numpy was built with and the host supports, lowest first."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


LEVELS = _host_levels()
# every level off from LEVELS[i] upward, the highest first
SETTINGS = [" ".join(LEVELS[i:]) for i in reversed(range(len(LEVELS)))]


def _run(argv, setting: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ, SPINSHIELD_WORKERS="1")
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if setting is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = setting
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spinshield", *argv], env=env, capture_output=True, text=True, timeout=300,
    )
    # numpy refuses a setting at import, with an error that names the variable
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        reason = " ".join(proc.stderr.rsplit("Error: ", 1)[-1].split())
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={setting!r}: {reason}")
    assert proc.returncode == 0, proc.stderr
    return proc


def _outputs(setting: str | None, out: Path) -> tuple[bytes, dict]:
    """The sweep's sweep.csv and the single record without its oracle keys."""
    _run([*SWEEP, "--out", str(out)], setting)
    record = json.loads(_run(SINGLE, setting).stdout)
    return (out / "sweep.csv").read_bytes(), {k: v for k, v in record.items() if not ORACLE_KEY.match(k)}


@pytest.fixture(scope="module")
def every_level_on(tmp_path_factory):
    return _outputs(None, tmp_path_factory.mktemp("default"))


# with no level above the baseline, pytest skips the empty parameter set
@pytest.mark.parametrize("setting", SETTINGS)
def test_complex_outputs_match_with_dispatch_levels_off(setting, every_level_on, tmp_path):
    csv, record = _outputs(setting, tmp_path / "r")
    assert csv == every_level_on[0]
    assert record == every_level_on[1]
