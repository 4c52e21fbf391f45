"""Golden outputs of the CLI: `single`, `sweep` and `verify`, pinned byte for byte.

The files under ``tests/golden/`` are the exact outputs of the commands in
``CASES``, ``FAILING`` and ``SWEEPS``; a ``FAILING`` run exits 1, and its
stderr is pinned next to its stdout.  The complex-mode sweep, with ``|c3| != |c4|``,
pins the complex draw (moduli, then phase factors) and unequal weights.
Two things are not compared as bytes:

- the dense-oracle values of ``single`` (``C_oracle``, ``tau_oracle_*`` and
  the ``rho_*`` matrices) come from BLAS and LAPACK, which may round
  differently on other hardware, so they compare as floats within 1e-12;
- the ``started`` and ``finished`` timestamps of the sweep manifest.

A change that moves an output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]`` and names the lines
that move.  NAME is a key of ``CASES``, ``FAILING`` or ``SWEEPS``; without one every file
is rewritten.  A ``single`` file keeps each stored oracle value that the new
run reproduces within ``ORACLE_TOL``, so a regeneration moves no LAPACK digit
by itself.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from spinshield import cli

GOLDEN = Path(__file__).parent / "golden"

ORACLE_TOL = 1e-12
ORACLE_KEY = re.compile(r"^(C_oracle|tau_oracle_q[12]|rho_(D|Q1|M))(\[\d+\])?$")

CASES = {
    "single_two_s100_seed7.txt": ["single", "--two-s", "100", "--seed", "7", "--text"],
    "single_two_s100_seed7.json": ["single", "--two-s", "100", "--seed", "7", "--json"],
    "single_two_s2_seed3.txt": ["single", "--two-s", "2", "--seed", "3", "--text"],
    "single_two_s2_seed3.json": ["single", "--two-s", "2", "--seed", "3", "--json"],
    "single_two_s7_seed5_complex.txt": ["single", "--two-s", "7", "--seed", "5", "--complex", "--text"],
    "single_two_s7_seed5_complex.json": ["single", "--two-s", "7", "--seed", "5", "--complex", "--json"],
    "verify_defaults.txt": ["verify"],
    "verify_two_s_max4_cases6.txt": ["verify", "--two-s-max", "4", "--cases", "6"],
}

# runs that exit 1: NAME -> arguments; stdout is pinned in NAME.txt, stderr in NAME.err
FAILING = {
    "verify_cases3_tol1e-30": ["verify", "--cases", "3", "--tol", "1e-30"],
}

# output directory under golden/ -> sweep arguments
SWEEPS = {
    "sweep": ["sweep", "--two-s", "2,10", "--n", "1,3", "--trials", "5"],
    "sweep_complex": [
        "sweep", "--two-s", "2,10,100", "--n", "1,2,3", "--trials", "5",
        "--complex", "--c3", "0.6", "--c4", "0.8j", "--seed", "9",
    ],
}
SWEEP_FILES = ("sweep.csv", "plot.gp", "manifest.txt")
_TIMESTAMP = re.compile(r"^(started|finished) = .*$", re.MULTILINE)


def _stdout(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _mask_timestamps(text: str) -> str:
    return _TIMESTAMP.sub(r"\1 = <masked>", text)


def _floats(value):
    """Every float in a JSON value or a text value of complex reprs, in order."""
    if isinstance(value, str):
        return [p for z in value.split() for p in (complex(z).real, complex(z).imag)]
    if isinstance(value, list):
        return [f for v in value for f in _floats(v)]
    return [float(value)]


def _assert_oracle_close(key, got, want):
    got, want = _floats(got), _floats(want)
    assert len(got) == len(want), key
    assert all(abs(g - w) <= ORACLE_TOL for g, w in zip(got, want)), key


def _assert_text_matches(got: str, want: str):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        key, _, want_value = want_line.partition(" = ")
        if ORACLE_KEY.match(key):
            got_key, _, got_value = got_line.partition(" = ")
            assert got_key == key
            _assert_oracle_close(key, got_value, want_value)
        else:
            assert got_line == want_line


def _assert_json_matches(got: str, want: str):
    got_payload, want_payload = json.loads(got), json.loads(want)
    # the output is the canonical rendering of its payload ...
    assert json.dumps(got_payload, sort_keys=True, indent=2) + "\n" == got
    assert sorted(got_payload) == sorted(want_payload)
    for key in want_payload:
        if ORACLE_KEY.match(key):
            _assert_oracle_close(key, got_payload[key], want_payload[key])
            got_payload[key] = want_payload[key]
    # ... so with the golden oracle values swapped in, every other byte must match
    assert json.dumps(got_payload, sort_keys=True, indent=2) + "\n" == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    got = _stdout(CASES[name], capsys)
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        _assert_json_matches(got, want)
    else:
        _assert_text_matches(got, want)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_golden_failing_run(name, capsys):
    assert cli.main(FAILING[name]) == 1
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
    assert captured.err == (GOLDEN / f"{name}.err").read_text()


def _assert_sweep_matches(golden_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    out = tmp_path / "r"
    assert cli.main([*SWEEPS[golden_dir], "--out", str(out)]) == 0
    for name in SWEEP_FILES:
        got = (out / name).read_text()
        if name == "manifest.txt":
            got = _mask_timestamps(got)
        assert got == (GOLDEN / golden_dir / name).read_text(), name


def test_golden_sweep_files(tmp_path, monkeypatch):
    _assert_sweep_matches("sweep", tmp_path, monkeypatch)


def test_golden_complex_sweep_files(tmp_path, monkeypatch):
    _assert_sweep_matches("sweep_complex", tmp_path, monkeypatch)


def _keep_oracle_lines(name: str, got: str, stored: str) -> str:
    """``got`` with each dense-oracle value of ``stored`` kept where the two agree within ORACLE_TOL.

    So a regeneration moves no LAPACK digit that did not move beyond the
    tolerance the tests compare with.
    """
    def close(a, b):
        a, b = _floats(a), _floats(b)
        return len(a) == len(b) and all(abs(x - y) <= ORACLE_TOL for x, y in zip(a, b))

    if name.endswith(".json"):
        got_payload, stored_payload = json.loads(got), json.loads(stored)
        for key, value in stored_payload.items():
            if ORACLE_KEY.match(key) and key in got_payload and close(got_payload[key], value):
                got_payload[key] = value
        return json.dumps(got_payload, sort_keys=True, indent=2) + "\n"
    got_lines, stored_lines = got.split("\n"), stored.split("\n")
    if len(got_lines) != len(stored_lines):
        return got
    kept = []
    for got_line, stored_line in zip(got_lines, stored_lines):
        key, _, value = got_line.partition(" = ")
        stored_key, _, stored_value = stored_line.partition(" = ")
        same = ORACLE_KEY.match(key) and key == stored_key and close(value, stored_value)
        kept.append(stored_line if same else got_line)
    return "\n".join(kept)


def _regenerate(names=(), golden=GOLDEN):
    """Rewrite the named files of CASES and FAILING and directories of SWEEPS under ``golden``; all without names."""
    import contextlib
    import io
    import tempfile

    unknown = set(names) - set(CASES) - set(FAILING) - set(SWEEPS)
    if unknown:
        raise SystemExit(f"unknown golden names: {', '.join(sorted(unknown))}")
    golden.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if names and name not in names:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        text, path = buf.getvalue(), golden / name
        if path.is_file():
            text = _keep_oracle_lines(name, text, path.read_text())
        path.write_text(text)
    for name, argv in FAILING.items():
        if names and name not in names:
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 1
        (golden / f"{name}.txt").write_text(out.getvalue())
        (golden / f"{name}.err").write_text(err.getvalue())
    for golden_dir, argv in SWEEPS.items():
        if names and golden_dir not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.main([*argv, "--out", tmp]) == 0
            (golden / golden_dir).mkdir(exist_ok=True)
            for name in SWEEP_FILES:
                text = (Path(tmp) / name).read_text()
                if name == "manifest.txt":
                    text = _mask_timestamps(text)
                (golden / golden_dir / name).write_text(text)


def test_regenerating_an_unchanged_set_moves_no_byte(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    _regenerate(golden=copy)
    files = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(copy) for p in copy.rglob("*") if p.is_file())
    for name in files:
        assert (copy / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_regenerating_named_files_leaves_the_others_alone(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    for path in copy.rglob("*"):
        if path.is_file():
            path.write_text("stale\n")
    _regenerate(["single_two_s2_seed3.txt", "sweep"], golden=copy)
    fresh = {"single_two_s2_seed3.txt", "sweep/sweep.csv", "sweep/plot.gp", "sweep/manifest.txt"}
    for path in copy.rglob("*"):
        if path.is_file():
            name, text = str(path.relative_to(copy)), path.read_text()
            if name not in fresh:
                assert text == "stale\n", name
            elif name.startswith("single"):  # nothing stored to keep: the oracle values are this run's
                _assert_text_matches(text, (GOLDEN / name).read_text())
            else:
                assert text == (GOLDEN / name).read_text(), name
    with pytest.raises(SystemExit, match="unknown golden names: nope"):
        _regenerate(["nope"], golden=copy)


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
