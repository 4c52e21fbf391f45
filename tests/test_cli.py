import collections
import contextlib
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import cli, oracle, sweep
from spinshield.cli import CSV_HEADER, fnv1a64, main
from spinshield.sweep import SweepConfig, run_sweep
from util import verify_case


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_row_count_single_point(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["sweep", "--two-s", "2", "--n", "3", "--trials", "1",
                    "--seed", "7", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_sweep_csv_is_deterministic(tmp_path):
    argv = ["sweep", "--two-s", "2,4", "--n", "1,2", "--trials", "5", "--seed", "3"]
    assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(argv + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()


def test_sweep_worker_env_does_not_change_bytes(tmp_path, monkeypatch):
    # 3 workers split each of the 3 two_s values into 2 chunks on any host
    monkeypatch.setattr("spinshield.sweep._usable_cores", lambda: 16)
    argv = ["sweep", "--two-s", "2,4,10", "--n", "1,3", "--trials", "10", "--out"]
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    assert run_cli(argv + [str(tmp_path / "w1")]) == 0
    monkeypatch.setenv(cli.WORKERS_ENV, "3")
    assert run_cli(argv + [str(tmp_path / "w3")]) == 0
    assert (tmp_path / "w1/sweep.csv").read_bytes() == (tmp_path / "w3/sweep.csv").read_bytes()


def test_a_sweep_reads_the_usable_cores_once_per_plan(tmp_path, monkeypatch):
    # plan_sweep alone reads them: once per run_sweep, and in `spinshield
    # sweep` once more for the refusal before --out exists
    reads = []
    monkeypatch.setattr("spinshield.sweep._usable_cores", lambda: reads.append(1) or 2)
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    run_sweep(SweepConfig(two_s_values=(2,), n_values=(1,), trials=2), workers=1)
    assert len(reads) == 1
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "2", "--out", str(tmp_path / "r")]) == 0
    assert len(reads) == 3


def test_sweep_invalid_worker_env_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "zero")
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "1",
                    "--out", str(tmp_path / "x")]) == 2


def test_sweep_zero_worker_env_is_usage_error_before_out(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "0")
    out = tmp_path / "x"
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("out, errno", [("afile", "[Errno 17]"), ("afile/sub", "[Errno 20]")],
                         ids=["a-file", "under-a-file"])
def test_sweep_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, monkeypatch, out, errno):
    # an existing file, or a path under one: refused before any trial runs
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("spinshield.sweep.trial_rng", no_trial)
    (tmp_path / "afile").write_text("")
    path = tmp_path / out
    assert run_cli(["sweep", "--two-s", "2", "--trials", "1", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {str(path)!r} cannot be made a directory: {errno}")
    assert (tmp_path / "afile").read_text() == ""


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "r"
    run_cli(["sweep", "--two-s", "2,4", "--n", "1,2", "--trials", "2", "--out", str(out)])
    raw = (out / "sweep.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "n,two_s,trials,mean_c,std_c,mean_tau,std_tau,mean_gap,std_gap,mean_abs_gap,min_slack"
    # n-major, two_s-minor ordering
    heads = [tuple(int(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert heads == [(1, 2), (1, 4), (2, 2), (2, 4)]
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11
        assert not line.endswith(",")
        for field in fields[3:]:
            assert repr(float(field)) == field  # shortest round-trip rendering


def test_sweep_manifest_matches_outputs(tmp_path):
    out = tmp_path / "r"
    run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "2", "--seed", "5",
             "--out", str(out)])
    manifest = dict(
        line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["tool"].startswith("spinshield ")
    assert manifest["two_s_values"] == "2"
    assert manifest["n_values"] == "1"
    assert manifest["trials"] == "2"
    assert manifest["master_seed"] == "5"
    assert manifest["complex_mode"] == "false"
    for key in ("c1", "c2", "c3", "c4", "oracle_crosscheck_max_dim", "started", "finished"):
        assert key in manifest
    for name in ("sweep.csv", "plot.gp"):
        digest = int(manifest[f"digest.{name}"], 16)
        assert digest == fnv1a64((out / name).read_bytes())

    # a run that sets every field away from its default
    out = tmp_path / "all"
    assert run_cli(["sweep", "--two-s", "2,4", "--n", "2", "--trials", "3", "--seed", "9",
                    "--c3", "0.6", "--c4", "0.8j", "--complex",
                    "--oracle-crosscheck-max-dim", "0", "--out", str(out)]) == 0
    expected = SweepConfig(two_s_values=(2, 4), n_values=(2,), trials=3, c=(0j, 0j, 0.6, 0.8j),
                           master_seed=9, complex_mode=True, oracle_crosscheck_max_dim=0)
    names = [f.name for f in dataclasses.fields(SweepConfig)]
    assert all(getattr(expected, name) != getattr(SweepConfig(), name) for name in names)
    lines = [line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()]
    keys = [key for key, _ in lines]
    assert keys[0] == "tool"
    # the lines between tool and started are the fields in declaration order, c as c1..c4
    fields = dict(lines[1:keys.index("started")])
    at = names.index("c")
    assert list(fields) == names[:at] + ["c1", "c2", "c3", "c4"] + names[at + 1:]
    parsed = {}
    for name in names:
        default = getattr(SweepConfig(), name)
        if name == "c":
            parsed[name] = tuple(complex(fields[f"c{d}"]) for d in range(1, 5))
        elif isinstance(default, tuple):
            parsed[name] = tuple(int(v) for v in fields[name].split(","))
        elif isinstance(default, bool):
            parsed[name] = {"true": True, "false": False}[fields[name]]
        else:
            parsed[name] = int(fields[name])
    assert SweepConfig(**parsed) == expected


def test_sweep_plot_script_references_csv(tmp_path):
    out = tmp_path / "r"
    run_cli(["sweep", "--two-s", "2", "--n", "1,2,3", "--trials", "1", "--out", str(out)])
    script = (out / "plot.gp").read_text()
    assert "sweep.csv" in script
    for n in (1, 2, 3):
        assert f'"n={n}"' in script


def test_sweep_geometric_range(tmp_path):
    out = tmp_path / "r"
    run_cli(["sweep", "--two-s", "2:20:2", "--n", "1", "--trials", "1", "--out", str(out)])
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [int(l.split(",")[1]) for l in lines] == [2, 4, 8, 16]


@pytest.mark.parametrize("two_s", ["1:1e9:1.00001", "1:inf:2"])
def test_sweep_geometric_range_with_too_many_terms_is_usage_error(
    tmp_path, capsys, monkeypatch, two_s
):
    # 1,021,038 and infinitely many terms: refused from the count, before any is built
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "flag"
    assert run_cli(["sweep", "--two-s", two_s, "--out", str(out)]) == 2
    assert "more than 10000 terms" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"two_s = {two_s}\n")
    out = tmp_path / "config"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "more than 10000 terms" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_flags_exit_2(tmp_path):
    assert run_cli(["sweep", "--bogus"]) == 2
    assert run_cli(["sweep", "--two-s", "abc", "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--two-s", "0", "--n", "1", "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--two-s", "2", "--n", "7", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("two_s", ["1:2", "a:b:c", "0:10:2"])
def test_sweep_bad_geometric_range_is_usage_error(tmp_path, two_s):
    out = tmp_path / "r"
    assert run_cli(["sweep", "--two-s", two_s, "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_zero_weights_are_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli(["sweep", "--c3", "0", "--c4", "0", "--out", str(out)]) == 2
    assert "cannot both be zero" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "two_s = 2,4\n"
        "n = 1\n"
        "trials = 3   # overridden by the flag below\n"
        "seed = 9\n"
    )
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert all(line.split(",")[2] == "2" for line in lines[1:])
    manifest = (out / "manifest.txt").read_text()
    assert "master_seed = 9" in manifest


@pytest.mark.parametrize("value", ["off", "false", "no", "0"])
def test_sweep_config_file_turns_complex_off(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"two_s = 2\nn = 1\ntrials = 1\ncomplex = {value}\n")
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "complex_mode = false" in (out / "manifest.txt").read_text().splitlines()


def test_sweep_complex_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("two_s = 2\nn = 1\ntrials = 1\ncomplex = no\n")
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), "--complex", "--out", str(out)]) == 0
    assert "complex_mode = true" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize(
    "line,flags,message",
    [
        ("complex = maybe", [], "bad boolean 'maybe'"),
        ("", ["--c3", "abc"], "bad complex number 'abc'"),
        ("two_s 2", [], "run.cfg:3: expected `key = value`, got 'two_s 2'"),
    ],
)
def test_sweep_unparsable_setting_is_usage_error(tmp_path, capsys, line, flags, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 1\ntrials = 1\n{line}\n")
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_crosscheck_bound_beyond_oracle_gate_is_usage_error(tmp_path, capsys):
    # above the oracle's gate, or negative
    for value in ("100000", "-5"):
        out = tmp_path / f"flag{value}"
        assert run_cli(["sweep", "--two-s", "100", "--trials", "2",
                        "--oracle-crosscheck-max-dim", value, "--out", str(out)]) == 2
        assert "oracle_crosscheck_max_dim" in capsys.readouterr().err
        assert not out.exists()

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"two_s = 100\ntrials = 2\noracle_crosscheck_max_dim = {value}\n")
        out = tmp_path / f"config{value}"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "oracle_crosscheck_max_dim" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_nonfinite_device_weight_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "flag"
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "1",
                    f"--c3={value}", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"two_s = 2\nn = 1\ntrials = 1\nc4 = {value}\n")
    out = tmp_path / "config"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_draw_beyond_physical_memory_is_usage_error(tmp_path, capsys):
    # 1.6e22 bytes per draw: refused before the output directory exists
    out = tmp_path / "flag"
    assert run_cli(["sweep", "--two-s", str(10**20), "--trials", "1", "--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"two_s = 2,{10**20}\nn = 1\ntrials = 1\n")
    out = tmp_path / "config"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rows_beyond_physical_memory_are_usage_error(tmp_path, capsys, monkeypatch):
    # 10**8 trials of m = 3 need 4.2 MB of draws but 14.4 GB of result rows;
    # the refusal comes from the estimate alone, and the sweep never starts
    monkeypatch.setattr("spinshield.sweep._physical_memory_bytes", lambda: 8 * 10**9)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "rows"
    assert run_cli(["sweep", "--two-s", "2", "--trials", str(10**8), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "result rows" in err and "physical memory" in err
    assert not out.exists()


def test_sweep_underflowing_bound_is_usage_error_without_memory_report(tmp_path, capsys, monkeypatch):
    # with no physical-memory figure nothing refuses the draw's size, and
    # 1 / (2 S**3) underflows at two_s = 2**1100: the config refuses it first
    monkeypatch.setattr("spinshield.sweep._physical_memory_bytes", lambda: None)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "tiny"
    assert run_cli(["sweep", "--two-s", str(2**1100), "--n", "3", "--trials", "1",
                    "--out", str(out)]) == 2
    assert "two_s of 1101 bits: 1 / (2 S**3) underflows to 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_config_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot read config file {str(cfg)!r}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("two_s = 2\nturbo = on\n")
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_sweep_config_file_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("two_s = 2\ntrials = 5\n# comment\ntrials = 7\n")
    out = tmp_path / "r"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:4:" in err and "'trials'" in err and "line 2" in err
    assert not out.exists()


def test_sweep_runtime_failure_exit_1_with_diagnostic(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("spinshield.sweep.ORACLE_CROSSCHECK_TOL", -1.0)
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    out = tmp_path / "r"
    code = run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "two_s=2" in err and "n=1" in err and "trial=1" in err
    # a failed run emits no outputs, in particular no manifest
    assert not (out / "manifest.txt").exists()
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "weights,expected",
    [
        (["--c3", "1e200"], (1.0, 1.0 / np.sqrt(2) / 1e200)),
        (["--c3", "1e-200", "--c4", "0"], (1.0, 0.0)),
    ],
)
def test_sweep_extreme_device_weights_are_normalized(tmp_path, weights, expected):
    # the norm of (c3, c4) neither overflows nor underflows
    out = tmp_path / "r"
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "2",
                    *weights, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    c3 = complex(manifest.split("c3 = ")[1].split("\n")[0])
    c4 = complex(manifest.split("c4 = ")[1].split("\n")[0])
    assert c3 == pytest.approx(expected[0], rel=1e-15)
    assert c4 == pytest.approx(expected[1], rel=1e-15)


@pytest.mark.parametrize(
    "grid",
    [
        ["--two-s", "2000", "--n", "1,2", "--trials", "7"],
        ["--two-s", "5000", "--n", "1", "--trials", "5"],
        ["--two-s", "3,2000", "--n", "1,3", "--trials", "7", "--complex", "--c3", "0.6", "--c4", "0.8j"],
    ],
)
def test_sweep_chunked_points_do_not_depend_on_workers(tmp_path, monkeypatch, grid):
    # fewer two_s values than twice the workers: trials are split into chunks,
    # 7 and 5 trials split unevenly across 2 and 3 workers.  The core count is
    # patched so the chunks are the same on any host.
    monkeypatch.setattr("spinshield.sweep._usable_cores", lambda: 16)
    outputs = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        out = tmp_path / f"w{workers}"
        assert run_cli(["sweep", *grid, "--out", str(out)]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_custom_weights_are_normalized(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["sweep", "--two-s", "2", "--n", "1", "--trials", "1",
                    "--c3", "1", "--c4", "1", "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert f"c3 = {complex(1 / np.sqrt(2)) !r}" in manifest


# ---------------------------------------------------------------------------
# verify command


def test_verify_passes_with_defaults(capsys):
    assert run_cli(["verify", "--cases", "4"]) == 0
    out = capsys.readouterr().out
    for family in ("monogamy", "oracle-concurrence", "oracle-tangle",
                   "symmetry", "separability", "quadratic-gap"):
        assert f"{family}: 4/4" in out


def test_verify_zero_cases_is_usage_error():
    assert run_cli(["verify", "--cases", "0"]) == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_tolerance_must_be_positive_and_finite(capsys, tol):
    assert run_cli(["verify", "--cases", "2", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""  # refused before any case runs


def test_verify_impossible_tolerance_fails(capsys):
    assert run_cli(["verify", "--cases", "3", "--tol", "1e-30"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    assert "FAIL monogamy: " in captured.err  # tau - C**2 and the slack differ in rounding
    assert "case=" in captured.err and "two_s=" in captured.err


@pytest.mark.parametrize(
    "family, measures",
    [
        # a slack that is not tau - C**2 = 0.25
        ("monogamy", (0.5, 0.5, 0.0)),
        # a slack that never shrinks with the perturbation scale; the family
        # evaluates its three scalings as one stack
        ("quadratic-gap", (0.0, 1.0, 1.0)),
    ],
    ids=["monogamy", "quadratic-gap"],
)
def test_verify_forced_failure_prints_fail_and_exits_1(capsys, monkeypatch, family, measures):
    fake = lambda x_sums, y_sums, w3, w4: tuple(np.full(np.shape(x_sums[0]), v) for v in measures)  # noqa: E731
    monkeypatch.setattr(cli.closedform, "_from_sums", fake)
    assert run_cli(["verify", "--cases", "2", "--two-s-max", "2"]) == 1
    captured = capsys.readouterr()
    assert f"FAIL {family}: case=1 two_s=1" in captured.err
    assert f"FAIL {family}: case=2 two_s=2" in captured.err
    assert f"{family}: 0/2" in captured.out


def test_verify_check_that_raises_fails_its_case_and_the_others_run(capsys, monkeypatch):
    # a negative slack makes the closed forms refuse the draw with
    # EntanglementReport's ValueError, in every family that evaluates them;
    # symmetry and separability never do
    from_sums = cli.closedform._from_sums

    def negative_slack(*args):
        c, tau, slack = from_sums(*args)
        return c, tau, np.full(np.shape(slack), -1e-3)

    monkeypatch.setattr(cli.closedform, "_from_sums", negative_slack)
    assert run_cli(["verify", "--cases", "2", "--two-s-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "monogamy: 0/2", "oracle-concurrence: 0/2", "oracle-tangle: 0/2",
        "symmetry: 2/2", "separability: 2/2", "quadratic-gap: 0/2",
    ]
    assert ("FAIL monogamy: case=1 two_s=1 x_max=0.5 seed=0: "
            "monogamy violated: slack = -0.001") in captured.err.splitlines()
    assert "FAIL monogamy: case=2 two_s=2" in captured.err
    assert "error:" not in captured.err


def test_verify_monogamy_checks_the_slack_against_tau_minus_c_squared(capsys, monkeypatch):
    # a slack offset by 1e-6 still passes evaluate's sign check and leaves C
    # and tau alone: only the monogamy family sees it
    from_sums = cli.closedform._from_sums

    def offset(*args):
        c, tau, slack = from_sums(*args)
        return c, tau, slack + 1e-6

    monkeypatch.setattr(cli.closedform, "_from_sums", offset)
    assert run_cli(["verify", "--cases", "3", "--two-s-max", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "monogamy: 0/3" in lines
    assert "oracle-concurrence: 3/3" in lines and "oracle-tangle: 3/3" in lines
    assert "FAIL monogamy: case=1 two_s=1 x_max=0.5 seed=0" in captured.err.splitlines()


def test_verify_separability_family_reads_the_oracle_when_called(capsys, monkeypatch):
    # the family looks the check up on the oracle module at each call
    monkeypatch.setattr("spinshield.oracle.separability_structure_check", lambda c, x, y, tol: False)
    assert run_cli(["verify", "--cases", "2", "--two-s-max", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.endswith(" 2/2")] == ["separability: 0/2"]


@pytest.mark.parametrize(
    "stages",
    [("assemble_state",), ("wootters_concurrence",), ("_side_sums",), ("assemble_state", "_side_sums")],
    ids=["assemble_state", "wootters_concurrence", "closed-form", "oracle-and-closed-form"],
)
def test_verify_fails_only_the_case_whose_oracle_run_fails(capsys, monkeypatch, stages):
    # the 9 cases of two_s 1, 2 and 3 are three stacks of three; the oracle, or
    # the closed forms, refuse case 5's draw alone, in any stack that holds it,
    # while its group-mates 2 and 8 pass.  Case 5 fails with the error of its
    # lone run: the oracle's where both refuse it, since the family runs the
    # oracle first, and for the closed forms the error evaluate raises
    target = verify_case(0, list(cli._VERIFY_CHECKS).index("oracle-concurrence"), 5, 3)
    rho = oracle.reduce(oracle.assemble_state(target.c, target.x, target.y), "D").entries.tobytes()
    rows = target.x[2:4].real.tobytes()
    side_sums, assemble_state, wootters_concurrence = (
        cli.closedform._side_sums, oracle.assemble_state, oracle.wootters_concurrence)

    def negative_g(block):  # G of the target's x rows turns negative
        s3, s4, s34, g = side_sums(block)
        held = [e.tobytes() == rows for e in block.reshape(-1, *block.shape[-2:])]
        return s3, s4, s34, np.where(np.reshape(held, g.shape), -1.0, g)

    def refusing_state(c, x, y):  # a stack's x, or a lone draw's as separability builds it
        if any(e.tobytes() == target.x.tobytes() for e in x.reshape(-1, *x.shape[-2:])):
            raise ValueError("assemble_state refuses case 5")
        return assemble_state(c, x, y)

    def refusing_read_out(rho_d):
        if any(e.tobytes() == rho for e in rho_d.entries.reshape(-1, 4, 4)):
            raise ValueError("wootters_concurrence refuses case 5")
        return wootters_concurrence(rho_d)

    patches = {
        "_side_sums": (cli.closedform, negative_g),
        "assemble_state": (oracle, refusing_state),
        "wootters_concurrence": (oracle, refusing_read_out),
    }
    for stage in stages:
        owner, fake = patches[stage]
        monkeypatch.setattr(owner, stage, fake)
    if stages == ("_side_sums",):
        with pytest.raises(ValueError) as refused:
            cli.closedform.evaluate(target)
        message = str(refused.value)
        assert message.startswith("X sums are inconsistent")
    else:
        message = f"{stages[0]} refuses case 5"
    assert run_cli(["verify", "--cases", "9", "--two-s-max", "3"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if not line.endswith(" 9/9")] == ["oracle-concurrence: 8/9"]
    two_s, x_max = cli._case_point(5, 3)
    assert captured.err.splitlines() == [
        f"FAIL oracle-concurrence: case=5 two_s={two_s} x_max={x_max} seed=0: {message}"
    ]


def test_verify_draws_each_case_once_as_sample_coefficients_does(monkeypatch):
    # a budget of two states at two_s_max 2 (m = 3) makes chunks of 2 rounds,
    # 4 cases, so 12 cases take 3 chunks, and the cases of a stack cycle
    # through the three x_max.  Every family reads each case's stream once,
    # and its stacked draw is bitwise sample_coefficients' draw
    monkeypatch.setattr(sweep, "_BATCH_BYTES", 2 * 64 * 9)
    reads = collections.Counter()
    rng = cli.trial_rng
    monkeypatch.setattr(cli, "trial_rng", lambda *key: reads.update([key]) or rng(*key))
    draw, calls, drawn = cli._verify_draws, [], []

    def recording(master_seed, family_index, two_s_max, cases):
        c, x, y = draw(master_seed, family_index, two_s_max, cases)
        two_s = {cli._case_point(case, two_s_max)[0] for case in cases}
        assert len(two_s) == 1
        calls.append((family_index, two_s.pop(), list(cases)))
        drawn.extend(((family_index, case), (c[i], x[i], y[i])) for i, case in enumerate(cases))
        return c, x, y

    monkeypatch.setattr(cli, "_verify_draws", recording)
    assert run_cli(["verify", "--cases", "12", "--two-s-max", "2", "--seed", "4"]) == 0
    groups = [(1, [1, 3]), (2, [2, 4]), (1, [5, 7]), (2, [6, 8]), (1, [9, 11]), (2, [10, 12])]
    assert calls == [(f, two_s, cases) for f in range(6) for two_s, cases in groups]
    assert reads == {(4, 1000 * f + 1 + (case - 1) % 2, case): 1 for f in range(6) for case in range(1, 13)}
    for (family_index, case), arrays in drawn:
        ref = verify_case(4, family_index, case, 2)
        for got, want in zip(arrays, (ref.c, ref.x, ref.y)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (family_index, case)


def _verify_outputs(argv, capsys):
    code = run_cli(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--two-s-max", "5", "--cases", "40", "--seed", "3"], None),
        (["--two-s-max", "5", "--cases", "40", "--seed", "3", "--tol", "1e-30"], None),
        (["--cases", "3", "--tol", "1e-30"], "verify_cases3_tol1e-30"),
    ],
    ids=["passing", "failing", "golden"],
)
def test_verify_output_does_not_depend_on_the_byte_budget(capsys, monkeypatch, argv, golden):
    # chunks of 1 and 3 rounds cut the cases into other chunks and stacks
    # than the default budget's one chunk; every verdict, FAIL line and the
    # exit code stay the same
    default = _verify_outputs(argv, capsys)
    if golden:
        golden = Path(__file__).parent / "golden" / golden
        assert default == (1, golden.with_suffix(".txt").read_text(), golden.with_suffix(".err").read_text())
    two_s_max = int(argv[argv.index("--two-s-max") + 1]) if "--two-s-max" in argv else 8
    for rounds in (1, 3):
        monkeypatch.setattr(sweep, "_BATCH_BYTES", rounds * 64 * (two_s_max + 1) ** 2)
        assert _verify_outputs(argv, capsys) == default, rounds


def _record_stacks(monkeypatch):
    """Stack sizes of the states oracle.assemble_state builds; a lone draw's is 1."""
    sizes, assemble_state = [], oracle.assemble_state

    def recording(c, x, y):
        sizes.append(int(np.prod(x.shape[:-2])))
        return assemble_state(c, x, y)

    monkeypatch.setattr(oracle, "assemble_state", recording)
    return sizes


@pytest.mark.parametrize("two_s_max, cases, largest", [(63, 200, 4), (1, 3000, 3000)])
def test_verify_stacks_stay_within_the_state_budget(monkeypatch, two_s_max, cases, largest):
    # a stack of one two_s holds a case of each round in its chunk, and a
    # chunk as many rounds as states at two_s_max fit the byte budget
    sizes = _record_stacks(monkeypatch)
    assert run_cli(["verify", "--two-s-max", str(two_s_max), "--cases", str(cases)]) == 0
    assert max(sizes) == largest <= sweep._batch_states(two_s_max + 1, two_s_max + 1)


def test_crosscheck_walks_chunks_of_the_state_budget(monkeypatch):
    # at two_s = 63 (m_a m_b = 4096) 16 states fill the budget, so the 40
    # trials of one batch take chunks of 16, 16 and 8 for each n
    sizes = _record_stacks(monkeypatch)
    config = SweepConfig(two_s_values=(63,), n_values=(1, 2), trials=40, oracle_crosscheck_max_dim=4096)
    run_sweep(config, workers=1)
    assert sweep._batch_states(64, 64) == 16
    assert sizes == [16, 16, 16, 16, 8, 8]


def test_verify_two_s_max_gate():
    assert run_cli(["verify", "--cases", "1", "--two-s-max", "64"]) == 2


def test_verify_two_s_max_at_the_gate_runs(capsys):
    # two_s = 63 makes m_a m_b = 4096, the dense oracle's gate
    assert run_cli(["verify", "--cases", "1", "--two-s-max", "63"]) == 0
    assert capsys.readouterr().out.count(": 1/1\n") == 6


# ---------------------------------------------------------------------------
# single command


def test_single_text_contract(capsys):
    assert run_cli(["single", "--two-s", "1", "--n", "1", "--seed", "1", "--text"]) == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert 0.0 <= float(values["C"]) <= 1.0
    assert 0.0 <= float(values["tau"]) <= 1.0
    assert abs(float(values["C"]) - float(values["C_oracle"])) <= 1e-10
    assert abs(float(values["tau"]) - float(values["tau_oracle_q1"])) <= 1e-10
    assert "rho_D[0]" in out and "rho_M[0]" in out


def test_single_is_deterministic(capsys):
    run_cli(["single", "--two-s", "2", "--n", "2", "--seed", "3"])
    first = capsys.readouterr().out
    run_cli(["single", "--two-s", "2", "--n", "2", "--seed", "3"])
    assert capsys.readouterr().out == first
    run_cli(["single", "--two-s", "2", "--n", "2", "--seed", "4"])
    assert capsys.readouterr().out != first


def test_single_json_mode(capsys):
    assert run_cli(["single", "--two-s", "2", "--n", "1", "--seed", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["two_s"] == 2 and payload["n"] == 1
    assert 0.0 <= payload["C"] <= 1.0
    assert abs(payload["C"] - payload["C_oracle"]) <= 1e-10
    assert len(payload["x3"]) == 3 and len(payload["x3"][0]) == 2
    assert payload["slack"] >= -1e-12


def test_single_bad_flags_exit_2():
    assert run_cli(["single"]) == 2  # --two-s is required
    assert run_cli(["single", "--two-s", "2", "--json", "--text"]) == 2
    # bad settings are refused before any draw
    assert run_cli(["single", "--two-s", "0"]) == 2
    assert run_cli(["single", "--two-s", "-2"]) == 2
    assert run_cli(["single", "--two-s", "2", "--n", "4"]) == 2


@pytest.mark.parametrize("two_s, n", [(10**20, 1), (10**200, 3), (10**400, 1)])
def test_single_draw_beyond_physical_memory_is_usage_error(capsys, two_s, n):
    # refused before the schedule, whose float arithmetic overflows for the last two
    assert run_cli(["single", "--two-s", str(two_s), "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert "physical memory" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# fuzz: tiny valid values mixed with malformed ones, flag by flag

# a draw of 1.6e22 bytes: refused by the memory budget, never attempted
_HUGE_TWO_S = str(10**20)
_FUZZ_FLAGS = {
    "sweep": {
        "--two-s": [
            "2", "1,3", "2:8:2", "0", "-2", "2,2", "abc", "nan", "inf", "1:1e9:1.00001",
            _HUGE_TWO_S,
        ],
        "--n": ["1", "1,3", "0", "4", "-1", "abc"],
        "--trials": ["1", "3", "0", "-1", "abc", "nan"],
        "--seed": ["0", "7", "-1", "abc"],
        "--c3": ["1", "0.6", "1j", "0", "-1", "nan", "inf", "abc"],
        "--c4": ["1", "0.8", "0", "nan", "abc"],
        "--oracle-crosscheck-max-dim": ["0", "16", "-1", "5000", "abc"],
    },
    "verify": {
        "--two-s-max": ["1", "4", "0", "-1", "64", "abc"],
        "--cases": ["1", "3", "0", "-2", "abc", "nan"],
        "--tol": ["1e-10", "0", "-1", "nan", "inf", "abc"],
        "--seed": ["0", "5", "-3", "abc"],
    },
    # never a large valid two_s: single allocates 4 x m arrays
    "single": {
        "--two-s": ["1", "2", "3", "64", "0", "-2", "abc", "nan", "inf", _HUGE_TWO_S],
        "--n": ["1", "3", "0", "4", "-1", "abc"],
        "--seed": ["0", "-1", "abc"],
    },
}
_FUZZ_SWITCHES = {"sweep": ["--complex"], "verify": [], "single": ["--complex", "--json", "--text"]}
_FUZZ_CONFIG_LINES = [
    "two_s = 2,4",
    "n = 3",
    "trials = 2",
    "trials = abc",
    "seed = 5",
    "complex = yes",
    "complex = maybe",
    "c3 = 1j",
    "turbo = on",
    "no equals sign",
    "two_s = 1:1e9:1.00001",
    f"two_s = {_HUGE_TWO_S}",
]


@st.composite
def _fuzz_case(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag, values in _FUZZ_FLAGS[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    for switch in _FUZZ_SWITCHES[command]:
        if draw(st.booleans()):
            argv.append(switch)
    config = None
    if command == "sweep":
        config = draw(st.none() | st.lists(st.sampled_from(_FUZZ_CONFIG_LINES), max_size=3))
    return argv, config


@settings(max_examples=60, deadline=None)
@given(_fuzz_case())
def test_cli_fuzz_exit_codes(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {cli.WORKERS_ENV: "1"}):
        out = Path(tmp) / "out"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out)]
            if config is not None:
                cfg = Path(tmp) / "run.cfg"
                cfg.write_text("".join(line + "\n" for line in config))
                argv += ["--config", str(cfg)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            # a usage error is caught before any work starts
            assert not out.exists()
        if _HUGE_TWO_S in argv:
            assert code == 2


# ---------------------------------------------------------------------------
# misc


def test_unknown_subcommand_exit_2():
    assert run_cli(["frobnicate"]) == 2


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8
