"""Command-line front end: sweep execution, property verification, single draws.

Exit codes: 0 success, 1 runtime or property failure, 2 usage error (a bad
setting, or a draw too large for physical memory).  The
``SPINSHIELD_WORKERS`` environment variable bounds the worker-process count
for sweeps (default and cap: the usable cores); it can never change the output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, closedform, oracle
from .model import SpinDims, normalization, sample_coefficients, x_max_schedule
from .sweep import (
    DEFAULT_C,
    MemoryBudgetError,
    SweepConfig,
    SweepPoint,
    _batch_states,
    _Draws,
    _padded_xy,
    check_memory_budget,
    plan_sweep,
    run_sweep,
    trial_rng,
)

WORKERS_ENV = "SPINSHIELD_WORKERS"

CSV_HEADER = "n,two_s,trials,mean_c,std_c,mean_tau,std_tau,mean_gap,std_gap,mean_abs_gap,min_slack"

# the default grid has 9 terms; a factor near 1 would build millions
_MAX_GEOMETRIC_TERMS = 10_000

_VERIFY_X_MAXES = (0.5, 0.1, 0.01)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# flag and config-file parsing


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {name} list {text!r}: {exc}") from exc


def _parse_two_s(text: str) -> tuple[int, ...]:
    """Comma list ("2,4,10") or geometric range ("min:max:factor")."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"geometric range must be min:max:factor, got {text!r}")
        try:
            lo, hi, factor = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad geometric range {text!r}: {exc}") from exc
        if not (lo >= 1 and hi >= lo and factor > 1.0):
            raise UsageError("geometric range needs min >= 1, max >= min, factor > 1")
        # floor(log(max/min) / log(factor)) + 1 terms; counted before any is built
        if not math.log(hi / lo) / math.log(factor) < _MAX_GEOMETRIC_TERMS:
            raise UsageError(
                f"geometric range {text!r} has more than {_MAX_GEOMETRIC_TERMS} terms"
            )
        values = []
        v = lo
        while v <= hi * (1.0 + 1e-12):
            values.append(int(round(v)))
            v *= factor
        return tuple(sorted(set(values)))
    return _parse_int_list(text, "two_s")


def _parse_n(text: str) -> tuple[int, ...]:
    return _parse_int_list(text, "n")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"bad boolean {text!r}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"bad complex number {text!r}") from exc


# every sweep setting: config key -> (parser, SweepConfig field, flag help).  The
# flag is the key with "-" for "_"; c3 and c4 are normalized into the field c.
# A parser raises UsageError with its own message, except int's ValueError.
_SETTINGS = {
    "two_s": (_parse_two_s, "two_s_values", "comma list or min:max:factor geometric range"),
    "n": (_parse_n, "n_values", "comma list of schedule exponents from {1,2,3}"),
    "trials": (int, "trials", "draws per gridpoint (default 200)"),
    "seed": (int, "master_seed", "master seed (default 0)"),
    "c3": (_parse_complex, "c", "device weight c3 (default 1/sqrt(2))"),
    "c4": (_parse_complex, "c", "device weight c4 (default 1/sqrt(2))"),
    "complex": (_parse_bool, "complex_mode", "draw complex perturbations"),
    "oracle_crosscheck_max_dim": (
        int,
        "oracle_crosscheck_max_dim",
        "run the dense crosscheck when m_a*m_b is at most this (default 64)",
    ),
}


def _read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Plain `key = value` lines; '#' starts a comment; unknown and repeated keys are errors."""
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: config key {key!r} repeats line {values[key][0]}")
        values[key] = lineno, value.strip()
    return values


def _resolve_sweep_config(args) -> SweepConfig:
    given = [
        (f"config key {key}", key, text)
        for key, (_, text) in (_read_config_file(args.config) if args.config else {}).items()
    ]
    given += [
        ("--" + key.replace("_", "-"), key, getattr(args, key))
        for key in _SETTINGS
        if getattr(args, key) is not None
    ]
    values = {}
    # the file first, then the flags: an explicit flag wins over a file value
    for name, key, text in given:
        try:
            values[key] = _SETTINGS[key][0](text)
        except ValueError as exc:
            raise UsageError(f"{name} must be an integer") from exc

    c3 = values.pop("c3", DEFAULT_C[2])
    c4 = values.pop("c4", DEFAULT_C[3])
    # hypot neither overflows for huge weights nor underflows for tiny ones
    scale = float(np.hypot(abs(c3), abs(c4)))
    if scale == 0.0:
        raise UsageError("c3 and c4 cannot both be zero")
    try:
        return SweepConfig(
            c=(0j, 0j, complex(c3 / scale), complex(c4 / scale)),
            **{_SETTINGS[key][1]: value for key, value in values.items()},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _workers_from_env() -> int | None:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError as exc:
        raise UsageError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise UsageError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# output files


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest; used to fingerprint output files in the manifest."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def _text_value(value) -> str:
    """Shortest round-trip text of an int, float or complex; a row joins its entries."""
    if isinstance(value, np.ndarray):
        return " ".join(_text_value(v) for v in value)
    if isinstance(value, complex):
        return repr(complex(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv_text(points: list[SweepPoint]) -> str:
    lines = [CSV_HEADER]
    for p in points:
        row = (p.n, p.two_s, p.trials, p.mean_c, p.std_c, p.mean_tau, p.std_tau,
               p.mean_gap, p.std_gap, p.mean_abs_gap, p.min_monogamy_slack)
        lines.append(",".join(_text_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _plot_text(n_values: tuple[int, ...]) -> str:
    def series(col: int) -> str:
        return ", \\\n     ".join(
            f'"sweep.csv" skip 1 using (column(1)=={n} ? column(2)/2.0 : 1/0):(column({col})) '
            f'with linespoints title "n={n}"'
            for n in n_values
        )

    return "\n".join(
        [
            "# Mean internal concurrence against the apparatus spin S, one curve per",
            "# perturbation schedule; inset: signed mean gap C^2 - tau.",
            'set datafile separator ","',
            "set logscale x",
            "set multiplot",
            "set size 1,1",
            "set origin 0,0",
            'set xlabel "S"',
            'set ylabel "mean concurrence"',
            "set key bottom right",
            "plot " + series(4),
            "set size 0.42,0.38",
            "set origin 0.52,0.20",
            'set xlabel ""',
            'set ylabel "mean gap"',
            "unset key",
            "plot " + series(8),
            "unset multiplot",
            "",
        ]
    )


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _manifest_text(config: SweepConfig, started: str, finished: str, digests: dict) -> str:
    """tool, SweepConfig's fields in declaration order (c as c1..c4), the times, the digests."""
    record = [("tool", f"spinshield {__version__}")]
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "c":
            record += [(f"c{d}", v) for d, v in enumerate(value, start=1)]
        elif isinstance(value, tuple):
            record.append((field.name, ",".join(str(v) for v in value)))
        elif isinstance(value, bool):
            record.append((field.name, "true" if value else "false"))
        else:
            record.append((field.name, value))
    record += [("started", started), ("finished", finished)]
    record += [(f"digest.{name}", f"{digests[name]:016x}") for name in sorted(digests)]
    return _render_text(record) + "\n"


def _write(path: Path, text: str) -> bytes:
    data = text.encode()
    path.write_bytes(data)
    return data


def cmd_sweep(args) -> int:
    config = _resolve_sweep_config(args)
    workers = _workers_from_env()
    plan_sweep(config, workers)  # refuses a run that cannot fit before --out exists
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise UsageError(f"--out {args.out!r} cannot be made a directory: {exc}") from exc

    started = _utc_now()
    points = run_sweep(config, workers=workers)
    finished = _utc_now()

    digests = {}
    digests["sweep.csv"] = fnv1a64(_write(out_dir / "sweep.csv", _csv_text(points)))
    digests["plot.gp"] = fnv1a64(_write(out_dir / "plot.gp", _plot_text(config.n_values)))
    _write(out_dir / "manifest.txt", _manifest_text(config, started, finished, digests))
    return 0


# ---------------------------------------------------------------------------
# verify


def _case_point(case: int, two_s_max: int) -> tuple[int, float]:
    """(two_s, x_max) of a case, the same for every family."""
    return 1 + (case - 1) % two_s_max, _VERIFY_X_MAXES[(case - 1) % len(_VERIFY_X_MAXES)]


def _verify_draws(master_seed: int, family_index: int, two_s_max: int, cases: range) -> tuple:
    """(c, x, y) of a family's cases, which share one two_s, stacked in case order.

    Each case's stream is read once: theta and the two phases of its device
    weights, then its unit rows through _Draws, that is model._unit_rows, the
    draw of sample_coefficients too, scaled by its x_max last as
    sample_coefficients(SpinDims(two_s), x_max, x_max, c, rng) scales them.
    """
    two_s = _case_point(cases[0], two_s_max)[0]
    draws = _Draws(two_s + 1, len(cases), complex_mode=False)
    c = np.zeros((len(cases), 4), np.complex128)
    for i, case in enumerate(cases):
        rng = trial_rng(master_seed, 1000 * family_index + two_s, case)
        theta = rng.uniform(0.0, np.pi / 2.0)
        phases = np.exp(2j * np.pi * rng.random(2))
        c[i, 2:] = np.cos(theta) * phases[0], np.sin(theta) * phases[1]
        draws.draw(i, rng)
    x_maxes = np.array([_case_point(case, two_s_max)[1] for case in cases])
    return (c, *_padded_xy(draws.unit, x_maxes[:, None, None]))


# Each family checks stacked draws (c, x, y) against tol and gives one verdict
# per draw, or raises the error of its first failing draw.  The families and
# their table look their callees up as module attributes when called, so that
# perfbench's tracer, which patches those attributes, sees every call


def _check_monogamy(c, x, y, tol):
    # the paper's tau >= C**2 on the reported C and tau: the closed forms refuse
    # a negative slack, and the slack must be tau - C**2 within tol
    conc, tau, slack = closedform._measures(c, x, y)
    return np.abs((tau - conc * conc) - slack) <= tol


def _check_oracle_concurrence(c, x, y, tol):
    value = oracle.wootters_concurrence(oracle.reduce(oracle.assemble_state(c, x, y), "D"))
    return np.abs(closedform._measures(c, x, y)[0] - value) <= tol


def _check_oracle_tangle(c, x, y, tol):
    value = oracle.one_tangle(oracle.reduce(oracle.assemble_state(c, x, y), "Q1"))
    return np.abs(closedform._measures(c, x, y)[1] - value) <= tol


def _check_symmetry(c, x, y, tol):
    state = oracle.assemble_state(c, x, y)
    tau1, tau2 = (oracle.one_tangle(oracle.reduce(state, keep)) for keep in ("Q1", "Q2"))
    return np.abs(tau1 - tau2) <= tol


def _check_quadratic_gap(c, x, y, tol):
    # the gap is quadratic in the perturbation scale: each halving must cut it
    # to at most 0.4 of its value (ideally 0.25).  A draw's three scalings are
    # the last axis of one stack
    t = np.array([0.125, 0.0625, 0.03125])[:, None, None]
    slack = closedform._measures(c[:, None], t * x[:, None], t * y[:, None])[2]
    g1, g2, g3 = np.abs(slack).T
    return (g2 <= 0.4 * g1) & (g3 <= 0.4 * g2)


def _verify_checks() -> dict:
    return {
        "monogamy": _check_monogamy,
        "oracle-concurrence": _check_oracle_concurrence,
        "oracle-tangle": _check_oracle_tangle,
        "symmetry": _check_symmetry,
        "separability": oracle.separability_structure_check,
        "quadratic-gap": _check_quadratic_gap,
    }


def _verify_chunk(args, family_index: int, check, cases: range) -> dict:
    """{case: verdict} of a chunk of a family's cases: True, False, or the error the case raises alone.

    A chunk is whole rounds of two_s_max cases, so the cases at each two_s
    are a range, one stack checked at once; oracle.per_entry gives each
    case of a stack that raises its own verdict or error.
    """
    verdicts = {}
    for two_s in range(1, min(args.two_s_max, len(cases)) + 1):
        group = cases[two_s - 1::args.two_s_max]
        c, x, y = _verify_draws(args.seed, family_index, args.two_s_max, group)
        ok = np.zeros(len(group), dtype=bool)

        def run(idx):
            ok[idx] = check(c[idx], x[idx], y[idx], args.tol)

        errors = oracle.per_entry(run, len(group))
        verdicts.update((case, errors.get(i, bool(ok[i]))) for i, case in enumerate(group))
    return verdicts


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise UsageError("--cases must be >= 1")
    two_s_gate = math.isqrt(oracle.ORACLE_MAX_DIM) - 1  # m_a m_b = (two_s + 1)**2
    if not 1 <= args.two_s_max <= two_s_gate:
        raise UsageError(f"--two-s-max must be in [1, {two_s_gate}] (dense-oracle gate)")
    if not 0 < args.tol < math.inf:
        raise UsageError("--tol must be positive and finite")

    all_pass = True
    # a stack holds one case a round: a chunk has as many rounds as cases at two_s_max fit the budget
    chunk = args.two_s_max * _batch_states(args.two_s_max + 1, args.two_s_max + 1)
    # the family's position seeds its cases, so the table's order is part of the output
    for family_index, (family, check) in enumerate(_verify_checks().items()):
        passed = 0
        for first in range(1, args.cases + 1, chunk):
            cases = range(first, min(first + chunk, args.cases + 1))
            for case, verdict in sorted(_verify_chunk(args, family_index, check, cases).items()):
                if verdict is True:
                    passed += 1
                    continue
                # a validated type refuses a draw with a ValueError (LinAlgError too)
                if isinstance(verdict, Exception) and not isinstance(verdict, ValueError):
                    raise verdict
                two_s, x_max = _case_point(case, args.two_s_max)
                reason = "" if verdict is False else f": {verdict}"
                print(
                    f"FAIL {family}: case={case} two_s={two_s} x_max={x_max} seed={args.seed}{reason}",
                    file=sys.stderr,
                )
        print(f"{family}: {passed}/{args.cases}")
        if passed != args.cases:
            all_pass = False
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# single


def _single_record(args) -> list[tuple[str, object]]:
    """One draw in output order: settings, draw, branch sums, measures, oracle data.

    Values are ints, floats, complex numbers, complex rows (1-D arrays) and
    complex matrices (2-D arrays); the oracle data is present when the dense
    oracle can build the state, and rho_M only for m_a*m_b <= 16.
    """
    try:
        dims = SpinDims(args.two_s)
        check_memory_budget(dims)
        x_max = x_max_schedule(args.two_s, args.n)
    except ValueError as exc:  # MemoryBudgetError included
        raise UsageError(str(exc)) from exc
    rng = trial_rng(args.seed, args.two_s, 1)
    cs = sample_coefficients(dims, x_max, x_max, DEFAULT_C, rng, args.complex)
    bs = closedform.branch_sums(cs)
    report = closedform.evaluate(cs)
    record = [
        ("two_s", args.two_s),
        ("n", args.n),
        ("seed", args.seed),
        ("x_max", x_max),
        ("m_a", dims.m_a),
        ("m_b", dims.m_b),
        ("c", cs.c),
        ("x3", cs.x[2]),
        ("x4", cs.x[3]),
        ("y3", cs.y[2]),
        ("y4", cs.y[3]),
        ("N", normalization(cs.c, cs.x, cs.y)),
        ("X3", bs.X3),
        ("X4", bs.X4),
        ("Y3", bs.Y3),
        ("Y4", bs.Y4),
        ("X34", bs.X34),
        ("Y34", bs.Y34),
        ("C", report.concurrence),
        ("tau", report.one_tangle),
        ("gap", report.gap),
        ("slack", report.monogamy_slack),
    ]
    if dims.m_a * dims.m_b <= oracle.ORACLE_MAX_DIM:
        state = oracle.assemble_state(cs.c, cs.x, cs.y)
        rho_d = oracle.reduce(state, "D")
        rho_q1 = oracle.reduce(state, "Q1")
        record += [
            ("C_oracle", oracle.wootters_concurrence(rho_d)),
            ("tau_oracle_q1", oracle.one_tangle(rho_q1)),
            ("tau_oracle_q2", oracle.one_tangle(oracle.reduce(state, "Q2"))),
            ("rho_D", rho_d.entries),
            ("rho_Q1", rho_q1.entries),
        ]
        if dims.m_a * dims.m_b <= 16:
            record.append(("rho_M", oracle.reduce(state, "M").entries))
    return record


def _render_text(record) -> str:
    """`key = value` lines; a matrix takes one `key[i] = ...` line per row."""
    lines = []
    for key, value in record:
        if key == "c":  # a draw populates only the d = 3, 4 weights
            lines += [f"c3 = {_text_value(value[2])}", f"c4 = {_text_value(value[3])}"]
        elif isinstance(value, np.ndarray) and value.ndim == 2:
            lines += [f"{key}[{i}] = {_text_value(row)}" for i, row in enumerate(value)]
        else:
            lines.append(f"{key} = {_text_value(value)}")
    return "\n".join(lines)


def _json_value(value):
    """A complex number becomes its [re, im] pair, an array a (nested) list of them."""
    if isinstance(value, np.ndarray):
        return [_json_value(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _render_json(record) -> str:
    return json.dumps({key: _json_value(value) for key, value in record}, sort_keys=True, indent=2)


def cmd_single(args) -> int:
    record = _single_record(args)
    print(_render_json(record) if args.json else _render_text(record))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinshield",
        description="Entanglement protection of a qubit pair coupled to two large spins.",
    )
    parser.add_argument("--version", action="version", version=f"spinshield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the Monte Carlo sweep and write CSV outputs")
    for key, (parse, _, help_text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _parse_bool:  # a switch with no value
            p_sweep.add_argument(flag, dest=key, action="store_const", const="true", help=help_text)
        else:
            p_sweep.add_argument(flag, dest=key, help=help_text)
    p_sweep.add_argument("--config", help="key = value config file; flags override it")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property suites on random draws")
    p_verify.add_argument("--two-s-max", dest="two_s_max", type=int, default=8)
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--tol", type=float, default=1e-10, help=(
        "absolute tolerance (default 1e-10); below about 1e-15, the float64 rounding of the checked "
        "entries, a verdict depends on how BLAS rounds the oracle's real products"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_single = sub.add_parser("single", help="dump one draw in full")
    p_single.add_argument("--two-s", dest="two_s", type=int, required=True)
    p_single.add_argument("--n", type=int, default=1)
    p_single.add_argument("--seed", type=int, default=0)
    p_single.add_argument("--complex", action="store_true")
    fmt = p_single.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    p_single.set_defaults(func=cmd_single)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (UsageError, MemoryBudgetError) as exc:  # both refused before any work
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: never a traceback, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
