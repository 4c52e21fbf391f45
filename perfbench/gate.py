"""Output gate: checks a run's files against a reference that shares no code with src/.

The reference re-derives every `sweep.csv` aggregate from the published
contract alone: the splitmix64 fold of (master_seed, two_s, trial) seeds a
PCG64 stream, the four perturbation rows are drawn as `bound * (1 - u)` in
the order x3, x4, y3, y4, and the closed forms are evaluated with plain
numpy sums.

Tolerance: a value passes when |got - ref| <= ABS_TOL + REL_TOL * |ref|.
A changed draw stream moves the small-spin rows of the default protocol by
about 1e-3, far outside it.  Changes in the last digits (compensated or
cancellation-free sums, a batched draw of the same stream) stay inside it:
the gap and slack columns are absolute quantities near 1e-16 at large spin,
where only ABS_TOL applies.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CSV_HEADER = "n,two_s,trials,mean_c,std_c,mean_tau,std_tau,mean_gap,std_gap,mean_abs_gap,min_slack"
FLOAT_COLUMNS = CSV_HEADER.split(",")[3:]
VERIFY_FAMILIES = (
    "monogamy",
    "oracle-concurrence",
    "oracle-tangle",
    "symmetry",
    "separability",
    "quadratic-gap",
)
ABS_TOL = 1e-12
REL_TOL = 1e-9

# default device weights c3 = c4 = 1/sqrt(2)
_C3 = _C4 = 1.0 / math.sqrt(2.0)
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, two_s: int, trial: int) -> int:
    h = 0
    for part in (master_seed, two_s, trial):
        h = _mix64(h ^ _mix64(part & _MASK64))
    return h


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2 or np.ptp(values) == 0.0:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1))


def reference_rows(two_s_values, n_values, trials: int, seed: int) -> dict:
    """Expected float columns of sweep.csv, keyed by (n, two_s)."""
    rows = {}
    for two_s in two_s_values:
        m = two_s + 1
        c = {n: np.empty(trials) for n in n_values}
        tau = {n: np.empty(trials) for n in n_values}
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(trial_seed(seed, two_s, t + 1)))
            u = [1.0 - rng.random(m) for _ in range(4)]
            for n in n_values:
                bound = 1.0 / (2.0 * (two_s / 2.0) ** n)
                x3, x4, y3, y4 = (1.0 + bound * r for r in u)
                X3, X4, Y3, Y4 = (float(np.dot(v, v)) for v in (x3, x4, y3, y4))
                X34, Y34 = float(np.dot(x3, x4)), float(np.dot(y3, y4))
                n_sq = _C3**2 * X3 * Y3 + _C4**2 * X4 * Y4
                c[n][t] = 2.0 * _C3 * _C4 * abs(X34 * Y34) / n_sq
                tau[n][t] = 4.0 * (_C3 * _C4) ** 2 * (X3 * X4) * (Y3 * Y4) / n_sq**2
        for n in n_values:
            gap = c[n] ** 2 - tau[n]
            rows[(n, two_s)] = (
                *_mean_std(c[n]),
                *_mean_std(tau[n]),
                *_mean_std(gap),
                float(np.mean(np.abs(gap))),
                float(np.min(-gap)),
            )
    return rows


def compare_rows(csv_text: str, reference: dict, order, trials: int) -> list[str]:
    """Header, row order, trial counts and every float column against the reference."""
    problems = []
    if "\r" in csv_text or not csv_text.endswith("\n"):
        problems.append("sweep.csv must use LF newlines and end with one")
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        problems.append(f"sweep.csv header is {lines[0]!r}")
    if len(lines) - 1 != len(order):
        return problems + [f"sweep.csv has {len(lines) - 1} rows, expected {len(order)}"]
    for line, (n, two_s) in zip(lines[1:], order):
        fields = line.split(",")
        if len(fields) != 3 + len(FLOAT_COLUMNS):
            problems.append(f"row n={n} two_s={two_s}: {len(fields)} fields")
            continue
        if fields[:3] != [str(n), str(two_s), str(trials)]:
            problems.append(f"row order: expected n={n} two_s={two_s} trials={trials}, got {fields[:3]}")
            continue
        for col, text, ref in zip(FLOAT_COLUMNS, fields[3:], reference[(n, two_s)]):
            got = float(text)
            if not abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref):
                problems.append(f"n={n} two_s={two_s} {col}: got {got!r}, reference {ref!r}")
    return problems


def _manifest(text: str) -> dict:
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def check_sweep(out_dir: Path, reference: dict, two_s_values, n_values, trials: int, seed: int) -> list[str]:
    """Every check the gate makes on one sweep run's output directory."""
    try:
        csv_bytes = (out_dir / "sweep.csv").read_bytes()
        plot_bytes = (out_dir / "plot.gp").read_bytes()
        manifest = _manifest((out_dir / "manifest.txt").read_text())
    except OSError as exc:
        return [f"missing output: {exc}"]
    order = [(n, two_s) for n in n_values for two_s in two_s_values]
    problems = compare_rows(csv_bytes.decode(), reference, order, trials)
    expected = {
        "digest.sweep.csv": f"{fnv1a64(csv_bytes):016x}",
        "digest.plot.gp": f"{fnv1a64(plot_bytes):016x}",
        "master_seed": str(seed),
        "trials": str(trials),
        "two_s_values": ",".join(map(str, two_s_values)),
        "n_values": ",".join(map(str, n_values)),
    }
    for key, value in expected.items():
        if manifest.get(key) != value:
            problems.append(f"manifest {key} is {manifest.get(key)!r}, expected {value!r}")
    return problems


def check_verify(stdout: str, cases: int) -> list[str]:
    """`verify` must report every family, in order, passing every case."""
    expected = [f"{family}: {cases}/{cases}" for family in VERIFY_FAMILIES]
    got = stdout.splitlines()
    return [] if got == expected else [f"verify printed {got!r}, expected {expected!r}"]
