"""Monte Carlo protocol: average both measures over many draws per spin size.

For every spin gridpoint and every schedule exponent n the perturbation
bound is x_max = y_max = 1 / (2 S**n).  Reproducibility contract: the stream
for trial t at gridpoint two_s is seeded by splitmix64-mixing the tuple
(master_seed, two_s, t) and feeds numpy's PCG64, so a given configuration
produces bitwise-identical results no matter how many workers run it.  The
trial streams are shared across the exponents n on purpose: every n sees the
same underlying draws scaled by its own bound, which makes the comparison
between schedules exact rather than statistical.  The engine reads each
stream once, into buffers that a task reuses, and evaluates the closed forms
for every n from it, a batch of trials at a time; the dense crosscheck runs
on the same buffers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import closedform, oracle
from .model import SpinDims, _check_unit_norm, _is_integer, x_max_schedule
from .model import sample_coefficients  # noqa: F401  looked up by name in perfbench/tracer.PATCHES

DEFAULT_TWO_S_GRID = (2, 4, 10, 20, 40, 100, 200, 400, 1000)
DEFAULT_C = (0j, 0j, complex(1.0 / np.sqrt(2.0)), complex(1.0 / np.sqrt(2.0)))

ORACLE_CROSSCHECK_TOL = 1e-10

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 output function (Steele, Lea & Flood's published constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, two_s: int, trial: int) -> int:
    """64-bit seed for one trial; part of the output contract.

    Folds the tuple left to right with h = mix64(h ^ mix64(part)), starting
    from h = 0.  Inputs are reduced modulo 2**64 first.
    """
    h = 0
    for part in (master_seed, two_s, trial):
        h = _mix64(h ^ _mix64(int(part) & _MASK64))
    return h


def trial_rng(master_seed: int, two_s: int, trial: int) -> np.random.Generator:
    """Independent PCG64 stream for one trial."""
    return np.random.Generator(np.random.PCG64(trial_seed(master_seed, two_s, trial)))


class SweepError(RuntimeError):
    """A trial failed; carries the (two_s, n, trial) coordinates for diagnosis."""

    def __init__(self, two_s: int, n: int, trial: int, message: str):
        super().__init__(f"sweep failed at two_s={two_s}, n={n}, trial={trial}: {message}")
        self.two_s = two_s
        self.n = n
        self.trial = trial
        self.detail = message

    def __reduce__(self):
        return (SweepError, (self.two_s, self.n, self.trial, self.detail))


class MemoryBudgetError(ValueError):
    """A run whose batches of draws, one per worker process, and result rows cannot fit in physical memory."""


# A (C, tau, slack) result row is 24 bytes, held twice by run_sweep: in its
# task's array and in its two_s's concatenation of the task arrays.
_ROW_BYTES = 2 * 3 * 8

# A task's batch of trials holds at most this many bytes, unless a single
# trial needs more: at two_s = 100000 one trial needs 16.0 MB, so a batch
# there is one trial.
_BATCH_BYTES = 1 << 22


def _draw_bytes(dims: SpinDims) -> int:
    """Bytes one trial holds at once: 64 (m_a + m_b) + 32 max(m_a, m_b).

    At m_a = m_b = m that is 160 m: a single draw as a CoefficientSet, as
    ``single`` makes it, is two 4 x m complex128 matrices
    plus two rows of temporaries.  The engine holds less: per trial, the
    unit draw of four complex128 rows (64 m), one side's two rows scaled by
    one n's bound (32 m) and temporaries of at most two complex128 rows
    (32 m), 128 m in all; per batch, one row's uniforms (16 m).  Real mode
    holds float64 rows and no separate uniforms.
    """
    return 64 * (dims.m_a + dims.m_b) + 32 * max(dims.m_a, dims.m_b)


def _batch_trials(dims: SpinDims) -> int:
    """Trials a task draws and evaluates at once: as many as fit _BATCH_BYTES, at least one."""
    return max(1, _BATCH_BYTES // _draw_bytes(dims))


def _batch_states(m_a: int, m_b: int) -> int:
    """Dense m_a x m_b states (64 m_a m_b bytes each) that fit _BATCH_BYTES, at least one: an oracle stack."""
    return max(1, _BATCH_BYTES // (64 * m_a * m_b))


def trial_peak_bytes(dims: SpinDims) -> int:
    """Upper bound on the bytes a sweep worker holds at once: one batch of trials at ``dims``.

    That is the batch's trials times one trial's bytes (see _draw_bytes),
    within _BATCH_BYTES or, where one trial needs more, one trial's bytes.
    A batch's buffers are freed when its task ends.
    """
    return _batch_trials(dims) * _draw_bytes(dims)


def _physical_memory_bytes() -> int | None:
    """Page size x physical pages, or None where the platform does not report them."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def check_memory_budget(dims: SpinDims, processes: int = 1, rows: int = 0) -> None:
    """Raise MemoryBudgetError if what a run holds at once cannot fit in physical memory.

    That is one batch of draws at ``dims`` on each of ``processes`` workers,
    and ``rows`` result rows, each counted twice (see _ROW_BYTES).
    """
    per_worker = trial_peak_bytes(dims)
    physical = _physical_memory_bytes()
    if physical is not None and per_worker * processes + _ROW_BYTES * rows > physical:
        from decimal import Decimal  # exact for any int, where a float would overflow

        def gb(n: int) -> str:
            return f"{Decimal(n) / 10**9:.3g}"

        result_rows = f", and {gb(_ROW_BYTES * rows)} GB for {rows} result rows" if rows else ""
        raise MemoryBudgetError(
            f"a draw at m_a = {dims.m_a}, m_b = {dims.m_b} needs up to {gb(per_worker)} GB "
            f"per worker process, {gb(per_worker * processes)} GB for {processes}{result_rows}, "
            f"more than the {gb(physical)} GB of physical memory"
        )


@dataclass(frozen=True)
class SweepConfig:
    """Protocol parameters for one sweep."""

    two_s_values: tuple[int, ...] = DEFAULT_TWO_S_GRID
    n_values: tuple[int, ...] = (1, 2, 3)
    trials: int = 200
    c: tuple[complex, ...] = DEFAULT_C
    master_seed: int = 0
    complex_mode: bool = False
    oracle_crosscheck_max_dim: int = 64

    def __post_init__(self):
        for name in ("two_s_values", "n_values", "trials", "master_seed"):
            value = getattr(self, name)
            if not all(map(_is_integer, value if name.endswith("_values") else (value,))):
                raise ValueError(f"{name} must hold integers, got {value!r}")
        if not self.two_s_values:
            raise ValueError("two_s_values must be nonempty")
        if any(v < 1 for v in self.two_s_values):
            raise ValueError("every two_s value must be >= 1")
        if list(self.two_s_values) != sorted(set(self.two_s_values)):
            raise ValueError("two_s_values must be strictly ascending")
        if not self.n_values or not set(self.n_values) <= {1, 2, 3}:
            raise ValueError("n_values must be a nonempty subset of {1, 2, 3}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.c) != 4:
            raise ValueError("c must have length 4")
        c = tuple(complex(v) for v in self.c)
        if not np.isfinite(c).all():
            raise ValueError("every device weight c must be finite")
        # refused here, not at trial 1 after the workers have started
        _check_unit_norm(c)
        if c[0] != 0 or c[1] != 0:
            raise ValueError("the sweep draws the two-level device: c1 and c2 must be 0")
        if not 0 <= self.oracle_crosscheck_max_dim <= oracle.ORACLE_MAX_DIM:
            raise ValueError(
                f"oracle_crosscheck_max_dim must be in [0, {oracle.ORACLE_MAX_DIM}], "
                "the dense oracle's gate on m_a*m_b"
            )
        object.__setattr__(self, "two_s_values", tuple(int(v) for v in self.two_s_values))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "n_values", tuple(sorted(set(int(v) for v in self.n_values))))
        object.__setattr__(self, "c", c)
        # the grid's smallest bound must be a positive float64, checked before any work
        x_max_schedule(self.two_s_values[-1], self.n_values[-1])


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated statistics of one (two_s, n) gridpoint."""

    two_s: int
    n: int
    trials: int
    mean_c: float
    std_c: float
    mean_tau: float
    std_tau: float
    mean_gap: float
    std_gap: float
    mean_abs_gap: float
    min_monogamy_slack: float

    def __post_init__(self):
        if not 0.0 <= self.mean_c <= 1.0 or not 0.0 <= self.mean_tau <= 1.0:
            raise ValueError("mean concurrence and one-tangle must lie in [0, 1]")
        if not all(s >= 0.0 for s in (self.std_c, self.std_tau, self.std_gap)):
            raise ValueError("standard deviations must be nonnegative")
        if not self.min_monogamy_slack >= 0.0:
            raise ValueError(f"monogamy violated: min slack {self.min_monogamy_slack!r}")


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values)) + 0.0
    if values.size < 2 or np.ptp(values) == 0.0:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1))


def summarize(rows: np.ndarray, two_s: int, n: int) -> SweepPoint:
    """The point's statistics from its (trials, 3) rows of (C, tau, slack) in trial order.

    Means, and sample standard deviations with the n-1 denominator.  The gap
    C**2 - tau is the slack's exact negation, and negation commutes exactly
    with numpy's pairwise sum and with np.std, so the gap columns are the
    slack's statistics negated.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 3 or not len(rows):
        raise ValueError(f"summarize requires a nonempty (trials, 3) array, got {rows.shape}")
    c, tau, slack = rows.T
    mean_slack, std_slack = _mean_std(slack)
    return SweepPoint(
        two_s, n, len(rows), *_mean_std(c), *_mean_std(tau),
        -mean_slack + 0.0, std_slack, mean_slack, float(slack.min()),
    )


class _Draws:
    """Buffers for a batch of trials' unit draws at one two_s, reused by each batch of a task.

    A trial's stream is read in the order of sample_coefficients: rows x3,
    x4, y3, y4, and in complex mode each row's moduli u and then its phases
    v.  The uniforms are checked finite before any arithmetic on them, and
    become the trial's unit rows 1 - u, times exp(2 pi i v) in complex mode.
    ``side`` applies an n's bound last, as sample_coefficients does.
    """

    def __init__(self, m: int, size: int, complex_mode: bool):
        self.unit = np.empty((size, 4, m), np.complex128 if complex_mode else np.float64)
        self.rows = np.empty((size, 2, m), self.unit.dtype)
        self.u = np.empty((2, m)) if complex_mode else None  # one complex row's u, then its v

    def draw(self, t: int, rng: np.random.Generator) -> None:
        """Read the batch's trial t from its stream and form its unit rows; ValueError unless finite."""
        unit = self.unit[t]
        if self.u is None:
            rng.random(out=unit)
            if not np.isfinite(unit).all():
                raise ValueError("array entries must be finite")
            np.subtract(1.0, unit, out=unit)
            return
        for row in unit:
            rng.random(out=self.u)
            if not np.isfinite(self.u).all():
                raise ValueError("array entries must be finite")
            np.multiply(2j * np.pi, self.u[1], out=row)
            np.exp(row, out=row)
            row *= np.subtract(1.0, self.u[0], out=self.u[0])

    def side(self, side: int, bound: float, size: int) -> np.ndarray:
        """Side 0 (x) or 1 (y) of the first ``size`` trials, (size, 2, m): their unit rows times bound."""
        return np.multiply(self.unit[:size, 2 * side:2 * side + 2], bound, out=self.rows[:size])


def _padded_xy(unit: np.ndarray, bound) -> tuple:
    """(x, y), (k, 4, m) complex perturbations zero in levels 1-2, of unit rows x3, x4, y3, y4 (k, 4, m) times bound.

    The bound applies last, as _Draws.side and sample_coefficients apply it;
    it is one number, or one per draw shaped (k, 1, 1).
    """
    k, m = len(unit), unit.shape[-1]
    xy = np.zeros((2, k, 4, m), np.complex128)
    np.multiply(unit.reshape(k, 2, 2, m).swapaxes(0, 1), bound, out=xy[:, :, 2:])
    return xy[0], xy[1]


def _crosscheck(config: SweepConfig, bounds: list, first: int, unit: np.ndarray, rows: np.ndarray):
    """The first (n, trial, cause) at which the dense oracle disagrees with the engine on a batch, or None.

    ``unit`` (trials, 4, m) holds the unit rows x3, x4, y3, y4 the engine
    drew for trials first, first + 1, ..., and ``rows`` (n, trials, 3) its
    results for the n of ``bounds``.  For each n the oracle runs once on the
    unit rows scaled by its bound (_padded_xy), a chunk of _batch_states
    trials at a time.  The first is the one a pass over the trials in order,
    and over the n within each, would meet first.
    """
    c, m = np.array(config.c), unit.shape[-1]
    chunk = _batch_states(m, m)
    for lo in range(0, len(unit), chunk):
        part = unit[lo:lo + chunk]
        k = len(part)
        oracle_rows = np.full((len(bounds), k, 2), np.nan)
        errors = {}  # (trial offset, n index) -> the oracle's error
        for j, bound in enumerate(bounds):
            x, y = _padded_xy(part, bound)

            def run(idx, j=j, x=x, y=y):
                state = oracle.assemble_state(c, x[idx], y[idx])
                oracle_rows[j, idx, 0] = oracle.wootters_concurrence(oracle.reduce(state, "D"))
                oracle_rows[j, idx, 1] = oracle.one_tangle(oracle.reduce(state, "Q1"))

            errors.update(((t, j), exc) for t, exc in oracle.per_entry(run, k).items())
        dev = np.abs(rows[:, lo:lo + k, :2] - oracle_rows)
        bad = (dev > ORACLE_CROSSCHECK_TOL).any(axis=-1).T  # trial-major, as the trials run
        for t, j in errors:
            bad[t, j] = True
        if bad.any():
            t, j = (int(v) for v in np.argwhere(bad)[0])
            cause = errors.get((t, j)) or ValueError(
                f"closed form disagrees with oracle (dC={dev[j, t, 0]:.3e}, dtau={dev[j, t, 1]:.3e})"
            )
            return config.n_values[j], first + lo + t, cause
    return None


def _task_rows(config: SweepConfig, two_s: int, first: int, stop: int) -> np.ndarray:
    """(C, tau, slack) rows of trials first .. stop - 1 at two_s for every n: shape (n, trials, 3).

    Each trial's stream is read once and serves every n, and the crosscheck
    of a batch runs on the engine's unit draws.  A failure names its trial
    and n; a failure in the shared draw names the config's first n.  The
    first crosscheck failure is held until the last batch is done, so an
    engine failure in any batch is reported first.
    """
    dims = SpinDims(two_s)
    bounds = [x_max_schedule(two_s, n) for n in config.n_values]
    w3, w4 = (abs(v) for v in config.c[2:])
    held = None
    out = np.empty((len(bounds), stop - first, 3))
    batch = min(_batch_trials(dims), stop - first)
    draws = _Draws(dims.m_a, batch, config.complex_mode)
    for lo in range(first, stop, batch):
        hi = min(lo + batch, stop)
        for trial in range(lo, hi):
            try:
                draws.draw(trial - lo, trial_rng(config.master_seed, two_s, trial))
            except Exception as exc:
                raise SweepError(two_s, config.n_values[0], trial, str(exc)) from exc
        for j, (n, bound) in enumerate(zip(config.n_values, bounds)):
            x_sums = closedform._side_sums(draws.side(0, bound, hi - lo))
            y_sums = closedform._side_sums(draws.side(1, bound, hi - lo))
            measures = closedform._from_sums(x_sums, y_sums, w3, w4)
            failure = closedform._first_failure(x_sums, y_sums, *measures)
            if failure is not None:
                i, message = failure
                raise SweepError(two_s, n, lo + i, message)
            out[j, lo - first:hi - first] = np.stack(measures, axis=-1)
        if held is None and dims.m_a * dims.m_b <= config.oracle_crosscheck_max_dim:
            held = _crosscheck(config, bounds, lo, draws.unit[:hi - lo], out[:, lo - first:hi - first])
    if held is not None:
        n, trial, cause = held
        raise SweepError(two_s, n, trial, str(cause)) from cause
    return out


def _usable_cores() -> int:
    """The cores this process may run on (all cores where the platform does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def plan_sweep(config: SweepConfig, workers: int | None = None) -> tuple[int, int]:
    """(chunks, processes) of ``run_sweep(config, workers)``; MemoryBudgetError if it cannot fit.

    ``workers`` is an integer >= 1, capped at the usable cores, which are
    also the default.  Each two_s's trials split into ``chunks`` contiguous
    chunks: 1 in a serial run, else at least 2 tasks per worker, 1 chunk per
    two_s once there are that many two_s values.  ``processes`` hold draws
    at once: the workers or the tasks, whichever is fewer.  The run is
    refused if one batch of its largest draws per process and every result
    row exceed physical memory (see check_memory_budget).
    """
    if workers is not None and not (_is_integer(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cores = _usable_cores()
    workers = cores if workers is None else min(int(workers), cores)
    chunks = 1 if workers == 1 else min(config.trials, -(-2 * workers // len(config.two_s_values)))
    processes = min(workers, len(config.two_s_values) * chunks)
    rows = len(config.two_s_values) * len(config.n_values) * config.trials
    check_memory_budget(SpinDims(config.two_s_values[-1]), processes, rows)
    return chunks, processes


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[SweepPoint]:
    """Evaluate every (n, two_s) gridpoint; n-major, two_s-minor output order.

    ``workers`` bounds the number of worker processes (default and cap: the
    usable cores).  A task is one two_s and a contiguous chunk of its trials,
    evaluated for every n; plan_sweep sets the chunks and the processes.  The
    worker count cannot change the results: every trial owns a stream derived
    only from (master_seed, two_s, trial), and each point is aggregated from
    its rows in trial order.  Any failed trial aborts the sweep with a
    SweepError naming its coordinates; trials are never silently skipped.  A
    sweep whose largest batch of draws, once per worker process, and result
    rows exceed physical memory raises MemoryBudgetError before any trial runs.
    """
    chunks, processes = plan_sweep(config, workers)
    bounds = [1 + config.trials * i // chunks for i in range(chunks + 1)]
    tasks = [(config, two_s, lo, hi) for two_s in config.two_s_values for lo, hi in zip(bounds, bounds[1:])]
    if processes == 1:
        results = [_task_rows(*t) for t in tasks]
    else:
        # imported here: serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_task_rows, *zip(*tasks)))
    rows = [np.concatenate(results[i * chunks:(i + 1) * chunks], axis=1) for i in range(len(config.two_s_values))]
    return [
        summarize(rows[i][j], two_s, n)
        for j, n in enumerate(config.n_values)
        for i, two_s in enumerate(config.two_s_values)
    ]
