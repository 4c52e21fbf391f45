import dataclasses
import multiprocessing
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import spinshield.sweep as sweep_mod
from spinshield import oracle
from spinshield.model import SpinDims, sample_coefficients, x_max_schedule
from spinshield.closedform import evaluate
from spinshield.oracle import ORACLE_MAX_DIM
from spinshield.sweep import (
    DEFAULT_TWO_S_GRID,
    MemoryBudgetError,
    SweepConfig,
    SweepError,
    SweepPoint,
    _mix64,
    check_memory_budget,
    plan_sweep,
    run_sweep,
    summarize,
    trial_peak_bytes,
    trial_rng,
    trial_seed,
)
from util import cxy


# ---------------------------------------------------------------------------
# stream splitting (pinned as part of the output contract)


def test_mix64_golden_values():
    assert _mix64(0) == 16294208416658607535
    assert _mix64(1) == 10451216379200822465


def test_trial_seed_golden_values():
    assert trial_seed(0, 2, 1) == 2604956420638222821
    assert trial_seed(0, 2, 2) == 11978791933748687235
    assert trial_seed(123456789, 1000, 200) == 17262197685551615133
    # negative master seeds fold into the 64-bit domain
    assert trial_seed(-1, 4, 1) == 8658841118767523735


def test_trial_rng_streams_are_independent_and_reproducible():
    a1 = trial_rng(0, 10, 1).random(4)
    a2 = trial_rng(0, 10, 1).random(4)
    b = trial_rng(0, 10, 2).random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


@pytest.mark.parametrize("master_seed", [0, 1, -1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("two_s, trial", [(1, 1), (100000, 2**31)])
def test_trial_rng_is_pcg64_seeded_by_trial_seed(master_seed, two_s, trial):
    # the seeding contract: the stream is numpy's PCG64 fed the 64-bit trial seed
    want = np.random.PCG64(trial_seed(master_seed, two_s, trial)).state
    assert trial_rng(master_seed, two_s, trial).bit_generator.state == want


def test_trial_rng_first_uniforms_golden_values():
    assert [v.hex() for v in trial_rng(0, 2, 1).random(4).tolist()] == [
        "0x1.a1a4791c69a84p-1", "0x1.7459090e1bf3dp-1", "0x1.b4f7a071f495fp-1", "0x1.357e60da331b4p-3",
    ]


# ---------------------------------------------------------------------------
# summarize


def _rows(*measures):
    """(C, tau, slack) rows with the slack taken as tau - C**2."""
    return np.array([(c, tau, tau - c * c) for c, tau in measures])


def test_summarize_single_sample():
    point = summarize(_rows((1.0, 1.0)), two_s=4, n=2)
    assert (point.two_s, point.n, point.trials) == (4, 2, 1)
    assert point.mean_c == 1.0 and point.std_c == 0.0
    assert point.mean_tau == 1.0 and point.std_tau == 0.0


def test_summarize_two_samples():
    point = summarize(_rows((0.4, 0.9), (0.6, 0.9)), two_s=2, n=1)
    assert point.trials == 2
    assert point.mean_c == pytest.approx(0.5, abs=1e-15)
    assert point.std_c == pytest.approx(0.141421, abs=5e-7)
    assert point.std_c == pytest.approx(np.sqrt(0.02), rel=1e-12)


def test_summarize_identical_samples_have_exactly_zero_std():
    point = summarize(np.repeat(_rows((0.7317, 0.8123)), 200, axis=0), two_s=2, n=1)
    assert point.std_c == 0.0
    assert point.std_tau == 0.0
    assert point.std_gap == 0.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(np.empty((0, 3)), two_s=2, n=1)


def _old_gap_columns(slack: np.ndarray) -> list[str]:
    """The gap columns as they were computed from a separate array of per-trial gaps."""
    gap = np.array([-s + 0.0 for s in slack.tolist()])
    mean_gap, std_gap = sweep_mod._mean_std(gap)
    mean_abs_gap = float(np.mean(np.abs(gap))) + 0.0
    return [v.hex() for v in (mean_gap, std_gap, mean_abs_gap, min(slack.tolist()))]


def _slack_cases():
    rng = np.random.default_rng(11)
    for size in (2, 7, 200, 1001, 20000):
        yield 10.0 ** rng.uniform(-30, -1, size)
    yield np.array([0.0123])  # a single trial
    yield np.full(200, 3.5e-18)  # identical rows
    yield np.zeros(50)


def test_summarize_gap_columns_are_bitwise_the_old_formulas():
    rng = np.random.default_rng(5)
    for slack in _slack_cases():
        rows = np.column_stack([rng.random(slack.size), rng.random(slack.size), slack])
        point = summarize(rows, two_s=2, n=1)
        got = [v.hex() for v in (point.mean_gap, point.std_gap, point.mean_abs_gap,
                                 point.min_monogamy_slack)]
        assert got == _old_gap_columns(slack)
    # all-zero slacks give a mean gap of +0.0, never -0.0
    point = summarize(np.column_stack([np.ones(3), np.ones(3), np.zeros(3)]), two_s=2, n=1)
    assert point.mean_gap.hex() == "0x0.0p+0"


# ---------------------------------------------------------------------------
# run_sweep


def test_single_trial_small_bound_keeps_concurrence_high():
    # two_s=4, n=3 puts the perturbation bound at 1/16
    assert x_max_schedule(4, 3) == pytest.approx(1 / 16)
    for seed in range(10):
        config = SweepConfig(two_s_values=(4,), n_values=(3,), trials=1, master_seed=seed)
        (point,) = run_sweep(config, workers=1)
        assert 0.99 < point.mean_c <= 1.0


def test_run_sweep_output_order_is_n_major():
    config = SweepConfig(two_s_values=(2, 4), n_values=(3, 1), trials=2)
    points = run_sweep(config, workers=1)
    assert [(p.n, p.two_s) for p in points] == [(1, 2), (1, 4), (3, 2), (3, 4)]


def test_run_sweep_monogamy_contract():
    config = SweepConfig(two_s_values=(2, 10), n_values=(1,), trials=25)
    for point in run_sweep(config, workers=1):
        assert point.min_monogamy_slack >= 0.0
        assert 0.0 <= point.mean_tau <= 1.0


def test_run_sweep_deterministic_and_worker_independent(monkeypatch):
    # 2 workers split each of the 3 two_s values into 2 chunks on any host
    monkeypatch.setattr(sweep_mod, "_usable_cores", lambda: 16)
    config = SweepConfig(two_s_values=(2, 4, 10), n_values=(1, 2), trials=20)
    serial = run_sweep(config, workers=1)
    again = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=2)
    assert serial == again
    assert serial == parallel


def test_run_sweep_shares_draws_across_exponents():
    # the same trial stream feeds every n, so at S=1 (equal bounds) the
    # aggregates coincide exactly
    config = SweepConfig(two_s_values=(2,), n_values=(1, 2, 3), trials=10)
    p1, p2, p3 = run_sweep(config, workers=1)
    assert p1.mean_c == p2.mean_c == p3.mean_c
    assert p1.mean_tau == p3.mean_tau


def test_run_sweep_oracle_crosscheck_abort_names_the_trial(monkeypatch):
    monkeypatch.setattr(sweep_mod, "ORACLE_CROSSCHECK_TOL", -1.0)
    config = SweepConfig(two_s_values=(2,), n_values=(1,), trials=3)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=1)
    assert (err.value.two_s, err.value.n, err.value.trial) == (2, 1, 1)
    assert "two_s=2" in str(err.value) and "trial=1" in str(err.value)
    # the crosscheck raises a plain ValueError, which the engine wraps with the trial's coordinates
    assert "closed form disagrees with oracle" in str(err.value)
    assert type(err.value.__cause__) is ValueError


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_sweep_error_in_a_chunk_names_the_global_trial(monkeypatch, workers):
    # one point on 2 or 3 workers runs its 7 trials as 4 or 6 chunks, 2 tasks
    # per worker; the failing trial 4 lies inside a later chunk and is still
    # reported as trial 4.  The core count is patched so the chunks are the
    # same on any host.
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched trial_rng reaches pool workers only through fork")
    monkeypatch.setattr(sweep_mod, "_usable_cores", lambda: 16)
    original = sweep_mod.trial_rng

    def failing_rng(master_seed, two_s, trial):
        if trial == 4:
            raise RuntimeError("injected failure")
        return original(master_seed, two_s, trial)

    monkeypatch.setattr(sweep_mod, "trial_rng", failing_rng)
    config = SweepConfig(two_s_values=(20,), n_values=(2,), trials=7)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=workers)
    assert (err.value.two_s, err.value.n, err.value.trial) == (20, 2, 4)
    assert "injected failure" in str(err.value)


def test_crosscheck_reads_each_trial_once_for_every_n(monkeypatch):
    # the engine reads the 4 trials of both two_s once, and the crosscheck of
    # two_s = 2 runs on the engine's draws for all 3 n without reading again
    original = sweep_mod.trial_rng
    keys = []

    def counting(master_seed, two_s, trial):
        keys.append((two_s, trial))
        return original(master_seed, two_s, trial)

    monkeypatch.setattr(sweep_mod, "trial_rng", counting)
    run_sweep(SweepConfig(two_s_values=(2, 10), n_values=(1, 2, 3), trials=4), workers=1)
    assert len(keys) == 8
    assert sorted(keys) == [(two_s, t) for two_s in (2, 10) for t in range(1, 5)]


def test_crosscheck_failure_at_a_later_n_names_that_n(monkeypatch):
    # C is lowered by 1e-6 for the second n only: trial 1 passes its
    # crosscheck at n = 1 and fails it at n = 2
    original = sweep_mod.closedform._from_sums
    calls = []

    def low_c(x_sums, y_sums, w3, w4):
        c, tau, slack = original(x_sums, y_sums, w3, w4)
        calls.append(None)
        return (c - 1e-6 if len(calls) == 2 else c), tau, slack

    monkeypatch.setattr(sweep_mod.closedform, "_from_sums", low_c)
    config = SweepConfig(two_s_values=(2,), n_values=(1, 2), trials=3)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=1)
    assert (err.value.two_s, err.value.n, err.value.trial) == (2, 2, 1)
    assert "closed form disagrees with oracle" in str(err.value)


def _per_trial_crosscheck(config, two_s, rows):
    """(n, trial, message) of the first failure of the pass the stacked crosscheck replaced.

    Each trial in order, each n within it: the oracle on the trial's unit
    draw scaled by the n's bound, one state at a time, against that n's row.
    """
    dims = SpinDims(two_s)
    for t in range(rows.shape[1]):
        unit = sample_coefficients(dims, 1.0, 1.0, config.c, trial_rng(config.master_seed, two_s, t + 1))
        for j, n in enumerate(config.n_values):
            try:
                state = oracle.assemble_state(*cxy(unit.scaled(x_max_schedule(two_s, n))))
                dc = abs(rows[j, t, 0] - oracle.wootters_concurrence(oracle.reduce(state, "D")))
                dtau = abs(rows[j, t, 1] - oracle.one_tangle(oracle.reduce(state, "Q1")))
                if dc > sweep_mod.ORACLE_CROSSCHECK_TOL or dtau > sweep_mod.ORACLE_CROSSCHECK_TOL:
                    raise ValueError(f"closed form disagrees with oracle (dC={dc:.3e}, dtau={dtau:.3e})")
            except ValueError as exc:
                return n, t + 1, str(exc)
    return None


@pytest.mark.parametrize(
    "faults",
    [
        {(3, 2): "value", (5, 1): "value"},
        {(2, 3): "error", (3, 1): "value", (4, 1): "error"},
        {(4, 1): "value", (4, 2): "error"},
        {(6, 3): "error"},
    ],
    ids=["value-then-value", "error-first", "same-trial", "last"],
)
def test_a_crosscheck_failure_inside_a_stack_names_the_per_trial_coordinates(monkeypatch, faults):
    # faults keyed by (trial, n): the oracle's C of that state is off by 1e-6,
    # or its read-out raises a ValueError naming them.  The states of a stack
    # are told apart by their rho_D, which the stack gives bit for bit
    config = SweepConfig(two_s_values=(4,), n_values=(1, 2, 3), trials=6)
    dims = SpinDims(4)
    key = {}
    for trial in range(1, 7):
        unit = sample_coefficients(dims, 1.0, 1.0, config.c, trial_rng(0, 4, trial))
        for n in config.n_values:
            rho = oracle.reduce(oracle.assemble_state(*cxy(unit.scaled(x_max_schedule(4, n)))), "D")
            key[rho.entries.tobytes()] = (trial, n)
    original = oracle.wootters_concurrence

    def faulty(rho):
        c = np.array(original(rho), ndmin=1)
        for i, entries in enumerate(rho.entries.reshape(-1, 4, 4)):
            fault = faults.get(key[entries.tobytes()])
            if fault == "error":
                raise ValueError(f"injected read-out error at {key[entries.tobytes()]}")
            if fault == "value":
                c[i] -= 1e-6
        return c if rho.entries.ndim == 3 else float(c[0])

    monkeypatch.setattr(oracle, "wootters_concurrence", faulty)
    rows = sweep_mod._task_rows(dataclasses.replace(config, oracle_crosscheck_max_dim=0), 4, 1, 7)
    n, trial, message = _per_trial_crosscheck(config, 4, rows)
    assert (trial, n) == min(faults)
    with pytest.raises(SweepError) as err:
        sweep_mod._task_rows(config, 4, 1, 7)
    assert (err.value.two_s, err.value.n, err.value.trial, err.value.detail) == (4, n, trial, message)


@pytest.mark.parametrize(
    "faults, max_dim, expected",
    [
        ({(1, 0): "c", (2, 1): "slack"}, 64, "monogamy violated: slack = -0.001"),
        ({(2, 1): "c"}, 64, "closed form disagrees with oracle"),
        ({(2, 1): "c"}, 0, None),
    ],
    ids=["engine-failure-after-held-failure", "later-batch", "crosscheck-off"],
)
def test_a_task_holds_its_first_crosscheck_failure_until_its_last_batch(monkeypatch, faults, max_dim, expected):
    # trials 1 .. 4 of two_s = 2 run in two batches of 2.  faults maps
    # (batch, offset) to "c", a C lowered by 1e-6 that only the crosscheck
    # sees, or to "slack", a negative slack that the engine refuses.  Each
    # case fails at trial 4 of batch 2, also after trial 1 of batch 1 failed
    # its crosscheck, and with the crosscheck off a lowered C passes
    monkeypatch.setattr(sweep_mod, "_BATCH_BYTES", 2 * sweep_mod._draw_bytes(SpinDims(2)))
    assert sweep_mod._batch_trials(SpinDims(2)) == 2
    original = sweep_mod.closedform._from_sums
    batches = []

    def faulty(x_sums, y_sums, w3, w4):
        c, tau, slack = (v.copy() for v in original(x_sums, y_sums, w3, w4))
        batches.append(None)
        for (batch, i), kind in faults.items():
            if batch == len(batches):
                if kind == "c":
                    c[i] -= 1e-6
                else:
                    slack[i] = -1e-3
        return c, tau, slack

    monkeypatch.setattr(sweep_mod.closedform, "_from_sums", faulty)
    config = SweepConfig(two_s_values=(2,), n_values=(1,), trials=4, oracle_crosscheck_max_dim=max_dim)
    if expected is None:
        assert sweep_mod._task_rows(config, 2, 1, 5).shape == (1, 4, 3)
        return
    with pytest.raises(SweepError) as err:
        sweep_mod._task_rows(config, 2, 1, 5)
    assert (err.value.two_s, err.value.n, err.value.trial) == (2, 1, 4)
    assert err.value.detail.startswith(expected)


def test_run_sweep_skips_crosscheck_above_gate():
    # identical results with the crosscheck disabled prove the closed form
    # alone feeds the statistics
    base = SweepConfig(two_s_values=(2,), n_values=(1,), trials=5)
    gated = SweepConfig(two_s_values=(2,), n_values=(1,), trials=5, oracle_crosscheck_max_dim=0)
    assert run_sweep(base, workers=1) == run_sweep(gated, workers=1)


def test_inset_gap_shrinks_with_spin_smoke():
    config = SweepConfig(two_s_values=(2, 10, 40), n_values=(2,), trials=50)
    points = run_sweep(config, workers=1)
    gaps = [p.mean_abs_gap for p in points]
    assert gaps[0] > gaps[1] > gaps[2]


def test_inset_gap_nonincreasing_on_default_grid():
    # default seed, default grid; at most one adjacent rise, below one
    # standard error of the difference
    by_n = {}
    for p in run_sweep(SweepConfig()):
        by_n.setdefault(p.n, []).append(p)
    for n, pts in by_n.items():
        rises = []
        for a, b in zip(pts, pts[1:]):
            if b.mean_abs_gap > a.mean_abs_gap:
                se = np.sqrt(a.std_gap**2 + b.std_gap**2) / np.sqrt(a.trials)
                rises.append((a.two_s, b.mean_abs_gap - a.mean_abs_gap, se))
        assert len(rises) <= 1, f"n={n}: {rises}"
        for _, rise, se in rises:
            assert rise < se


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("mean_c", 1.5, "must lie in"),
        ("mean_tau", -0.1, "must lie in"),
        ("std_gap", -1e-20, "nonnegative"),
        ("std_c", np.nan, "nonnegative"),
        ("std_tau", np.nan, "nonnegative"),
        ("std_gap", np.nan, "nonnegative"),
        ("min_monogamy_slack", -1e-20, "monogamy violated"),
    ],
)
def test_sweep_point_refuses_out_of_range_statistics(field, value, message):
    point = dict(two_s=2, n=1, trials=2, mean_c=0.5, std_c=0.1, mean_tau=0.6, std_tau=0.1,
                 mean_gap=-0.1, std_gap=0.1, mean_abs_gap=0.1, min_monogamy_slack=0.05)
    SweepPoint(**point)
    with pytest.raises(ValueError, match=message):
        SweepPoint(**{**point, field: value})


def test_sweep_error_is_picklable():
    err = SweepError(10, 2, 7, "boom")
    clone = pickle.loads(pickle.dumps(err))
    assert (clone.two_s, clone.n, clone.trial) == (10, 2, 7)
    assert "boom" in str(clone)


# ---------------------------------------------------------------------------
# the engine: one draw per (two_s, trial), shared by every n


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("two_s", [1, 2, 4, 7, 10, 100, 100000])
def test_engine_draw_is_sample_coefficients_for_every_n(two_s, complex_mode):
    # trials read into one batch, then scaled by each n's bound: the rows are
    # bitwise those sample_coefficients draws from the same stream.  The
    # crosscheck runs the oracle on the same unit rows, scaled the same way
    dims, c = SpinDims(two_s), SweepConfig().c
    trials = (1, 2) if two_s == 100000 else range(1, 21)
    draws = sweep_mod._Draws(dims.m_a, len(trials), complex_mode)
    for t, trial in enumerate(trials):
        draws.draw(t, trial_rng(0, two_s, trial))
    for n in (1, 2, 3):
        x_max = x_max_schedule(two_s, n)
        for side, name in ((0, "x"), (1, "y")):
            rows = draws.side(side, x_max, len(trials))
            assert rows.dtype == (np.complex128 if complex_mode else np.float64)
            for t, trial in enumerate(trials):
                cs = sample_coefficients(dims, x_max, x_max, c, trial_rng(0, two_s, trial), complex_mode)
                want = getattr(cs, name)[2:4]
                if not complex_mode:
                    assert not want.imag.any()
                    want = want.real
                assert np.ascontiguousarray(want).tobytes() == rows[t].tobytes(), (n, name, trial)


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("two_s", [1, 2, 4, 7, 100])
def test_crosscheck_sees_the_engine_draw_bit_for_bit(monkeypatch, two_s, complex_mode):
    # _crosscheck hands the oracle the engine's unit draw scaled by each n's
    # bound, zero-padded: bitwise the rows the engine evaluates for that n
    dims, trials = SpinDims(two_s), range(1, 21)
    config = SweepConfig(two_s_values=(two_s,), trials=len(trials), complex_mode=complex_mode)
    draws = sweep_mod._Draws(dims.m_a, len(trials), complex_mode)
    for t, trial in enumerate(trials):
        draws.draw(t, trial_rng(0, two_s, trial))
    bounds = [x_max_schedule(two_s, n) for n in config.n_values]
    seen = []
    # only the oracle's inputs are recorded, so two_s above its gate runs too
    monkeypatch.setattr(oracle, "assemble_state", lambda c, x, y: seen.append((x.copy(), y.copy())))
    monkeypatch.setattr(oracle, "reduce", lambda state, part: None)
    monkeypatch.setattr(oracle, "wootters_concurrence", lambda rho: np.nan)
    monkeypatch.setattr(oracle, "one_tangle", lambda rho: np.nan)
    rows = np.full((len(bounds), len(trials), 3), np.nan)  # no deviation: every stack runs once
    assert sweep_mod._crosscheck(config, bounds, 1, draws.unit, rows) is None
    # the oracle runs chunk by chunk of trials, each chunk once per n
    for j, bound in enumerate(bounds):
        mine = seen[j::len(bounds)]
        for side in (0, 1):
            got = np.concatenate([xy[side] for xy in mine])
            assert got.shape == (len(trials), 4, dims.m_a)
            assert not got[:, :2].any()
            want = draws.side(side, bound, len(trials))
            assert np.ascontiguousarray(got[:, 2:].real).tobytes() == np.ascontiguousarray(want.real).tobytes()
            assert np.array_equal(got[:, 2:].imag, want.imag), (two_s, j, side)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_engine_rows_are_evaluate_of_each_draw(complex_mode):
    # batched sums and measures are bitwise those of one draw at a time,
    # for unequal weights and batches of several trials
    c = (0, 0, 0.6, 0.8j)
    config = SweepConfig(two_s_values=(2, 10, 1000), trials=7, c=c, master_seed=3,
                         complex_mode=complex_mode)
    for two_s in config.two_s_values:
        rows = sweep_mod._task_rows(config, two_s, 2, 8)
        assert rows.shape == (3, 6, 3)
        for j, n in enumerate(config.n_values):
            x_max = x_max_schedule(two_s, n)
            for t, trial in enumerate(range(2, 8)):
                rng = trial_rng(3, two_s, trial)
                r = evaluate(sample_coefficients(SpinDims(two_s), x_max, x_max, c, rng, complex_mode))
                want = [r.concurrence, r.one_tangle, r.monogamy_slack]
                assert [v.hex() for v in rows[j, t].tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("complex_mode", [False, True])
def test_engine_rows_of_a_partial_last_batch_are_evaluate_of_each_draw(complex_mode):
    # 30 trials at 26 a batch: the second batch fills 4 of the buffers' 26 slots
    c, two_s = (0, 0, 0.6, 0.8j), 1000
    assert sweep_mod._batch_trials(SpinDims(two_s)) == 26
    config = SweepConfig(two_s_values=(two_s,), trials=30, c=c, complex_mode=complex_mode)
    rows = sweep_mod._task_rows(config, two_s, 1, 31)
    for j, n in enumerate(config.n_values):
        x_max = x_max_schedule(two_s, n)
        for t, trial in enumerate(range(1, 31)):
            rng = trial_rng(0, two_s, trial)
            r = evaluate(sample_coefficients(SpinDims(two_s), x_max, x_max, c, rng, complex_mode))
            want = [r.concurrence, r.one_tangle, r.monogamy_slack]
            assert [v.hex() for v in rows[j, t].tolist()] == [v.hex() for v in want], (n, trial)


def test_engine_failure_names_the_trial_and_n(monkeypatch):
    # a measure that fails its check at one trial of a batch names that trial
    # and the n it was evaluated for
    original = sweep_mod.closedform._from_sums
    calls = []

    def bad_slack(x_sums, y_sums, w3, w4):
        c, tau, slack = original(x_sums, y_sums, w3, w4)
        calls.append(None)
        if len(calls) == 2:  # the second n of the task's batch, trials 1 .. 6
            slack = slack.copy()
            slack[2] = -1e-3
        return c, tau, slack

    monkeypatch.setattr(sweep_mod.closedform, "_from_sums", bad_slack)
    config = SweepConfig(two_s_values=(10,), n_values=(1, 3), trials=6)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=1)
    assert (err.value.two_s, err.value.n, err.value.trial) == (10, 3, 3)
    assert "monogamy violated: slack = -0.001" in str(err.value)


class _FillGenerator:
    """Stands in for a trial's generator and fills every draw with one value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, out=None):
        out[...] = self.value
        return out


@pytest.mark.parametrize("value, complex_mode", [
    pytest.param(value, mode, id=f"{prefix}{mode}")
    for prefix, value in (("", np.nan), ("inf-", np.inf), ("-inf-", -np.inf))
    for mode in (False, True)
])
def test_engine_non_finite_draw_names_the_trial_and_first_n(monkeypatch, value, complex_mode):
    original = sweep_mod.trial_rng

    def fill_at_trial_3(master_seed, two_s, trial):
        return _FillGenerator(value) if trial == 3 else original(master_seed, two_s, trial)

    monkeypatch.setattr(sweep_mod, "trial_rng", fill_at_trial_3)
    config = SweepConfig(two_s_values=(10,), n_values=(2, 3), trials=5, complex_mode=complex_mode)
    # the draw checks its uniforms before any arithmetic on them, so no
    # RuntimeWarning comes first, and none becomes the error under "error"
    for action in ("error", "default"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(SweepError) as err:
                run_sweep(config, workers=1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], action
        assert (err.value.two_s, err.value.n, err.value.trial) == (10, 2, 3)
        assert "array entries must be finite" in str(err.value), action


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"two_s_values": ()},
        {"two_s_values": (0, 2)},
        {"two_s_values": (4, 2)},
        {"two_s_values": (2, 2)},
        {"n_values": ()},
        {"n_values": (4,)},
        {"trials": 0},
        {"c": (0, 0, 1)},
        {"c": (0, 0, float("nan"), 1)},
        {"c": (0, 0, float("inf"), 0)},
        {"c": (0, 0, complex(1, -float("inf")), 0)},
        {"oracle_crosscheck_max_dim": ORACLE_MAX_DIM + 1},
        {"c": (0, 0, 1, 1)},  # squared norm 2
        {"c": (0.6, 0, 0.8, 0)},  # four-level: the sweep draws only d = 3, 4
        {"oracle_crosscheck_max_dim": -5},
        # integral settings only: each of these used to run, fail mid-run or
        # run at a truncated value
        {"trials": 2.5},
        {"trials": 3.0},
        {"trials": True},
        {"two_s_values": (2.7,)},
        {"two_s_values": (True,)},
        {"two_s_values": (2, np.float64(4.0))},
        {"n_values": (1.0,)},
        {"n_values": (True,)},
        {"master_seed": 1.5},
        {"master_seed": False},
        {"master_seed": "7"},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


def test_config_accepts_crosscheck_bound_at_oracle_gate():
    assert SweepConfig(oracle_crosscheck_max_dim=ORACLE_MAX_DIM).oracle_crosscheck_max_dim == ORACLE_MAX_DIM


def test_config_normalizes_n_order():
    config = SweepConfig(n_values=(3, 1))
    assert config.n_values == (1, 3)


def test_config_refuses_a_grid_whose_smallest_bound_underflows():
    # 1 / (2 S**n) at S = 2**399 is 2**-400 for n = 1, and below float64 for n = 3
    assert SweepConfig(two_s_values=(2**400,), n_values=(1,)).two_s_values == (2**400,)
    with pytest.raises(ValueError, match=r"^two_s of 401 bits: 1 / \(2 S\*\*3\) underflows to 0$"):
        SweepConfig(two_s_values=(2, 2**400), n_values=(3, 1))


def test_config_accepts_numpy_integers_as_ints():
    config = SweepConfig(two_s_values=(np.int64(2), 4), n_values=(np.uint8(2),),
                         trials=np.int32(3), master_seed=np.int64(-5))
    assert (config.two_s_values, config.n_values, config.trials, config.master_seed) == ((2, 4), (2,), 3, -5)
    assert all(type(v) is int for v in (*config.two_s_values, *config.n_values, config.trials,
                                        config.master_seed))


@pytest.mark.parametrize("workers", [0, 2.0, True, "2"])
def test_run_sweep_rejects_bad_worker_count(monkeypatch, workers):
    # SweepConfig's rule: an int or numpy integer, never a bool; refused before any trial
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sweep_mod, "trial_rng", no_trial)
    config = SweepConfig(two_s_values=(2, 4), n_values=(1,), trials=3)
    with pytest.raises(ValueError, match=f"^workers must be an integer >= 1, got {workers!r}$"):
        run_sweep(config, workers=workers)


# ---------------------------------------------------------------------------
# memory: one draw alive per worker process, and a budget checked before any work


@pytest.mark.parametrize(
    "dims, expected",
    [
        # one trial's 64 (m_a + m_b) + 32 max(m_a, m_b) bytes, times the trials
        # of a batch: as many as fit 4 MiB, at least one
        (SpinDims(0), (4 * 2**20 // 160) * 160),
        (SpinDims(3, 5), (4 * 2**20 // 832) * 832),
        (SpinDims(100000), 16_000_160),  # 15.26 MiB: one trial
        (SpinDims(10**20), 160 * (10**20 + 1)),
    ],
)
def test_trial_peak_bytes_is_one_draw_plus_two_rows(dims, expected):
    assert trial_peak_bytes(dims) == expected


@pytest.mark.parametrize(
    "two_s, n, trials, workers, chunks, processes",
    [
        ((100000,), (1,), 1, 8, 1, 1),  # one task
        ((100000,), (1, 2, 3), 20, 1, 1, 1),  # serial
        ((100000,), (1, 2, 3), 20, 2, 4, 2),  # 1 two_s in 4 chunks: 2 tasks per worker
        ((2, 4), (1,), 3, 16, 3, 6),  # 2 two_s x 3 chunks, one per trial: fewer tasks than workers
        # a pool starts all its processes at once, so no count beyond the cores is honored;
        # 9 two_s values in 4 chunks give each of 16 workers at least 2 tasks
        (DEFAULT_TWO_S_GRID, (1, 2, 3), 200, 1000, 4, 16),
        (DEFAULT_TWO_S_GRID, (1, 2, 3), 200, None, 4, 16),  # the default: every usable core
    ],
)
def test_plan_sweep_counts_the_pool(monkeypatch, two_s, n, trials, workers, chunks, processes):
    # the same plan on any host, whose usable cores cap the worker count
    monkeypatch.setattr(sweep_mod, "_usable_cores", lambda: 16)
    config = SweepConfig(two_s_values=two_s, n_values=n, trials=trials)
    assert plan_sweep(config, workers) == (chunks, processes)


def test_serial_sweep_reads_each_two_s_in_one_task(monkeypatch):
    # a serial run does not split a lone two_s into chunks
    tasks = []
    original = sweep_mod._task_rows

    def recording(config, two_s, first, stop):
        tasks.append((two_s, first, stop))
        return original(config, two_s, first, stop)

    monkeypatch.setattr(sweep_mod, "_task_rows", recording)
    run_sweep(SweepConfig(two_s_values=(10,), n_values=(1,), trials=6), workers=1)
    assert tasks == [(10, 1, 7)]


def test_memory_budget_compares_draws_times_processes_with_physical_memory(monkeypatch):
    dims = SpinDims(10)
    monkeypatch.setattr(sweep_mod, "_physical_memory_bytes", lambda: 2 * trial_peak_bytes(dims))
    check_memory_budget(dims, 2)
    with pytest.raises(MemoryBudgetError, match="physical memory"):
        check_memory_budget(dims, 3)
    # a platform that does not report its memory refuses nothing
    monkeypatch.setattr(sweep_mod, "_physical_memory_bytes", lambda: None)
    check_memory_budget(SpinDims(10**20), 64)


def test_memory_budget_counts_every_result_row_twice(monkeypatch):
    # 3 * 10**8 rows of 24 bytes, each held by its task and in its two_s's
    # concatenation: 14.4 GB, where one batch of draws needs 4.2 MB
    config = SweepConfig(two_s_values=(2,), trials=10**8)
    dims = SpinDims(2)
    rows_bytes = 2 * 24 * 3 * 10**8
    monkeypatch.setattr(sweep_mod, "_physical_memory_bytes", lambda: trial_peak_bytes(dims) + rows_bytes)
    plan_sweep(config, workers=1)
    check_memory_budget(dims, 1, 3 * 10**8)
    monkeypatch.setattr(sweep_mod, "_physical_memory_bytes", lambda: trial_peak_bytes(dims) + rows_bytes - 1)
    with pytest.raises(MemoryBudgetError, match="14.4 GB for 300000000 result rows"):
        plan_sweep(config, workers=1)


def test_physical_memory_is_unknown_where_sysconf_raises(monkeypatch):
    def no_sysconf(name):
        raise OSError(f"{name} not supported")

    monkeypatch.setattr(sweep_mod.os, "sysconf", no_sysconf)
    assert sweep_mod._physical_memory_bytes() is None


def test_run_sweep_refuses_a_draw_beyond_physical_memory_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sweep_mod, "trial_rng", no_trial)
    config = SweepConfig(two_s_values=(2, 10**20), n_values=(1,), trials=1)
    for workers in (1, 2):
        with pytest.raises(MemoryBudgetError, match="physical memory"):
            run_sweep(config, workers=workers)
    assert issubclass(MemoryBudgetError, ValueError)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_serial_sweep_holds_one_draw_at_a_time(complex_mode):
    # three draws of 12.2 MiB each; two alive at once would exceed the bound
    config = SweepConfig(two_s_values=(100000,), n_values=(1,), trials=3, complex_mode=complex_mode)
    tracemalloc.start()
    try:
        run_sweep(config, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= trial_peak_bytes(SpinDims(100000))


@pytest.mark.parametrize("complex_mode", [False, True])
def test_single_draw_and_its_evaluation_fit_the_trial_bound(complex_mode):
    # what `single` holds at two_s = 100000: one CoefficientSet and its evaluate
    dims, x_max = SpinDims(100000), x_max_schedule(100000, 1)
    tracemalloc.start()
    try:
        cs = sample_coefficients(dims, x_max, x_max, SweepConfig().c, trial_rng(0, 100000, 1), complex_mode)
        evaluate(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= trial_peak_bytes(dims)
