"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion with its runtime against the budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from spinshield.model import SpinDims, sample_coefficients, x_max_schedule
from spinshield.closedform import (
    concurrence_closed,
    first_order_expansion,
    monogamy_slack,
    one_tangle_closed,
)
from spinshield.oracle import (
    assemble_state,
    one_tangle,
    reduce,
    separability_structure_check,
    wootters_concurrence,
)
from spinshield.sweep import DEFAULT_TWO_S_GRID, SweepConfig, run_sweep, trial_rng
from spinshield import closedform
from spinshield.cli import main as cli_main
from util import BELL_C, bell_set, cxy


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.1f}s >= {budget_s}s"
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (budget {budget_s:.0f}s)")


def draw(master_seed, two_s, index, x_max):
    rng = trial_rng(master_seed, two_s, index)
    return sample_coefficients(SpinDims(two_s), x_max, x_max, BELL_C, rng)


def test_criterion_1_bell_limit():
    with criterion(1, "Bell limit", 1.0):
        cs = bell_set(0)
        assert abs(concurrence_closed(cs) - 1.0) <= 1e-12
        assert abs(one_tangle_closed(cs) - 1.0) <= 1e-12
        state = assemble_state(*cxy(cs))
        assert abs(wootters_concurrence(reduce(state, "D")) - 1.0) <= 1e-12
        assert abs(one_tangle(reduce(state, "Q1")) - 1.0) <= 1e-12


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence", 30.0):
        worst = 0.0
        for xi, x_max in enumerate((0.5, 0.1, 0.01)):
            for two_s in range(1, 9):
                for case in range(1, 101):
                    cs = draw(1000 + xi, two_s, case, x_max)
                    state = assemble_state(*cxy(cs))
                    dc = abs(concurrence_closed(cs) - wootters_concurrence(reduce(state, "D")))
                    dtau = abs(one_tangle_closed(cs) - one_tangle(reduce(state, "Q1")))
                    assert dc <= 1e-10, f"two_s={two_s} x_max={x_max} case={case}: dC={dc:.3e}"
                    assert dtau <= 1e-10, f"two_s={two_s} x_max={x_max} case={case}: dtau={dtau:.3e}"
                    worst = max(worst, dc, dtau)
        print(f"  worst closed-vs-oracle deviation: {worst:.3e}")


def test_criterion_3_monogamy_bulk():
    with criterion(3, "monogamy on 10^4 draws", 30.0):
        combos = [(two_s, n) for n in (1, 2, 3) for two_s in DEFAULT_TWO_S_GRID]
        per_combo = -(-10_000 // len(combos))  # ceil: 371 draws x 27 combos
        checked = 0
        for two_s, n in combos:
            x_max = x_max_schedule(two_s, n)
            for case in range(1, per_combo + 1):
                cs = draw(3000 + n, two_s, case, x_max)
                tau = one_tangle_closed(cs)
                slack = monogamy_slack(cs)
                assert slack >= 0.0, f"two_s={two_s} n={n} case={case}: slack={slack:.3e}"
                assert tau <= 1.0 + 1e-12
                checked += 1
        assert checked >= 10_000
        print(f"  draws checked: {checked}")


def test_criterion_4_tangle_symmetry():
    with criterion(4, "one-tangle symmetry", 10.0):
        for case in range(1, 101):
            two_s = 1 + (case - 1) % 8
            x_max = (0.5, 0.1, 0.01)[(case - 1) % 3]
            state = assemble_state(*cxy(draw(4000, two_s, case, x_max)))
            t1 = one_tangle(reduce(state, "Q1"))
            t2 = one_tangle(reduce(state, "Q2"))
            assert abs(t1 - t2) <= 1e-12, f"case={case}: |t1-t2|={abs(t1 - t2):.3e}"


def test_criterion_5_apparatus_separability():
    with criterion(5, "apparatus-state separability", 30.0):
        for case in range(1, 101):
            two_s = 1 + (case - 1) % 31  # m_a * m_b up to 1024
            x_max = (0.5, 0.1, 0.01)[(case - 1) % 3]
            cs = draw(5000, two_s, case, x_max)
            assert cs.dims.m_a * cs.dims.m_b <= 1024
            assert separability_structure_check(*cxy(cs), 1e-10), f"case={case} two_s={two_s}"


def test_criterion_6_figure_reproduction():
    with criterion(6, "ordinal figure reproduction", 120.0):
        by_n = {}
        for p in run_sweep(SweepConfig()):
            by_n.setdefault(p.n, []).append(p)
        # mean concurrence nondecreasing in two_s within each n
        for n, pts in by_n.items():
            violations = []
            for a, b in zip(pts, pts[1:]):
                if b.mean_c < a.mean_c:
                    se = np.sqrt(a.std_c**2 + b.std_c**2) / np.sqrt(a.trials)
                    violations.append((a.two_s, a.mean_c - b.mean_c, se))
            assert len(violations) <= 1, f"n={n}: {violations}"
            for _, drop, se in violations:
                assert drop < se, f"n={n}: drop {drop:.3e} exceeds one standard error {se:.3e}"
        # faster schedules protect at least as well, at every gridpoint
        for k in range(len(DEFAULT_TWO_S_GRID)):
            assert by_n[3][k].mean_c >= by_n[2][k].mean_c >= by_n[1][k].mean_c
        # the gap collapses with S for the faster schedules
        for n in (2, 3):
            first = by_n[n][0].mean_abs_gap
            last = by_n[n][-1].mean_abs_gap
            assert last <= 1e-3 * first, f"n={n}: {last:.3e} vs {first:.3e}"
            print(f"  n={n}: mean_abs_gap shrinks {first:.3e} -> {last:.3e}")


def test_criterion_7_quadratic_gap_scaling():
    with criterion(7, "quadratic gap scaling", 10.0):
        x_max = x_max_schedule(10, 1)

        def gap(cs, t):
            return -monogamy_slack(cs.scaled(t))

        for case in range(1, 51):
            cs = draw(7000, 10, case, x_max)
            for t in (0.125, 0.0625, 0.03125):
                ratio_ok = abs(gap(cs, t / 2)) <= 0.4 * abs(gap(cs, t))
                assert ratio_ok, f"case={case} t={t}: ratio violated"
            for t in (1.0, 0.125):
                scaled = cs.scaled(t)
                t1 = first_order_expansion(scaled)
                budget = float(np.sum(np.abs(scaled.x)) + np.sum(np.abs(scaled.y))) ** 2
                assert abs(concurrence_closed(scaled) ** 2 - t1) <= budget
                assert abs(one_tangle_closed(scaled) - t1) <= budget


def test_criterion_8_worker_determinism(tmp_path, monkeypatch):
    with criterion(8, "worker-count determinism", 240.0):
        monkeypatch.setenv("SPINSHIELD_WORKERS", "1")
        assert cli_main(["sweep", "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.delenv("SPINSHIELD_WORKERS")
        assert cli_main(["sweep", "--out", str(tmp_path / "parallel")]) == 0
        serial = (tmp_path / "serial/sweep.csv").read_bytes()
        parallel = (tmp_path / "parallel/sweep.csv").read_bytes()
        assert serial == parallel
        assert len(serial.splitlines()) == 28  # header + 27 gridpoints


def test_criterion_9_large_spin_performance():
    # warm-up outside the timed block: imports, allocator, BLAS threads
    run_sweep(SweepConfig(two_s_values=(1000,), n_values=(1,), trials=2), workers=1)
    with criterion(9, "large-spin performance", 60.0):
        config = SweepConfig(two_s_values=(100_000,), n_values=(1,), trials=200)
        (point,) = run_sweep(config)
        assert point.trials == 200
        assert point.min_monogamy_slack >= 0.0
    # the engine's closed-form kernel scales linearly in the apparatus dimension
    def kernel_time(two_s):
        cs = draw(9000, two_s, 1, x_max_schedule(two_s, 1))
        # one trial's real rows, shaped (1, 2, m) as the engine's batch holds them
        x, y = (np.ascontiguousarray(rows[2:4].real)[None] for rows in (cs.x, cs.y))
        w3, w4 = (abs(c) for c in BELL_C[2:])

        def kernel():
            return closedform._from_sums(closedform._side_sums(x), closedform._side_sums(y), w3, w4)

        return min(
            (lambda t0: (kernel(), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(3)
        )

    # the rows of m = 25001 fit a per-core L2 cache, those of m = 100001 do not;
    # comparing two sizes that both outgrow it times the work, not the memory level
    t_small, t_large = kernel_time(100_000), kernel_time(400_000)
    assert t_large <= 10.0 * max(t_small, 1e-9), f"{t_small:.4f}s -> {t_large:.4f}s"
    print(f"  engine kernel timing: m=100001 {t_small * 1e3:.1f}ms, m=400001 {t_large * 1e3:.1f}ms")
