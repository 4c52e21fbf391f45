from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import closedform
from spinshield.model import (
    CoefficientSet,
    DeviceModeError,
    EntanglementReport,
    SpinDims,
    sample_coefficients,
    x_max_schedule,
)
from spinshield.closedform import (
    BranchSums,
    branch_sums,
    concurrence_closed,
    evaluate,
    first_order_expansion,
    monogamy_slack,
    one_tangle_closed,
)
from spinshield.oracle import assemble_state, one_tangle, reduce, wootters_concurrence
from spinshield.sweep import SweepConfig, trial_rng
from util import BELL_C, bell_set, cxy, random_c, random_set, worked_example

# frozen expectations for the worked example (independently derivable by
# direct summation: X3 = 1.1^2 + 1.3^2, X4 = 2 * 1.2^2, X34 = 1.2 * (1.1 + 1.3))
WORKED_N_SQ = 5.78
WORKED_C = 5.76 / 5.78
WORKED_TAU = 33.408 / 33.4084


def gap_at_scale(cs, t):
    return -monogamy_slack(cs.scaled(t))


def sweep_draw(two_s, n, trial, complex_mode=False):
    """The draw the default sweep makes for trial `trial` at (two_s, n)."""
    x_max = x_max_schedule(two_s, n)
    rng = trial_rng(0, two_s, trial)
    return sample_coefficients(SpinDims(two_s), x_max, x_max, SweepConfig().c, rng, complex_mode)


def reference_sums(cs, field):
    """Branch sums, Gram determinants and slack of a two-level draw in `field` arithmetic.

    `field` maps an entry to an exact (Fraction, real draws only) or a
    high-precision (mpmath) number; moduli are squared, never rooted.
    """
    def side(rows):
        u = [1 + field(v) for v in rows[2]]
        v = [1 + field(z) for z in rows[3]]
        s3 = sum(a * a.conjugate() for a in u)
        s4 = sum(b * b.conjugate() for b in v)
        s34 = sum(a * b.conjugate() for a, b in zip(u, v))
        return s3, s4, s34, s3 * s4 - s34 * s34.conjugate()

    X3, X4, X34, GX = side(cs.x)
    Y3, Y4, Y34, GY = side(cs.y)
    w3, w4 = (field(c) * field(c).conjugate() for c in cs.c[2:])
    n_sq = w3 * X3 * Y3 + w4 * X4 * Y4
    slack = 4 * w3 * w4 * (X3 * X4 * Y3 * Y4 - X34 * X34.conjugate() * Y34 * Y34.conjugate()) / n_sq**2
    return {"X3": X3, "X4": X4, "Y3": Y3, "Y4": Y4, "X34": X34, "Y34": Y34, "GX": GX, "GY": GY,
            "slack": slack}


# ---------------------------------------------------------------------------
# branch sums


def test_branch_sums_zero_perturbations():
    bs = branch_sums(bell_set(1))
    assert (bs.X3, bs.X4, bs.Y3, bs.Y4) == (2.0, 2.0, 2.0, 2.0)
    assert bs.X34 == 2.0 + 0j and bs.Y34 == 2.0 + 0j


def test_branch_sums_worked_example():
    bs = branch_sums(worked_example())
    # direct-summation oracle
    assert bs.X3 == pytest.approx(1.1**2 + 1.3**2, abs=1e-15)
    assert bs.X4 == pytest.approx(2 * 1.2**2, abs=1e-15)
    assert bs.X34 == pytest.approx(1.1 * 1.2 + 1.3 * 1.2, abs=1e-15)
    assert bs.X3 == pytest.approx(2.90, abs=1e-12)
    assert bs.X4 == pytest.approx(2.88, abs=1e-12)
    assert bs.X34.real == pytest.approx(2.88, abs=1e-12)
    assert bs.Y3 == bs.Y4 == 2.0
    assert bs.Y34 == 2.0 + 0j


@pytest.mark.parametrize("complex_mode", [False, True])
def test_branch_sums_squares_reduce_row_by_row_as_one_2d_reduction(complex_mode):
    # each row's sum of squares is reduced on its own (one row's temporary at
    # a time), bitwise equal to the 2-D reduction over both rows
    cs = random_set(seed=4, two_s_a=1000, two_s_b=999, x_max=0.3, complex_mode=complex_mode)
    bs = branch_sums(cs)
    for block, s3, s4 in ((cs.x[2:4], bs.X3, bs.X4), (cs.y[2:4], bs.Y3, bs.Y4)):
        rows, flat = (block, block.view(np.float64)) if complex_mode else (block.real,) * 2
        q3, q4 = np.add.reduce(flat * flat, axis=1).tolist()
        a3, a4 = np.add.reduce(rows, axis=1).tolist()
        m = block.shape[1]
        assert (s3, s4) == (m + (2.0 * a3.real + q3), m + (2.0 * a4.real + q4))


def test_branch_sums_identical_rows_saturate_cauchy_schwarz():
    dims = SpinDims(1)
    x = np.zeros((4, 2), dtype=complex)
    x[2] = x[3] = [0.2, 0.4]
    bs = branch_sums(CoefficientSet(dims, BELL_C, x, np.zeros((4, 2))))
    assert bs.X34.real == bs.X3 == bs.X4
    assert bs.X34.imag == 0.0


def test_branch_sums_beyond_cauchy_schwarz_are_refused():
    # |X34|**2 = 4 exceeds X3 X4 = 1: no pair of rows has these sums
    with pytest.raises(ValueError, match="X sums are inconsistent"):
        BranchSums(X3=1.0, X4=1.0, Y3=1.0, Y4=1.0, X34=2.0, Y34=0j, GX=0.0, GY=0.0)


def test_branch_sums_requires_two_level_mode():
    cs = CoefficientSet(SpinDims(0), (1, 0, 0, 0), np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(DeviceModeError):
        branch_sums(cs)


def assert_close_to_reference(cs, ref, to_complex, rel):
    bs = branch_sums(cs)
    got = {name: getattr(bs, name) for name in ("X3", "X4", "Y3", "Y4", "X34", "Y34", "GX", "GY")}
    got["slack"] = monogamy_slack(cs)
    for name, value in got.items():
        exact = to_complex(ref[name])
        assert abs(value - exact) <= rel * abs(exact), f"{name}: {value!r} vs {exact!r}"
    assert evaluate(cs).monogamy_slack == got["slack"]


def test_branch_sums_and_slack_match_exact_rationals():
    # real-mode sweep draws up to m = 11, every schedule; the float inputs
    # are converted exactly, so the reference carries no rounding at all
    for two_s in range(1, 11):
        for n in (1, 2, 3):
            for trial in (1, 2):
                cs = sweep_draw(two_s, n, trial)
                assert not cs.x.imag.any() and not cs.y.imag.any()
                ref = reference_sums(cs, lambda z: Fraction(z.real))
                assert_close_to_reference(cs, ref, float, 1e-15)


def test_branch_sums_and_slack_match_mpmath():
    # the large-spin regime, where the slack (~1e-17 at n = 3, two_s = 1000,
    # real and complex draws) lies below the rounding of tau and C**2, and a
    # long sum at m = 10001
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for two_s, n, complex_mode in ((1000, 3, False), (1000, 3, True), (10000, 1, False)):
            cs = sweep_draw(two_s, n, 1, complex_mode)
            ref = reference_sums(cs, lambda z: mpmath.mpc(complex(z)))
            assert_close_to_reference(cs, ref, complex, 1e-15)


# ---------------------------------------------------------------------------
# closed-form measures against frozen values and the oracle


def test_concurrence_bell_limit():
    assert concurrence_closed(bell_set(0)) == 1.0
    assert concurrence_closed(bell_set(3)) == 1.0


def test_concurrence_product_device_is_zero():
    cs = CoefficientSet(SpinDims(1), (0, 0, 1, 0), np.zeros((4, 2)), np.zeros((4, 2)))
    assert concurrence_closed(cs) == 0.0


def test_concurrence_worked_example():
    cs = worked_example()
    c = concurrence_closed(cs)
    assert c == pytest.approx(WORKED_C, abs=1e-12)
    c_oracle = wootters_concurrence(reduce(assemble_state(*cxy(cs)), "D"))
    assert abs(c - c_oracle) <= 1e-10


def test_one_tangle_bell_limit():
    assert one_tangle_closed(bell_set(0)) == 1.0


def test_one_tangle_product_device_is_zero():
    cs = CoefficientSet(SpinDims(1), (0, 0, 1, 0), np.zeros((4, 2)), np.zeros((4, 2)))
    assert one_tangle_closed(cs) == 0.0


def test_one_tangle_worked_example():
    cs = worked_example()
    tau = one_tangle_closed(cs)
    assert tau == pytest.approx(WORKED_TAU, abs=1e-12)
    tau_oracle = one_tangle(reduce(assemble_state(*cxy(cs)), "Q1"))
    assert abs(tau - tau_oracle) <= 1e-10


def test_monogamy_slack_examples():
    assert monogamy_slack(bell_set(1)) == 0.0
    assert monogamy_slack(worked_example()) == pytest.approx(
        WORKED_TAU - WORKED_C**2, abs=1e-12
    )
    assert monogamy_slack(worked_example()) == pytest.approx(0.006896, abs=5e-7)


def test_evaluate_bundles_both_measures():
    cs = worked_example()
    report = evaluate(cs)
    assert report.concurrence == concurrence_closed(cs)
    assert report.one_tangle == one_tangle_closed(cs)
    assert report.gap == -report.monogamy_slack


# ---------------------------------------------------------------------------
# the check table: one set of rows for the scalar types and for stacks


@pytest.mark.parametrize(
    "part, k, value, message",
    [
        ("x", 3, -1.0, "X sums are inconsistent"),  # GX < 0
        ("y", 2, 5.0 + 0j, "Y sums are inconsistent"),  # |Y34|^2 = 25 > Y3 Y4 = 19.7
        ("m", 0, 1.5, "concurrence out of [0,1]: 1.5"),
        ("m", 1, np.nan, "one_tangle out of [0,1]: nan"),
        ("m", 2, -1e-3, "monogamy violated: slack = -0.001"),
        # a NaN fails every check it reaches
        ("x", 0, np.nan, "X sums are inconsistent"),  # X3
        ("x", 1, np.nan, "X sums are inconsistent"),  # X4
        ("y", 2, complex(np.nan, 0.0), "Y sums are inconsistent"),  # Y34
        ("y", 3, np.nan, "Y sums are inconsistent"),  # GY
        ("m", 0, np.nan, "concurrence out of [0,1]: nan"),
        ("m", 2, np.nan, "monogamy violated: slack = nan"),
    ],
    ids=["X sums", "Y sums", "C range", "tau range", "slack sign",
         "X3 NaN", "X4 NaN", "Y34 NaN", "GY NaN", "C NaN", "slack NaN"],
)
def test_first_failure_is_the_scalar_types_error_at_the_draw(part, k, value, message):
    rng = np.random.default_rng(5)
    x_sums = closedform._side_sums(0.1 * rng.random((5, 2, 4)))
    y_sums = closedform._side_sums(0.1 * rng.random((5, 2, 4)))
    measures = closedform._from_sums(x_sums, y_sums, 0.6, 0.8)
    assert closedform._first_failure(x_sums, y_sums, *measures) is None
    # draw 2 fails the check, and so does draw 4; the first of them is reported
    column = {"x": x_sums, "y": y_sums, "m": measures}[part][k]
    column[2] = column[4] = value

    X3, X4, X34, GX = (v[2].item() for v in x_sums)
    Y3, Y4, Y34, GY = (v[2].item() for v in y_sums)
    with pytest.raises(ValueError) as err:
        BranchSums(X3=X3, X4=X4, Y3=Y3, Y4=Y4, X34=X34, Y34=Y34, GX=GX, GY=GY)
        EntanglementReport(*(v[2].item() for v in measures))
    assert str(err.value).startswith(message)
    assert closedform._first_failure(x_sums, y_sums, *measures) == (2, str(err.value))


def test_nan_sums_give_a_nan_concurrence_that_fails_its_range():
    x_sums = closedform._side_sums(0.1 * np.random.default_rng(6).random((2, 4)))
    y_sums = (*x_sums[:2], complex(np.nan, 0.0), x_sums[3])
    c, tau, slack = closedform._from_sums(x_sums, y_sums, 0.6, 0.8)
    assert np.isnan(c) and np.isnan(slack) and 0.0 < tau <= 1.0
    with pytest.raises(ValueError, match=r"^concurrence out of \[0,1\]: nan$"):
        EntanglementReport(c, tau, slack)


# ---------------------------------------------------------------------------
# first-order expansion


def test_first_order_zero_perturbations():
    assert first_order_expansion(bell_set(2)) == 1.0


def test_first_order_components_always_equal():
    for seed in range(10):
        # one value serves both measures
        assert isinstance(first_order_expansion(random_set(seed, two_s_a=4, x_max=0.3)), float)


def test_first_order_residual_bound_and_quadratic_decay():
    cs = worked_example()
    residuals = []
    for t in (1.0, 0.5, 0.25, 0.125):
        scaled = cs.scaled(t)
        c2_approx = first_order_expansion(scaled)
        exact = concurrence_closed(scaled) ** 2
        total_pert = float(np.sum(np.abs(scaled.x)) + np.sum(np.abs(scaled.y)))
        residual = abs(exact - c2_approx)
        assert residual <= total_pert**2
        residuals.append(residual)
    # each halving of the scale shrinks the residual ~4x
    for larger, smaller in zip(residuals, residuals[1:]):
        assert smaller <= 0.4 * larger


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1e-6, max_value=0.5),
    st.booleans(),
)
def test_monogamy_property(seed, two_s, x_max, complex_mode):
    cs = random_set(seed, two_s, x_max=x_max, c=random_c(seed + 1), complex_mode=complex_mode)
    tau = one_tangle_closed(cs)
    assert monogamy_slack(cs) >= 0.0
    assert tau <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=15),
    st.floats(min_value=1e-4, max_value=0.5),
)
def test_oracle_equivalence_property(seed, two_s_a, two_s_b, x_max):
    cs = random_set(seed, two_s_a, two_s_b, x_max, c=random_c(seed + 1))
    state = assemble_state(*cxy(cs))
    assert abs(concurrence_closed(cs) - wootters_concurrence(reduce(state, "D"))) <= 1e-10
    assert abs(one_tangle_closed(cs) - one_tangle(reduce(state, "Q1"))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_phase_invariance(seed, phi):
    cs = random_set(seed, two_s_a=3, x_max=0.4)
    rotated = CoefficientSet(
        cs.dims, (0, 0, cs.c[2] * np.exp(1j * phi), cs.c[3]), cs.x, cs.y
    )
    assert abs(concurrence_closed(rotated) - concurrence_closed(cs)) <= 1e-14
    assert abs(one_tangle_closed(rotated) - one_tangle_closed(cs)) <= 1e-14


def assert_row_swap_symmetric(seed):
    cs = random_set(seed, two_s_a=4, x_max=0.3, c=random_c(seed + 1), complex_mode=True)
    swapped = CoefficientSet(
        cs.dims,
        (0, 0, cs.c[3], cs.c[2]),
        np.stack([cs.x[0], cs.x[1], cs.x[3], cs.x[2]]),
        np.stack([cs.y[0], cs.y[1], cs.y[3], cs.y[2]]),
    )
    assert concurrence_closed(swapped) == concurrence_closed(cs)
    assert one_tangle_closed(swapped) == one_tangle_closed(cs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_swap_symmetry_exact(seed):
    assert_row_swap_symmetric(seed)


def test_row_swap_symmetry_exact_regressions():
    # seeds where a fused multiply-add in x3 * conj(x4) rounded the swapped
    # cross sum differently; checked on every run, not only when drawn
    for seed in (381, 615, 125603746):
        assert_row_swap_symmetric(seed)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.125, 0.0625]),
)
def test_quadratic_gap_scaling(seed, t):
    cs = random_set(seed, two_s_a=6, x_max=0.5)
    f_t = gap_at_scale(cs, t)
    assert abs(gap_at_scale(cs, t / 2)) <= 0.4 * abs(f_t)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=10),
    st.booleans(),
)
def test_cauchy_schwarz_on_branch_sums(seed, two_s, complex_mode):
    bs = branch_sums(random_set(seed, two_s, x_max=0.5, complex_mode=complex_mode))
    assert abs(bs.X34) ** 2 <= bs.X3 * bs.X4 * (1 + 1e-12)
    assert abs(bs.Y34) ** 2 <= bs.Y3 * bs.Y4 * (1 + 1e-12)
