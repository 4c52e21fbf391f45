import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield.model import (
    CoefficientSet,
    DegenerateStateError,
    EntanglementReport,
    SpinDims,
    normalization,
    sample_coefficients,
    _clamp_unit,
    x_max_schedule,
)
from spinshield.closedform import concurrence_closed
from spinshield.oracle import assemble_state
from util import BELL_C, bell_set, cxy, random_set, worked_example


# ---------------------------------------------------------------------------
# SpinDims


def test_spin_dims_default_equal_spins():
    dims = SpinDims(6)
    assert dims.two_s_a == dims.two_s_b == 6
    assert dims.m_a == dims.m_b == 7


def test_spin_dims_asymmetric_allowed():
    dims = SpinDims(2, 5)
    assert (dims.m_a, dims.m_b) == (3, 6)


@pytest.mark.parametrize("bad", [-1, 2.5, "3", True, False])
def test_spin_dims_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SpinDims(bad)


# ---------------------------------------------------------------------------
# x_max_schedule


@pytest.mark.parametrize(
    "two_s,n,expected",
    [(2, 1, 0.5), (4, 2, 0.125), (20, 3, 0.0005)],
)
def test_schedule_values(two_s, n, expected):
    assert x_max_schedule(two_s, n) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "two_s,n", [(0, 1), (2, 0), (2, 4), (-3, 1), (True, 1), (True, True), (2, True), (2, 1.0)]
)
def test_schedule_domain_errors(two_s, n):
    with pytest.raises(ValueError):
        x_max_schedule(two_s, n)


@pytest.mark.parametrize("two_s,n", [(10**400, 1), (10**200, 2), (10**200, 3), (10**103, 3)])
def test_schedule_beyond_float64_is_value_error(two_s, n):
    # S, or 2 S**n, overflows float64; the message names the size, not 400 digits
    with pytest.raises(ValueError, match="bits") as info:
        x_max_schedule(two_s, n)
    assert len(str(info.value)) < 80


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([1, 2]))
def test_schedule_strictly_decreasing(two_s, n):
    assert x_max_schedule(two_s + 1, n) < x_max_schedule(two_s, n)
    if two_s >= 3:  # S > 1 makes higher exponents strictly smaller
        assert x_max_schedule(two_s, n + 1) < x_max_schedule(two_s, n)


# ---------------------------------------------------------------------------
# CoefficientSet


def test_coefficient_set_requires_unit_weights():
    dims = SpinDims(0)
    with pytest.raises(ValueError, match="sum"):
        CoefficientSet(dims, (0, 0, 1, 1), np.zeros((4, 1)), np.zeros((4, 1)))


def test_coefficient_set_shape_checks():
    dims = SpinDims(1)
    with pytest.raises(ValueError, match="shape"):
        CoefficientSet(dims, BELL_C, np.zeros((4, 3)), np.zeros((4, 2)))


def test_coefficient_set_rejects_nonfinite():
    # every row of x and y, in the real and the imaginary part, for the
    # two-level weights and for weights with c1 != 0
    dims = SpinDims(1)
    for c in (BELL_C, (0.6, 0, 0.8, 0)):
        for name in ("x", "y"):
            for row in range(4):
                for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)):
                    arrays = {"x": np.zeros((4, 2), dtype=complex), "y": np.zeros((4, 2), dtype=complex)}
                    arrays[name][row, 1] = bad
                    with pytest.raises(ValueError, match="finite"):
                        CoefficientSet(dims, c, arrays["x"], arrays["y"])
    # every device weight
    zeros = np.zeros((4, 2))
    for d in range(4):
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            c = np.array(BELL_C, dtype=complex)
            c[d] = bad
            with pytest.raises(ValueError, match="finite"):
                CoefficientSet(dims, c, zeros, zeros)


def test_coefficient_set_checks_in_order():
    # c's shape, c finite, x's shape, x finite, y's shape, y finite, then
    # c's norm: each case breaks its check and every later one
    dims = SpinDims(1)
    x, y, nan_x, nan_y = (np.zeros((4, 2)) for _ in range(4))
    nan_x[2, 0] = nan_y[3, 1] = np.nan
    cases = [
        ((0, 0, 1), "shape", nan_x, np.zeros((4, 1))),
        ((0, 0, np.nan, 2), "device weights must be finite", np.zeros((4, 3)), nan_y),
        ((0, 0, 1, 1), "shape", np.zeros((4, 3)), nan_y),
        ((0, 0, 1, 1), "array entries must be finite", nan_x, np.zeros((4, 1))),
        ((0, 0, 1, 1), "shape", x, np.zeros((4, 1))),
        ((0, 0, 1, 1), "array entries must be finite", x, nan_y),
        ((0, 0, 1, 1), "sum", x, y),
    ]
    for c, message, xs, ys in cases:
        with pytest.raises(ValueError, match=message):
            CoefficientSet(dims, c, xs, ys)


def test_coefficient_set_arrays_read_only():
    cs = worked_example()
    with pytest.raises(ValueError):
        cs.x[2, 0] = 9.0


def test_coefficient_set_adopts_only_frozen_owned_arrays():
    dims = SpinDims(1)
    x = np.zeros((4, 2), dtype=complex)
    cs = CoefficientSet(dims, BELL_C, x, np.zeros((4, 2)))
    # a caller's writable array is copied and left writable
    assert x.flags.writeable and not np.shares_memory(cs.x, x)
    x.setflags(write=False)
    assert CoefficientSet(dims, BELL_C, x, np.zeros((4, 2))).x is x
    # an adopted array still passes every check
    bad = np.zeros((4, 2), dtype=complex)
    bad[2, 0] = np.inf
    bad.setflags(write=False)
    with pytest.raises(ValueError, match="finite"):
        CoefficientSet(dims, BELL_C, bad, np.zeros((4, 2)))
    wide = np.zeros((4, 3), dtype=complex)
    wide.setflags(write=False)
    with pytest.raises(ValueError, match="shape"):
        CoefficientSet(dims, BELL_C, wide, np.zeros((4, 2)))


def test_two_level_mode_detection():
    assert worked_example().is_two_level
    dims = SpinDims(0)
    general = CoefficientSet(dims, (1, 0, 0, 0), np.zeros((4, 1)), np.zeros((4, 1)))
    assert not general.is_two_level
    perturbed_row1 = np.zeros((4, 1))
    perturbed_row1[0, 0] = 0.1
    assert not CoefficientSet(dims, BELL_C, perturbed_row1, np.zeros((4, 1))).is_two_level


def test_two_level_flag_is_not_a_field():
    cs = worked_example()
    general = CoefficientSet(SpinDims(1), np.full(4, 0.5), cs.x, cs.y)
    assert [f.name for f in dataclasses.fields(cs)] == ["dims", "c", "x", "y"]
    assert "two_level" not in repr(cs)
    assert cs.is_two_level and not general.is_two_level
    assert pickle.loads(pickle.dumps(cs)).is_two_level
    assert not pickle.loads(pickle.dumps(general)).is_two_level


def test_scaled_multiplies_perturbations_only():
    cs = worked_example()
    half = cs.scaled(0.5)
    np.testing.assert_array_equal(half.x, 0.5 * cs.x)
    np.testing.assert_array_equal(half.y, 0.5 * cs.y)
    np.testing.assert_array_equal(half.c, cs.c)


def test_scaled_adopts_its_products_without_a_copy():
    cs = random_set(seed=3, two_s_a=20000, x_max=0.5)
    tracemalloc.start()
    try:
        half = cs.scaled(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert half.x.flags.owndata and not half.x.flags.writeable
    assert half.y.flags.owndata and not half.y.flags.writeable
    # the two products; a copy of each would double the peak
    assert peak < 1.5 * (half.x.nbytes + half.y.nbytes)
    for t in (np.nan, np.inf):
        # inf * 0 is NaN, with a floating-point warning
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="array entries must be finite"):
            cs.scaled(t)


# ---------------------------------------------------------------------------
# sample_coefficients


def test_sample_range_containment():
    cs = random_set(seed=11, two_s_a=2, x_max=0.5)
    for row in (cs.x[2], cs.x[3], cs.y[2], cs.y[3]):
        vals = row.real
        assert np.all(vals > 0.0) and np.all(vals <= 0.5)
        assert np.all(row.imag == 0.0)
    assert not cs.x[:2].any() and not cs.y[:2].any()


def test_sample_determinism():
    a = random_set(seed=7, two_s_a=4)
    b = random_set(seed=7, two_s_a=4)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = random_set(seed=8, two_s_a=4)
    assert not np.array_equal(a.x, c.x)


@pytest.mark.parametrize("dims", [SpinDims(2), SpinDims(3, 5)], ids=lambda d: f"{d.two_s_a}-{d.two_s_b}")
def test_sample_draw_order_is_pinned(dims):
    # row d=3 before d=4, x before y, entries in index order, each side
    # scaled by its own bound
    rng = np.random.Generator(np.random.PCG64(99))
    cs = sample_coefficients(dims, 0.5, 0.25, BELL_C, rng)
    ref = np.random.Generator(np.random.PCG64(99))
    for row, bound in ((cs.x[2], 0.5), (cs.x[3], 0.5), (cs.y[2], 0.25), (cs.y[3], 0.25)):
        want = bound * (1.0 - ref.random(row.size))
        assert row.tobytes() == want.astype(np.complex128).tobytes()


def test_sample_complex_draw_order_is_pinned():
    # per row, the moduli and then the phases; bitwise equal to the plain
    # formula, with the bound applied last.  The bounds are not powers of two,
    # so bound * (phase * (1 - u)) would differ from it in some entries
    dims = SpinDims(3, 5)
    x_max, y_max = x_max_schedule(10, 1), x_max_schedule(7, 2)
    rng = np.random.Generator(np.random.PCG64(99))
    cs = sample_coefficients(dims, x_max, y_max, BELL_C, rng, complex_mode=True)
    ref = np.random.Generator(np.random.PCG64(99))
    for row, bound in ((cs.x[2], x_max), (cs.x[3], x_max), (cs.y[2], y_max), (cs.y[3], y_max)):
        unit = (1.0 - ref.random(row.size)) * np.exp(2j * np.pi * ref.random(row.size))
        assert row.tobytes() == (unit * bound).tobytes()


def test_sample_complex_mode():
    cs = random_set(seed=5, two_s_a=3, x_max=0.3, complex_mode=True)
    mods = np.abs(cs.x[2:].ravel())
    assert np.all(mods > 0.0) and np.all(mods <= 0.3 + 1e-15)
    assert np.any(cs.x[2:].imag != 0.0)


def test_sample_rejects_nonpositive_bounds():
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        sample_coefficients(SpinDims(2), 0.0, 0.5, BELL_C, rng)


class _InfAt:
    """A PCG64 generator whose uniform number ``at``, counted across its calls, is inf."""

    def __init__(self, at):
        self.at, self.seen = at, 0
        self.rng = np.random.Generator(np.random.PCG64(5))

    def random(self, size=None, out=None):
        out = self.rng.random(size, out=out)
        flat = out.reshape(-1)
        if 0 <= self.at - self.seen < flat.size:
            flat[self.at - self.seen] = np.inf
        self.seen += flat.size
        return out


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("row", ["x3", "y4"])
def test_sample_rejects_a_non_finite_uniform_before_any_arithmetic(row, complex_mode):
    # the last uniform of row x3 or y4 (in complex mode a phase); the stream
    # is checked before 1 - u or exp(2 pi i v) is formed, so no
    # RuntimeWarning comes first, and none becomes the error under "error"
    dims, per = SpinDims(3, 5), 2 if complex_mode else 1
    end = dims.m_a if row == "x3" else 2 * dims.m_a + 2 * dims.m_b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^array entries must be finite$"):
            sample_coefficients(dims, 0.5, 0.25, BELL_C, _InfAt(per * end - 1), complex_mode)


def test_tiny_perturbations_keep_concurrence_at_one():
    cs = random_set(seed=3, two_s_a=2, x_max=1e-9)
    assert concurrence_closed(cs) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# normalization


def test_normalization_zero_perturbations_m2():
    assert normalization(*cxy(bell_set(1))) == pytest.approx(2.0, abs=1e-15)


def test_normalization_single_level_m1():
    cs = CoefficientSet(SpinDims(0), (0, 0, 1, 0), np.zeros((4, 1)), np.zeros((4, 1)))
    assert normalization(*cxy(cs)) == pytest.approx(1.0, abs=1e-15)


def test_normalization_worked_example_against_brute_force():
    cs = worked_example()
    # independent path: raw amplitude tensor without the 1/N factor
    amp = cs.c[:, None, None] * (1.0 + cs.x)[:, :, None] * (1.0 + cs.y)[:, None, :]
    n_sq_brute = float(np.sum(np.abs(amp) ** 2))
    assert n_sq_brute == pytest.approx(5.78, abs=1e-12)
    assert normalization(*cxy(cs)) ** 2 == pytest.approx(n_sq_brute, rel=1e-14)
    assert normalization(*cxy(cs)) == pytest.approx(2.404163, abs=5e-7)


def test_normalization_degenerate_branch():
    x = np.zeros((4, 1))
    x[2, 0] = x[3, 0] = -1.0  # kills both populated branches
    cs = CoefficientSet(SpinDims(0), BELL_C, x, np.zeros((4, 1)))
    with pytest.raises(DegenerateStateError):
        normalization(*cxy(cs))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1e-6, max_value=0.5),
)
def test_assembled_state_has_unit_norm(seed, two_s_a, two_s_b, x_max):
    cs = random_set(seed, two_s_a, two_s_b, x_max)
    amp = assemble_state(*cxy(cs)).amp
    assert abs(float(np.sum(np.abs(amp) ** 2)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# EntanglementReport


def test_report_gap_is_negated_slack():
    r = EntanglementReport(0.9, 0.85, 0.85 - 0.81)
    assert r.gap == -(r.monogamy_slack)
    assert r.gap == pytest.approx(0.81 - 0.85, abs=1e-15)
    # a zero slack gives a gap of +0.0, never -0.0
    assert np.copysign(1.0, EntanglementReport(1.0, 1.0, 0.0).gap) == 1.0
    assert [f.name for f in dataclasses.fields(EntanglementReport)] == [
        "concurrence", "one_tangle", "monogamy_slack"
    ]


def test_report_rejects_monogamy_violation():
    with pytest.raises(ValueError, match="monogamy"):
        EntanglementReport(1.0, 0.5, -0.5)


def test_report_rejects_out_of_range():
    with pytest.raises(ValueError):
        EntanglementReport(1.5, 1.0, 0.0)


def test_report_rejects_one_tangle_out_of_range():
    with pytest.raises(ValueError, match=r"one_tangle out of \[0,1\]"):
        EntanglementReport(0.5, 1.5, 0.0)


def test_clamp_unit_snaps_a_rounding_undershoot_to_zero():
    assert _clamp_unit(-5e-13) == 0.0
    assert _clamp_unit(-2e-12) == -2e-12  # beyond the window: left for the checks
