import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield.model import CoefficientSet, SpinDims
from spinshield.closedform import concurrence_closed
from spinshield.oracle import (
    DensityMatrix,
    ORACLE_MAX_DIM,
    PureState,
    assemble_state,
    one_tangle,
    reduce,
    separability_structure_check,
    wootters_concurrence,
)
from spinshield import model, oracle
from util import BELL_C, bell_set, random_c, random_set, worked_example

BELL_PROJECTOR = np.zeros((4, 4), dtype=complex)
BELL_PROJECTOR[np.ix_([0, 3], [0, 3])] = 0.5


# ---------------------------------------------------------------------------
# assemble_state


def test_assemble_bell_times_trivial_apparatus():
    state = assemble_state(bell_set(0))
    np.testing.assert_allclose(
        state.amp.ravel(), [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15
    )


def test_assemble_shape_and_norm():
    cs = random_set(seed=1, two_s_a=3, two_s_b=5, x_max=0.4)
    state = assemble_state(cs)
    assert state.amp.shape == (4, 4, 6)
    assert state.amp.size == 4 * 4 * 6
    assert abs(np.sum(np.abs(state.amp) ** 2) - 1.0) <= 1e-12


def test_assemble_dense_gate():
    big = SpinDims(70)  # 71 * 71 > 4096
    cs = CoefficientSet(big, BELL_C, np.zeros((4, 71)), np.zeros((4, 71)))
    with pytest.raises(ValueError, match="gated"):
        assemble_state(cs)
    assert 71 * 71 > ORACLE_MAX_DIM


# ---------------------------------------------------------------------------
# reduce


def test_reduce_bell_device_is_projector():
    rho = reduce(assemble_state(bell_set(0)), "D")
    np.testing.assert_allclose(rho.entries, BELL_PROJECTOR, atol=1e-14)


def test_reduce_bell_single_qubit_is_maximally_mixed():
    state = assemble_state(bell_set(0))
    for keep in ("Q1", "Q2"):
        rho = reduce(state, keep)
        np.testing.assert_allclose(rho.entries, 0.5 * np.eye(2), atol=1e-14)


def test_reduce_dimensions_per_selector():
    cs = random_set(seed=2, two_s_a=2, two_s_b=3, x_max=0.3)
    state = assemble_state(cs)
    expected = {"D": 4, "Q1": 2, "Q2": 2, "M": 12, "A": 3, "B": 4}
    for keep, dim in expected.items():
        assert reduce(state, keep).dim == dim


def test_reduce_unknown_selector():
    with pytest.raises(ValueError, match="selector"):
        reduce(assemble_state(bell_set(0)), "Z")


def _random_four_level_set(seed, two_s):
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = SpinDims(two_s)
    shape = (4, dims.m_a)
    x = 0.4 * (rng.random(shape) + 1j * rng.random(shape))
    y = 0.4 * (rng.random(shape) + 1j * rng.random(shape))
    c = rng.random(4) * np.exp(2j * np.pi * rng.random(4))
    return CoefficientSet(dims, c / np.linalg.norm(c), x, y)


# Each selector's partial trace written out as an einsum over the product-basis
# tensor t[q1, q2, a, b]; the kept indices keep their order, the last fastest.
_REDUCE_EINSUM = {
    "D": "qrab,stab->qrst",
    "Q1": "qrab,srab->qs",
    "Q2": "qrab,qsab->rs",
    "M": "qrab,qrce->abce",
    "A": "qrab,qrcb->ac",
    "B": "qrab,qrac->bc",
}


@pytest.mark.parametrize("seed", range(4))
def test_reduce_apparatus_matches_einsum_definition(seed):
    sets = [
        _random_four_level_set(seed, two_s=5),
        random_set(seed, 6, 4, x_max=0.5, c=random_c(seed), complex_mode=True),
    ]
    for cs in sets:
        state = assemble_state(cs)
        # device levels 3, 1, 2, 4 are the product states |00>, |01>, |10>, |11>
        t = state.amp[[2, 0, 1, 3]].reshape(2, 2, cs.dims.m_a, cs.dims.m_b)
        for keep, subscripts in _REDUCE_EINSUM.items():
            expected = np.einsum(subscripts, t, t.conj())
            dim = round(np.sqrt(expected.size))
            np.testing.assert_allclose(
                reduce(state, keep).entries, expected.reshape(dim, dim), rtol=0, atol=1e-15,
                err_msg=keep,
            )


def test_reduce_worked_example_entries():
    rho = reduce(assemble_state(worked_example()), "D").entries
    # product basis: |00> is index 0 (device level 3), |11> is index 3 (level 4)
    assert rho[0, 0].real == pytest.approx(2.90 / 5.78, abs=1e-12)
    assert rho[3, 3].real == pytest.approx(2.88 / 5.78, abs=1e-12)
    assert rho[0, 3].real == pytest.approx(5.76 / 11.56, abs=1e-12)
    assert rho[0, 3].real == pytest.approx(0.498270, abs=5e-7)
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_([0, 3], [0, 3])] = False
    assert np.max(np.abs(rho[mask])) == 0.0


@pytest.mark.parametrize("keep", ["D", "Q1", "Q2", "M", "A", "B"])
def test_reduce_returns_read_only_entries(keep):
    rho = reduce(assemble_state(random_set(3, 2, 3, x_max=0.4)), keep)
    assert not rho.entries.flags.writeable
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.5


# ---------------------------------------------------------------------------
# wootters_concurrence


def test_wootters_bell_projector():
    assert wootters_concurrence(DensityMatrix(4, BELL_PROJECTOR)) == pytest.approx(1.0, abs=1e-12)


def test_wootters_maximally_mixed():
    assert wootters_concurrence(DensityMatrix(4, np.eye(4) / 4)) == 0.0


@pytest.mark.parametrize("p", [0.0, 1 / 3, 0.5, 0.8, 1.0])
def test_wootters_werner_states(p):
    rho = DensityMatrix(4, p * BELL_PROJECTOR + (1 - p) / 4 * np.eye(4))
    assert wootters_concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_wootters_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="4x4"):
        wootters_concurrence(DensityMatrix(2, np.eye(2) / 2))


def test_wootters_rejects_an_eigenvalue_below_the_floor():
    # Hermitian and unit trace, so DensityMatrix accepts it; positivity is checked here
    rho = DensityMatrix(4, np.diag([0.5, 0.3, 0.3, -0.1]).astype(complex))
    with pytest.raises(ValueError, match="below the floor"):
        wootters_concurrence(rho)


def test_two_level_internal_cross_oracle():
    # closed form, eigenvalue route, and 2|rho_03| must all agree
    for seed in range(8):
        cs = random_set(seed, two_s_a=3, x_max=0.4, c=random_c(seed + 50))
        rho = reduce(assemble_state(cs), "D")
        c_eig = wootters_concurrence(rho)
        c_offdiag = 2.0 * abs(rho.entries[0, 3])
        assert abs(c_eig - c_offdiag) <= 1e-10
        assert abs(c_eig - concurrence_closed(cs)) <= 1e-10


# ---------------------------------------------------------------------------
# one_tangle


def test_one_tangle_maximally_mixed():
    assert one_tangle(DensityMatrix(2, np.eye(2) / 2)) == 1.0


def test_one_tangle_pure_projector():
    assert one_tangle(DensityMatrix(2, np.diag([1.0, 0.0]))) == 0.0


def test_one_tangle_worked_diagonal():
    p = 2.90 / 5.78
    rho = DensityMatrix(2, np.diag([p, 1 - p]))
    assert one_tangle(rho) == pytest.approx(33.408 / 33.4084, abs=1e-12)
    assert one_tangle(rho) == pytest.approx(0.9999880, abs=5e-8)


def test_one_tangle_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="2x2"):
        one_tangle(DensityMatrix(4, np.eye(4) / 4))


# ---------------------------------------------------------------------------
# separability of the apparatus state


def test_separability_bell_uniform_projector():
    cs = bell_set(1)
    rho_m = reduce(assemble_state(cs), "M").entries
    np.testing.assert_allclose(rho_m, np.full((4, 4), 0.25), atol=1e-14)
    assert separability_structure_check(cs, 1e-12)


def test_separability_worked_example_tight():
    assert separability_structure_check(worked_example(), 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.booleans(),
)
def test_separability_random_sets(seed, two_s_a, two_s_b, complex_mode):
    cs = random_set(seed, two_s_a, two_s_b, x_max=0.5,
                    c=random_c(seed + 9), complex_mode=complex_mode)
    assert separability_structure_check(cs, 1e-10)


def _separability_residual(cs):
    """(max |W W^H - rho_M|, max |rho_M|) from the materialized partial trace and the full mixture."""
    rho = reduce(assemble_state(cs), "M").entries
    n_sq = model._level_sums(*model._stacked(cs))[3][0]
    columns = []
    for d in range(4):
        av, bv = 1.0 + cs.x[d], 1.0 + cs.y[d]
        xd, yd = float(np.sum(np.abs(av) ** 2)), float(np.sum(np.abs(bv) ** 2))
        v = np.kron(av / np.sqrt(xd), bv / np.sqrt(yd))
        columns.append(np.sqrt(abs(cs.c[d]) ** 2 * xd * yd / n_sq) * v)
    w = np.stack(columns, axis=1)
    return float(np.max(np.abs(w @ w.conj().T - rho))), float(np.max(np.abs(rho)))


def test_separability_verdict_matches_the_materialized_residual():
    draws = []
    compared = {1e-10: 0, 1e-16: 0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.booleans(),
        st.booleans(),
    )
    def check(seed, two_s_a, two_s_b, complex_mode, four_level):
        if four_level:
            v = np.random.Generator(np.random.PCG64(seed + 1)).standard_normal(8).view(complex)
            c = tuple(v / np.linalg.norm(v))
        else:
            c = random_c(seed + 1)
        cs = random_set(seed, two_s_a, two_s_b, x_max=0.5, c=c, complex_mode=complex_mode)
        residual, scale = _separability_residual(cs)
        draws.append(scale)
        for tol in compared:
            # the strip pass and the whole-matrix products round differently,
            # by up to about 2 ulp of the largest entry; a residual that close
            # to tol may go either way
            if abs(residual - tol) > 4 * np.finfo(float).eps * scale:
                assert separability_structure_check(cs, tol) == (residual <= tol)
                compared[tol] += 1

    check()
    # at tol = 1e-16 that margin exceeds |residual - tol| wherever max |rho_M|
    # is above about 0.1, as for the smallest spins; the larger ones must
    # still be compared (a third to two thirds of the draws are)
    assert compared[1e-10] == len(draws)
    assert compared[1e-16] >= len(draws) // 4, (compared, len(draws))


def test_separability_check_never_stores_the_apparatus_matrix():
    cs = random_set(3, 31, 31, x_max=0.5, c=random_c(4), complex_mode=True)
    assert cs.dims.m_a * cs.dims.m_b == 1024
    tracemalloc.start()
    try:
        assert separability_structure_check(cs, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rho_M alone takes 1024**2 * 16 bytes = 16.8 MB
    assert peak < 4e6


def _apply(e, i, faults, put):
    """Add (or, with put, write) each fault at its rho_M position to block e, whose entry [0, 0] is rho_M[i, i]."""
    for (r, c), value in faults.items():
        if 0 <= r - i < e.shape[0] and 0 <= c - i < e.shape[1]:
            e[r - i, c - i] = value if put else e[r - i, c - i] + value


def _apply_parts(block, i, faults, put, lower):
    """_apply on a parts block (1, h, 2, w) of strip i: upper holds rho_M[r, c] at [r - i, :, c - i],
    lower holds conj(rho_M[r, c]) at [c - i, :, r - i]."""
    for (r, c), value in faults.items():
        if lower:
            r, c, value = c, r, np.conj(value)
        if 0 <= r - i < block.shape[1] and 0 <= c - i < block.shape[3]:
            part = block[0, r - i, :, c - i]
            new = complex(value) if put else complex(*part) + value
            part[:] = new.real, new.imag


def _inject(monkeypatch, faults, put=False):
    """Give the separability pass strips of rho_M that carry the faults in every block holding them.

    The residual rho_M - W W^H carries them too, as it would if rho_M held them.
    """
    product_strips = oracle._product_strips

    def faulty_strips(k, w):
        for i, upper, lower, residual in product_strips(k, w):
            _apply_parts(upper, i, faults, put, False)
            _apply_parts(lower, i, faults, put, True)

            def faulty_residual(i=i, residual=residual):
                blocks = residual()
                _apply_parts(blocks[:1], i, faults, put, False)
                _apply_parts(blocks[1:], i, faults, put, True)
                return blocks

            yield i, upper, lower, faulty_residual

    monkeypatch.setattr(oracle, "_product_strips", faulty_strips)


def _faulty_rho_m(cs, faults, put=False):
    """The materialized rho_M with the same faults."""
    entries = reduce(assemble_state(cs), "M").entries.copy()
    _apply(entries, 0, faults, put)
    return entries


def _hermitian_bump(row, col, delta):
    return {(row, col): delta, (col, row): np.conj(delta)}


# m_a m_b = 289 is not a multiple of the 32-row strip: the short last strip
# holds row and column 288 only.  One draw in each mode: a real W and a
# complex one
CS_289 = tuple(
    random_set(5, 16, 16, x_max=0.5, c=random_c(6), complex_mode=mode) for mode in (False, True)
)


@pytest.mark.parametrize("scale, expected", [(10.0, False), (0.1, True)])
def test_separability_detects_a_perturbed_partial_trace(monkeypatch, scale, expected):
    tol = 1e-10
    for cs in CS_289:
        assert separability_structure_check(cs, tol)
    # (0, 1) and (1, 0) lie in the upper and lower blocks of the first strip
    _inject(monkeypatch, _hermitian_bump(0, 1, scale * tol * np.exp(0.3j)))
    for cs in CS_289:
        assert separability_structure_check(cs, tol) is expected


@pytest.mark.parametrize("scale, expected", [(10.0, False), (0.1, True)])
def test_separability_detects_a_bump_in_the_last_row_strip(monkeypatch, scale, expected):
    # a real bump of the diagonal entry (288, 288), the whole short last strip,
    # must keep the trace within 1e-12, hence the small tol.  (288, 287) and
    # (287, 288) lie in the lower and upper blocks of the strip before it; a
    # bump of one of them alone stays within the Hermiticity tolerance
    tol = 1e-14
    delta = scale * tol * np.exp(0.7j)
    for cs in CS_289:
        assert cs.dims.m_a * cs.dims.m_b == 289
        assert separability_structure_check(cs, tol)
        for faults in (
            {(288, 288): scale * tol},
            _hermitian_bump(288, 287, delta),
            {(288, 287): delta},
            {(287, 288): delta},
        ):
            with monkeypatch.context() as m:
                _inject(m, faults)
                assert separability_structure_check(cs, tol) is expected


def test_separability_fails_on_nan_in_partial_trace(monkeypatch):
    # (100, 40) lies in the lower block of the second strip, so a maximum that
    # skipped NaN would miss it
    _inject(monkeypatch, {(100, 40): np.nan}, put=True)
    for cs in CS_289:
        with pytest.raises(ValueError, match="finite"):
            separability_structure_check(cs, 1e-10)


@pytest.mark.parametrize("part, expected", [(0.8, False), (0.7, True)])
def test_separability_decides_a_bump_inside_the_band_exactly(monkeypatch, part, expected):
    # both parts of the bump lie in the band [tol / 1.5, tol], so neither
    # decides alone: the modulus sqrt(2) * part * tol is 1.13 tol (fails) or
    # 0.99 tol (passes); (100, 200) and (200, 100) lie in the upper and lower
    # blocks of the fourth strip
    tol = 1e-10
    _inject(monkeypatch, _hermitian_bump(200, 100, part * tol * (1 + 1j)))
    for cs in CS_289:
        assert separability_structure_check(cs, tol) is expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, -np.inf)])
def test_non_finite_entry_after_the_first_strip_fails_both_checks(monkeypatch, value):
    # row 200, column 100: the lower block of the fourth strip
    faults = {(200, 100): value}
    for cs in CS_289:
        entries = _faulty_rho_m(cs, faults, put=True)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(entries.shape[0], entries)
    _inject(monkeypatch, faults, put=True)
    for cs in CS_289:
        with pytest.raises(ValueError, match="finite"):
            separability_structure_check(cs, 1e-10)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({(200, 100): 1e-9}, "not Hermitian"),
        ({(150, 160): 1e-9j, (160, 150): 1e-9j}, "not Hermitian"),
        ({(5, 5): 1e-11}, "trace deviates"),
        # a residual failure in the first strip does not hide a later one
        ({(0, 1): 1e-6, (1, 0): 1e-6, (288, 288): 1e-11}, "trace deviates"),
        # the first failing strip words the error: its deviation, not a later one's
        ({(0, 1): 1e-9, (100, 110): 1e-6}, "from row 0"),
        ({(0, 1): 1e-9, (100, 110): np.nan}, "not Hermitian"),
        # finite partners whose difference overflows: not Hermitian, and no
        # RuntimeWarning first
        ({(100, 200): 1.7e308, (200, 100): -1.7e308}, "not Hermitian .max deviation inf in the strip from row 96"),
        # (200, 100) lies in the lower block of the fourth strip only: a fault
        # in only the imaginary part of the entry, then in only its real part
        ({(200, 100): 3e-9j}, r"^matrix is not Hermitian \(max deviation 3\.000e-09 in the strip from row 96\)$"),
        ({(200, 100): -2e-9}, r"^matrix is not Hermitian \(max deviation 2\.000e-09 in the strip from row 96\)$"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_separability_raises_the_density_matrix_error(monkeypatch, faults, message):
    for cs in CS_289:
        entries = _faulty_rho_m(cs, faults)
        with pytest.raises(ValueError, match=message) as expected:
            DensityMatrix(entries.shape[0], entries)
        with monkeypatch.context() as m:
            _inject(m, faults)
            with pytest.raises(ValueError) as raised:
                separability_structure_check(cs, 1e-10)
        assert str(raised.value) == str(expected.value)


def _counting(monkeypatch, name):
    """Replace oracle.<name> by a wrapper that counts its calls and the strips they yield."""
    original = getattr(oracle, name)
    counts = {"builds": 0, "strips": 0}

    def counted(*args):
        counts["builds"] += 1
        for strip in original(*args):
            counts["strips"] += 1
            yield strip

    monkeypatch.setattr(oracle, name, counted)
    return counts


def test_a_failing_strip_is_computed_once(monkeypatch):
    # (100, 200) lies in the upper block of the fourth strip, whose failure
    # ends the walk: strips 4 .. 9 are never formed, and none is formed twice
    faults = {(100, 200): 1e-9}
    for cs in CS_289:
        with monkeypatch.context() as m:
            counts = _counting(m, "_product_strips")
            _inject(m, faults)
            with pytest.raises(ValueError, match="not Hermitian"):
                separability_structure_check(cs, 1e-10)
        assert counts == {"builds": 1, "strips": 4}
        entries = _faulty_rho_m(cs, faults)
        with monkeypatch.context() as m:
            counts = _counting(m, "_matrix_strips")
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityMatrix(entries.shape[0], entries)
        assert counts == {"builds": 1, "strips": 4}


@pytest.mark.parametrize(
    "faults, message",
    [
        pytest.param(
            {(0, 1): 1e-9, (100, 110): 1e-6},
            r"^matrix is not Hermitian \(max deviation 1\.000e-09 in the strip from row 0\)$",
            id="bump-then-bump",
        ),
        pytest.param({(0, 1): 1e-9, (100, 110): np.nan}, "not Hermitian", id="bump-then-nan"),
        pytest.param({(0, 1): np.nan, (100, 110): 1e-6}, "^array entries must be finite$", id="nan-then-bump"),
    ],
)
def test_density_matrix_words_the_first_failing_strip(faults, message):
    m = np.eye(130, dtype=complex) / 130
    _apply(m, 0, faults, put=False)
    with pytest.raises(ValueError, match=message):
        DensityMatrix(130, m)


# ---------------------------------------------------------------------------
# stacks: one pass gives each matrix's values and errors bit for bit


def _reductions(keep, count=40):
    """The reductions onto keep of count random draws of both modes and mixed sizes, four-level ones too."""
    sets = []
    for seed in range(count):
        two_s = 1 + seed % 6
        if seed % 4 == 3:
            sets.append(_random_four_level_set(seed, two_s))
        else:
            sets.append(random_set(seed, two_s, x_max=0.5, c=random_c(seed), complex_mode=seed % 2 == 1))
    return np.stack([reduce(assemble_state(cs), keep).entries for cs in sets])


def _stack_error(build, stack):
    with pytest.raises(ValueError) as raised:
        build(stack)
    return raised.value


def test_stacked_read_outs_are_each_matrix_bit_for_bit():
    rho_d = _reductions("D")
    c = wootters_concurrence(DensityMatrix(4, rho_d))
    assert c.shape == (len(rho_d),)
    assert c.tobytes() == np.array([wootters_concurrence(DensityMatrix(4, e)) for e in rho_d]).tobytes()
    for keep in ("Q1", "Q2"):
        rho_q = _reductions(keep)
        tau = one_tangle(DensityMatrix(2, rho_q))
        assert tau.tobytes() == np.array([one_tangle(DensityMatrix(2, e)) for e in rho_q]).tobytes()
    # a leading shape of two axes reads out in that shape
    assert wootters_concurrence(DensityMatrix(4, rho_d.reshape(5, 8, 4, 4))).tobytes() == c.tobytes()


def test_stacked_states_and_reductions_are_each_state_bit_for_bit():
    sets = [random_set(seed, 3, x_max=0.5, c=random_c(seed)) for seed in range(12)]
    state = assemble_state(sets)
    assert state.amp.shape == (12, 4, 4, 4)
    for keep in ("D", "Q1", "Q2", "M", "A", "B"):
        stacked = reduce(state, keep).entries
        for cs, entries in zip(sets, stacked):
            assert entries.tobytes() == reduce(assemble_state(cs), keep).entries.tobytes(), keep
    # scaling the stack is bitwise the scaled sets' states
    scaled = assemble_state(sets, 0.0625).amp
    assert scaled.tobytes() == assemble_state([cs.scaled(0.0625) for cs in sets]).amp.tobytes()
    with pytest.raises(ValueError, match="share its dims"):
        assemble_state([sets[0], random_set(1, 4)])


def _bad(dim, kind, size=1.0):
    """A dim x dim matrix that fails one DensityMatrix check: a deviation, a NaN or the trace, by ``size``."""
    e = np.eye(dim, dtype=complex) / dim
    if kind == "hermitian":
        e[0, dim - 1] += size * 2e-9
    elif kind == "nan":
        e[dim - 1, 0] = np.nan
    else:
        e[0, 0] += size * 3e-11
    return e


def _lone_errors(build, stack):
    """{index: message} of the matrices of stack that build refuses on their own."""
    errors = {}
    for i, e in enumerate(stack):
        try:
            build(e)
        except ValueError as exc:
            errors[i] = str(exc)
    return errors


def _per_entry_errors(build, stack):
    """{index: message} that oracle.per_entry gives the matrices of stack, built as stacks."""
    return {i: str(exc) for i, exc in oracle.per_entry(lambda idx: build(stack[idx]), len(stack)).items()}


@pytest.mark.parametrize("dim", [2, 4, 40])
@pytest.mark.parametrize("kind", ["hermitian", "nan", "trace"])
def test_a_stack_raises_the_error_of_its_first_failing_matrix(dim, kind):
    # matrices 2 and 4 fail the same check by different amounts: the stack
    # raises matrix 2's own error, and per_entry gives each failing matrix,
    # and only those, the error it raises alone
    good = np.eye(dim, dtype=complex) / dim
    stack = np.stack([good, good, _bad(dim, kind), good, _bad(dim, kind, 2.0)])
    build = lambda e: DensityMatrix(dim, e)  # noqa: E731
    alone = _lone_errors(build, stack)
    assert alone.keys() == {2, 4}
    assert str(_stack_error(build, stack)) == alone[2]
    assert _per_entry_errors(build, stack) == alone


def test_a_stack_names_its_first_failing_matrix_whatever_strip_fails_it():
    # matrix 1 fails only in the second strip of its 40 rows, matrix 3 in the
    # first; matrix 0 fails only its trace, which is checked after every
    # strip.  The stack raises at the first strip any matrix fails, so with
    # matrix 3's error; per_entry names each failing matrix with its own
    good = np.eye(40, dtype=complex) / 40
    late, early, trace = good.copy(), _bad(40, "hermitian"), _bad(40, "trace")
    late[35, 38] += 5e-9
    build = lambda e: DensityMatrix(40, e)  # noqa: E731
    for stack, failing in (([good, late, good, early], {1, 3}), ([trace, late, good, early], {0, 1, 3})):
        stack = np.stack(stack)
        alone = _lone_errors(build, stack)
        assert alone.keys() == failing
        assert alone[1].endswith("in the strip from row 32)")
        assert str(_stack_error(build, stack)) == alone[3]
        assert _per_entry_errors(build, stack) == alone


def test_a_stacked_read_out_raises_the_error_of_its_first_failing_matrix():
    # Hermitian with unit trace, so DensityMatrix accepts them; the floor is
    # wootters'.  per_entry gives the Bell projectors their values bit for
    # bit and the two below the floor their own errors
    low = np.diag([0.5, 0.3, 0.3, -0.1]).astype(complex)
    lower = np.diag([0.6, 0.3, 0.3, -0.2]).astype(complex)
    stack = np.stack([BELL_PROJECTOR, BELL_PROJECTOR, low, lower, BELL_PROJECTOR])
    build = lambda e: wootters_concurrence(DensityMatrix(4, e))  # noqa: E731
    alone = _lone_errors(build, stack)
    assert alone.keys() == {2, 3} and alone[2] != alone[3]
    assert str(_stack_error(build, stack)) == alone[2]
    values = np.full(len(stack), np.nan)

    def run(idx):
        values[idx] = build(stack[idx])

    assert {i: str(exc) for i, exc in oracle.per_entry(run, len(stack)).items()} == alone
    assert values[[0, 1, 4]].tobytes() == np.array([build(stack[i]) for i in (0, 1, 4)]).tobytes()


def test_per_entry_gives_each_entry_its_own_values_or_error():
    # entries 2 and 7 raise in any stack that holds them, which halving the
    # stacks narrows down to each of them alone
    values = np.full(9, np.nan)
    runs = []

    def run(idx):
        runs.append(idx.tolist())
        for i in idx:
            if i in (2, 7):
                raise ValueError(f"entry {i}")
        values[idx] = idx

    errors = oracle.per_entry(run, 9)
    assert {i: str(e) for i, e in errors.items()} == {2: "entry 2", 7: "entry 7"}
    assert [i for i in range(9) if values[i] == i] == [0, 1, 3, 4, 5, 6, 8]
    assert runs[0] == list(range(9))
    # an empty stack does not run
    runs.clear()
    assert oracle.per_entry(run, 0) == {} and runs == []


# ---------------------------------------------------------------------------
# general device mode (all four levels populated)


def test_general_mode_odd_bell_state():
    # levels 1 and 2 map to |01> and |10>: equal weights give the other
    # maximally entangled pair
    dims = SpinDims(0)
    c = (1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0)
    cs = CoefficientSet(dims, c, np.zeros((4, 1)), np.zeros((4, 1)))
    rho = reduce(assemble_state(cs), "D")
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([1, 2], [1, 2])] = 0.5
    np.testing.assert_allclose(rho.entries, expected, atol=1e-14)
    assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_general_mode_four_level_state_is_well_formed():
    dims = SpinDims(2)
    rng = np.random.Generator(np.random.PCG64(17))
    x = 0.3 * rng.random((4, 3))
    y = 0.3 * rng.random((4, 3))
    cs = CoefficientSet(dims, np.full(4, 0.5), x, y)
    assert not cs.is_two_level
    state = assemble_state(cs)
    assert abs(np.sum(np.abs(state.amp) ** 2) - 1.0) <= 1e-12
    c = wootters_concurrence(reduce(state, "D"))
    assert 0.0 <= c <= 1.0
    for keep in ("Q1", "Q2"):
        assert 0.0 <= one_tangle(reduce(state, keep)) <= 1.0
    assert separability_structure_check(cs, 1e-10)


# ---------------------------------------------------------------------------
# structural invariants of the reductions


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
)
def test_schmidt_spectra_match_across_the_cut(seed, two_s):
    state = assemble_state(random_set(seed, two_s, x_max=0.5, c=random_c(seed + 3)))
    ev_d = np.sort(np.linalg.eigvalsh(reduce(state, "D").entries))[::-1]
    ev_m = np.sort(np.linalg.eigvalsh(reduce(state, "M").entries))[::-1]
    k = min(ev_d.size, ev_m.size)
    assert np.max(np.abs(ev_m[:k] - ev_d[:k])) <= 1e-10
    for tail in (ev_d[k:], ev_m[k:]):
        if tail.size:
            assert np.max(np.abs(tail)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
)
def test_single_qubit_tangles_are_symmetric(seed, two_s):
    state = assemble_state(random_set(seed, two_s, x_max=0.5, c=random_c(seed + 4)))
    t1 = one_tangle(reduce(state, "Q1"))
    t2 = one_tangle(reduce(state, "Q2"))
    assert abs(t1 - t2) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_reductions_are_valid_density_matrices(seed, two_s_a, two_s_b):
    state = assemble_state(random_set(seed, two_s_a, two_s_b, x_max=0.5))
    for keep in ("D", "Q1", "Q2", "M", "A", "B"):
        rho = reduce(state, keep)  # Hermiticity and trace checked on construction
        assert rho.min_eigenvalue() >= -1e-10


# ---------------------------------------------------------------------------
# DensityMatrix validation


@pytest.mark.filterwarnings("error")
def test_density_matrix_rejects_non_hermitian():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max deviation 5\.000e-01\)$"):
        DensityMatrix(2, m)
    # every entry finite, but 1.7e308 - (-1.7e308) overflows: inf, with no RuntimeWarning
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max deviation inf\)$"):
        DensityMatrix(2, np.array([[0.5, 1.7e308], [-1.7e308, 0.5]]))
    # a matrix of one strip names no row
    m = np.eye(32, dtype=complex) / 32
    m[3, 30] = 2e-9
    m[30, 3] = -1e-9
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max deviation 3\.000e-09\)$"):
        DensityMatrix(32, m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, np.eye(2))


def _matrix_with_defect(n, seed, part, mode):
    """I/n with non-Hermitian noise of 1e-16 and one defect whose parts are part * 1e-12."""
    rng = np.random.Generator(np.random.PCG64(seed))
    e = np.eye(n, dtype=complex) / n
    e += 1e-16 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = part * 1e-12
    if n == 1:
        e[0, 0] = 1.0 + 0.5j * a  # deviation exactly 1j * a
        return e
    i = int(rng.integers(n))
    j = (i + int(rng.integers(1, n))) % n
    # with no noise at (j, i) the deviation at (i, j) is exactly the defect
    e[i, j] = {"re": complex(a, 0.0), "im": complex(0.0, -a), "equal": complex(-a, a)}[mode]
    e[j, i] = 0.0
    return e


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 31, 32, 33, 64, 65, 130, 289]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(
        st.sampled_from([0.5, 1 / 1.5, 0.7, 2 ** -0.5, 0.8, 1.0, 1.2]),
        st.floats(min_value=0.3, max_value=1.3),
    ),
    st.sampled_from(["re", "im", "equal"]),
)
def test_hermiticity_check_is_exact_around_the_band(n, seed, part, mode):
    # parts below, inside and above the band [tol / 1.5, tol]; "equal" puts
    # |re| = |im|, where the modulus is sqrt(2) times each part
    e = _matrix_with_defect(n, seed, part, mode)
    if np.abs(e - e.conj().T).max() <= 1e-12:
        assert DensityMatrix(n, e).dim == n
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(n, e)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.5e-323, 2.2250738585072014e-308, 1e-12, 1.0,
                1.7976931348623157e308, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
            st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS), st.floats(min_value=0.9, max_value=1.6)),
    st.booleans(),
)
def test_part_wise_decision_equals_the_modulus_decision(pairs, tol, relative):
    # a relative tol is a multiple of the largest part, which puts it in or
    # near the band where the exact modulus decides
    d = np.array([complex(re, im) for re, im in pairs])
    if relative:
        tol = tol * float(np.max(np.abs(d.view(np.float64))))
    # one block of one row, its parts along axis 2; its callers silence 1.5 * 1.8e308
    parts = np.stack([d.real, d.imag])[None, None]
    with np.errstate(over="ignore"):
        assert oracle._within_tol(parts, tol).tolist() == [np.max(np.abs(d)) <= tol]


def test_density_matrix_rejects_defect_in_far_corner_tile():
    m = np.eye(130, dtype=complex) / 130
    m[0, 129] = 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(130, m)
    m[129, 0] = 1e-9
    assert DensityMatrix(130, m).dim == 130


def test_density_matrix_entries_read_only():
    rho = DensityMatrix(2, np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 5.0


def test_density_matrix_adopts_only_frozen_owned_arrays():
    frozen = np.eye(4, dtype=complex) / 4
    frozen.setflags(write=False)
    assert DensityMatrix(4, frozen).entries is frozen
    # a caller's writable array is copied and left writable
    writable = np.eye(4, dtype=complex) / 4
    rho = DensityMatrix(4, writable)
    assert writable.flags.writeable and not np.shares_memory(rho.entries, writable)
    assert not rho.entries.flags.writeable
    # a read-only view that does not own its data is copied too
    base = np.zeros((2, 4, 4), dtype=complex)
    base[0] = np.eye(4) / 4
    view = base[0]
    view.setflags(write=False)
    assert view.flags.c_contiguous and not view.flags.owndata
    assert not np.shares_memory(DensityMatrix(4, view).entries, base)


def test_density_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected array of shape"):
        DensityMatrix(2, np.eye(3) / 3)


@pytest.mark.parametrize(
    "dim, entries",
    [
        (2, np.array([[np.nan, 0], [0, np.nan]])),
        (4, np.full((4, 4), np.nan)),
        (2, np.array([[np.inf, 0], [0, 0.5]])),
        (2, np.array([[0.5, 1j * np.inf], [-1j * np.inf, 0.5]])),
    ],
)
def test_density_matrix_rejects_non_finite_entries(dim, entries):
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(dim, entries)


def test_pure_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="finite"):
        PureState(SpinDims(0), np.full((4, 1, 1), np.nan))
    amp = np.zeros((4, 1, 1), dtype=complex)
    amp[2, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        PureState(SpinDims(0), amp)


@pytest.mark.filterwarnings("error")
def test_pure_state_rejects_a_finite_amplitude_whose_norm_overflows():
    amp = np.zeros((4, 1, 1), dtype=complex)
    amp[2, 0, 0] = 1e200
    with pytest.raises(ValueError, match=r"^state norm\^2 deviates from 1 by inf$"):
        PureState(SpinDims(0), amp)


def test_pure_state_adopts_the_assembled_tensor():
    state = assemble_state(random_set(1, 3, 5, x_max=0.4))
    assert not state.amp.flags.writeable
    assert PureState(state.dims, state.amp).amp is state.amp
