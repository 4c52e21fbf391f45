from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import (
    CoefficientSet,
    DensityMatrix,
    ORACLE_MAX_DIM,
    PureState,
    SpinDims,
    assemble_state,
    concurrence_closed,
    one_tangle,
    reduce,
    separability_structure_check,
    wootters_concurrence,
)
from spinshield import oracle
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


@pytest.mark.parametrize("seed", range(4))
def test_reduce_apparatus_matches_einsum_definition(seed):
    sets = [
        _random_four_level_set(seed, two_s=5),
        random_set(seed, 6, 4, x_max=0.5, c=random_c(seed), complex_mode=True),
    ]
    for cs in sets:
        state = assemble_state(cs)
        a = state.amp
        mm = cs.dims.m_a * cs.dims.m_b
        expected = np.einsum("dab,dce->abce", a, a.conj()).reshape(mm, mm)
        np.testing.assert_allclose(reduce(state, "M").entries, expected, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("scale, expected", [(10.0, False), (0.1, True)])
def test_separability_detects_a_perturbed_partial_trace(monkeypatch, scale, expected):
    tol = 1e-10
    cs = random_set(5, 3, 2, x_max=0.5, c=random_c(6), complex_mode=True)
    assert separability_structure_check(cs, tol)
    real_reduce = oracle.reduce
    delta = scale * tol * np.exp(0.3j)

    def reduce_with_hermitian_bump(state, keep):
        rho = real_reduce(state, keep)
        if keep != "M":
            return rho
        entries = rho.entries.copy()
        entries[0, 1] += delta
        entries[1, 0] += np.conj(delta)
        return DensityMatrix(rho.dim, entries)

    monkeypatch.setattr(oracle, "reduce", reduce_with_hermitian_bump)
    assert separability_structure_check(cs, tol) is expected


@pytest.mark.parametrize("scale, expected", [(10.0, False), (0.1, True)])
def test_separability_detects_a_bump_in_the_last_row_strip(monkeypatch, scale, expected):
    # m_a m_b = 289 is not a multiple of the 64-row strip; rows 287 and 288
    # both fall in the short last strip
    tol = 1e-10
    cs = random_set(5, 16, 16, x_max=0.5, c=random_c(6), complex_mode=True)
    assert cs.dims.m_a * cs.dims.m_b == 289
    assert separability_structure_check(cs, tol)
    real_reduce = oracle.reduce
    delta = scale * tol * np.exp(0.7j)

    def reduce_with_hermitian_bump(state, keep):
        rho = real_reduce(state, keep)
        if keep != "M":
            return rho
        entries = rho.entries.copy()
        entries[288, 287] += delta
        entries[287, 288] += np.conj(delta)
        return DensityMatrix(rho.dim, entries)

    monkeypatch.setattr(oracle, "reduce", reduce_with_hermitian_bump)
    assert separability_structure_check(cs, tol) is expected


def test_separability_fails_on_nan_in_partial_trace(monkeypatch):
    # the NaN sits in the second of five row strips, so a maximum that
    # skipped NaN would miss it
    cs = random_set(5, 16, 16, x_max=0.5, c=random_c(6), complex_mode=True)
    real_reduce = oracle.reduce

    def reduce_with_nan(state, keep):
        entries = real_reduce(state, keep).entries.copy()
        entries[100, 5] = np.nan
        return SimpleNamespace(dim=entries.shape[0], entries=entries)

    monkeypatch.setattr(oracle, "reduce", reduce_with_nan)
    assert separability_structure_check(cs, 1e-10) is False


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


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(2, m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, np.eye(2))


@pytest.mark.parametrize("n", [1, 4, 63, 64, 65, 130])
def test_tiled_hermitian_deviation_is_bitwise_direct(n):
    rng = np.random.Generator(np.random.PCG64(n))
    for _ in range(3):
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert oracle._hermitian_deviation(e) == np.max(np.abs(e - e.conj().T))


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


# inf - inf in the tolerance checks warns before the ValueError
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_pure_state_adopts_the_assembled_tensor():
    state = assemble_state(random_set(1, 3, 5, x_max=0.4))
    assert not state.amp.flags.writeable
    assert PureState(state.dims, state.amp).amp is state.amp
