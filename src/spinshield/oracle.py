"""Brute-force verification path: full state vectors and partial traces.

Everything here works from the dense amplitude tensor, independently of the
closed forms in :mod:`spinshield.closedform`: assemble the state, trace out
subsystems, and compute concurrence and one-tangle from the reduced density
matrices.  The dense route is gated to apparatus dimensions
``m_a * m_b <= 4096``; it exists to validate the closed forms, which are the
ones that scale.  :func:`reduce` materializes the matrix it returns; the
apparatus check forms the m_a m_b x m_a m_b matrix of the two spins one
32-row strip at a time and never stores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CoefficientSet,
    SpinDims,
    _abs2,
    _clamp_unit,
    _frozen_array,
    _level_sums,
    normalization,
)

ORACLE_MAX_DIM = 4096

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10

# Height of the row strips every O(n^2) check walks: a 32-row strip of a
# 1089 x 1089 complex matrix (557 KB) stays in L2, and a transposed read of
# 32 rows reuses each cache line it loads.
_STRIP = 32

# Device level -> two-qubit product state: d=1 -> |01>, d=2 -> |10>,
# d=3 -> |00>, d=4 -> |11>.  Indexing amp by this array reorders the device
# axis into the product basis |00>, |01>, |10>, |11>.
_DEVICE_ROW_FOR_PRODUCT = np.array([2, 0, 1, 3])

# Subsystem selector -> the axes it keeps of the product-basis tensor
# (q1, q2, a, b); reduce traces out the others.
_KEPT_AXES = {"D": (0, 1), "Q1": (0,), "Q2": (1,), "M": (2, 3), "A": (2,), "B": (3,)}

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.float64,
)


def _within_tol(d: np.ndarray, tol: float) -> bool:
    """Exactly ``np.max(np.abs(d)) <= tol`` for a complex block, mostly without hypot.

    With M = max(|re|, |im|) over an entry, hypot is faithfully rounded, so
    its computed modulus obeys M <= |z|_computed <= sqrt(2) M (1 + 2^-52)
    < 1.5 M.  The parts of the whole block therefore decide: M > tol
    anywhere fails, and 1.5 M < tol everywhere passes.  That comparison is
    strict because in the subnormal range 1.5 M itself rounds to even.  Only
    a block whose largest part lies in the band [tol / 1.5, tol] takes the
    exact modulus.  The max and min reductions (array methods, which skip
    the dispatch cost of np.max and np.min) propagate NaN; a NaN fails every
    comparison, reaches the exact line and fails it there, as it fails the
    direct formula.
    """
    # kept over the modulus alone: a hypot per entry takes about 3x as long a strip
    parts = d.view(np.float64)
    hi = float(parts.max())
    lo = -float(parts.min())
    if hi > tol or lo > tol:
        return False
    if 1.5 * hi < tol and 1.5 * lo < tol:
        return True
    return bool(np.max(np.abs(d)) <= tol)


def _matrix_strips(e: np.ndarray):
    """(i, e[i:i+32, i:], e[i:, i:i+32]) for each 32-row strip of a square matrix, as views."""
    for i in range(0, e.shape[0], _STRIP):
        yield i, e[i:i + _STRIP, i:], e[i:, i:i + _STRIP]


def _product_strips(k: np.ndarray):
    """The strips of :func:`_matrix_strips` for rho = k k^H, never storing rho.

    Each block is one BLAS product into a work buffer that the next strip
    reuses, so the caller may overwrite a strip's blocks.
    """
    n = k.shape[0]
    k_h = k.conj().T
    upper_buf, lower_buf = np.empty((2, n * min(n, _STRIP)), dtype=np.complex128)
    for i in range(0, n, _STRIP):
        j = min(i + _STRIP, n)
        size = (j - i) * (n - i)
        upper = np.matmul(k[i:j], k_h[:, i:], out=upper_buf[:size].reshape(j - i, n - i))
        lower = np.matmul(k[i:], k_h[:, i:j], out=lower_buf[:size].reshape(n - i, j - i))
        yield i, upper, lower


def _checked_strips(strips, n: int):
    """Walk the strips of an n x n matrix once, yielding each as DensityMatrix's checks pass on it.

    Strip i decides Hermiticity from lower - conj(upper)^T, every pair (r, c)
    and (c, r) with c in the strip and r >= i, conjugated in row order into
    one buffer.  The first strip to fail words the error: "finite" if its
    blocks hold a NaN or inf, else its largest deviation, inf where finite
    partners differ beyond the float64 range.  A pass leaves every entry
    finite, so the trace, summed as ``trace()`` sums it, needs no finiteness
    test.  The caller silences the warnings of inf - inf and of overflow.
    """
    buf = np.empty(n * min(n, _STRIP), dtype=np.complex128)
    diag = np.empty(n, dtype=np.complex128)
    for i, upper, lower in strips:
        d = buf[:lower.size].reshape(lower.shape)
        np.conjugate(upper.T, out=d)
        np.subtract(lower, d, out=d)
        if not _within_tol(d, _HERMITIAN_TOL):
            if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
                raise ValueError("array entries must be finite")
            dev = np.abs(d).max()
            at = f" in the strip from row {i}" if n > _STRIP else ""
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e}{at})")
        diag[i:i + upper.shape[0]] = upper.diagonal()
        yield i, upper, lower
    trace_dev = abs(complex(diag.sum()) - 1.0)
    if not trace_dev <= _TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")


@dataclass(frozen=True)
class PureState:
    """Dense amplitude tensor of shape (4, m_a, m_b).

    Axis 0 runs over the device levels d = 1..4, then the two apparatus
    indices; flattening in C order puts the device index slowest and the
    second apparatus index fastest.  Unit norm within 1e-12 and finite
    entries are enforced; a frozen array is adopted without a copy under the
    rule of :class:`~spinshield.model.CoefficientSet`.
    """

    dims: SpinDims
    amp: np.ndarray

    def __post_init__(self):
        amp = _frozen_array(self.amp, (4, self.dims.m_a, self.dims.m_b))
        with np.errstate(over="ignore"):  # a finite amplitude may square to inf, which fails below
            norm_sq = float(np.sum(_abs2(amp)))
        if not abs(norm_sq - 1.0) <= 1e-12:
            # a NaN or inf entry fails the test above; only then is it looked for
            if not np.isfinite(amp).all():
                raise ValueError("array entries must be finite")
            raise ValueError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
        object.__setattr__(self, "amp", amp)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix of a subsystem.

    Hermiticity, trace and finite entries are checked at construction;
    positivity (every eigenvalue >= -1e-10, the tolerance-friendly floor for
    nearly rank-deficient reductions) is part of the invariant and is
    verified on demand through :meth:`min_eigenvalue`.  A frozen array is
    adopted without a copy under the rule of
    :class:`~spinshield.model.CoefficientSet`, so the matrices :func:`reduce`
    returns are never copied.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries, (self.dim, self.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _checked_strips(_matrix_strips(entries), self.dim):
                pass
        object.__setattr__(self, "entries", entries)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def assemble_state(cs: CoefficientSet) -> PureState:
    """Build the normalized amplitude tensor c_d (1 + x[d,a]) (1 + y[d,b]) / N."""
    mm = cs.dims.m_a * cs.dims.m_b
    if mm > ORACLE_MAX_DIM:
        raise ValueError(
            f"dense oracle is gated to m_a*m_b <= {ORACLE_MAX_DIM}, got {mm}"
        )
    n = normalization(cs)
    amp = (cs.c[:, None, None] / n) * (1.0 + cs.x)[:, :, None] * (1.0 + cs.y)[:, None, :]
    amp.setflags(write=False)
    return PureState(cs.dims, amp)


def reduce(state: PureState, keep: str) -> DensityMatrix:
    """Partial trace onto one subsystem.

    ``keep`` selects the factor: "D" (both qubits, in the product basis
    |00>, |01>, |10>, |11>), "Q1" or "Q2" (single qubit), "M" (both
    apparatus spins, second index fastest), "A" or "B" (one spin).
    """
    kept = _KEPT_AXES.get(keep)
    if kept is None:
        raise ValueError(f"unknown subsystem selector {keep!r}")
    t = state.amp[_DEVICE_ROW_FOR_PRODUCT].reshape(2, 2, state.dims.m_a, state.dims.m_b)
    # K: the kept axes first, in order (the last one fastest), and the traced
    # ones flattened into its columns, so that rho = K K^H
    k = np.moveaxis(t, kept, range(len(kept)))
    k = k.reshape(math.prod(k.shape[:len(kept)]), -1)
    rho = k @ k.conj().T
    # frozen, so DensityMatrix adopts it without a copy
    rho.setflags(write=False)
    return DensityMatrix(rho.shape[0], rho)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit density matrix via the spin-flip spectrum.

    The descending l_i are the square roots of the eigenvalues of
    rho * (YY rho* YY), with YY the tensored second Pauli matrix in the
    product basis; the result is max{0, l1 - l2 - l3 - l4}.  They are
    computed as the singular values of K = L^T YY L where rho = L L+ comes
    from the Hermitian eigendecomposition: identical spectrum, but the
    singular values carry no cancellation error, so near-saturated states
    (two l_i almost equal) keep full precision where the non-Hermitian
    eigenvalue route loses half the digits.
    """
    if rho.dim != 4:
        raise ValueError("concurrence is defined for 4x4 (two-qubit) matrices")
    mu, u = np.linalg.eigh(rho.entries)
    if mu[0] < _EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {mu[0]:.3e} below the floor")
    factor = u * np.sqrt(np.clip(mu, 0.0, None))
    k = factor.T @ _SIGMA_YY @ factor
    lam = np.linalg.svd(k, compute_uv=False)
    return _clamp_unit(max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])))


def one_tangle(rho: DensityMatrix) -> float:
    """4 det(rho) for a single-qubit state, clamped to [0, 1] near the edges."""
    if rho.dim != 2:
        raise ValueError("one-tangle is defined for 2x2 (single-qubit) matrices")
    e = rho.entries
    return _clamp_unit(4.0 * (e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]).real)


def separability_structure_check(cs: CoefficientSet, tol: float = 1e-10) -> bool:
    """Confirm the apparatus state is an explicit mixture of product states.

    The reduced matrix of the two spins is rebuilt as
    sum_d p_d |a_d><a_d| (x) |b_d><b_d| with |a_d> proportional to the
    (1 + x[d]) column, |b_d> likewise, and p_d = |c_d|^2 X_d Y_d / N^2.
    Returns True iff it matches the partial trace entrywise within ``tol``.

    With rho_M = K K^H (K: the state's nonzero device rows as columns) and
    W W^H (column d of W: sqrt(p_d) |a_d> (x) |b_d>), one pass over 32-row
    strips of rho_M stores no m_a m_b x m_a m_b matrix: each strip passes
    DensityMatrix's checks (or raises its error), then the residual is
    decided exactly by its parts on both blocks, until a strip fails it.
    """
    amp = assemble_state(cs).amp.reshape(4, -1)
    k = amp[amp.any(axis=1)].T
    levels, n_sq = _level_sums(cs)
    columns = [
        np.sqrt(w * xd * yd / n_sq)
        * np.kron((1.0 + cs.x[d]) / np.sqrt(xd), (1.0 + cs.y[d]) / np.sqrt(yd))
        for d, w, xd, yd in levels
    ]
    factor = np.stack(columns, axis=1)
    factor_h = factor.conj().T
    separable = True
    with np.errstate(over="ignore", invalid="ignore"):
        for i, upper, lower in _checked_strips(_product_strips(k), k.shape[0]):
            if separable:
                upper -= factor[i:i + _STRIP] @ factor_h[:, i:]
                lower -= factor[i:] @ factor_h[:, i:i + _STRIP]
                separable = _within_tol(upper, tol) and _within_tol(lower, tol)
    return separable
