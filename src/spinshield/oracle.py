"""Brute-force verification path: full state vectors and partial traces.

Everything here works from the dense amplitude tensor, independently of the
closed forms in :mod:`spinshield.closedform`: assemble the state, trace out
subsystems, and compute concurrence and one-tangle from the reduced density
matrices.  The dense route is gated to apparatus dimensions
``m_a * m_b <= 4096``; it exists to validate the closed forms, which are the
ones that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, SpinDims, _abs2, _norm_squared, normalization

__all__ = [
    "ORACLE_MAX_DIM",
    "PureState",
    "DensityMatrix",
    "assemble_state",
    "reduce",
    "wootters_concurrence",
    "one_tangle",
    "separability_structure_check",
]

ORACLE_MAX_DIM = 4096

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10

# Edge of the square tiles the Hermiticity check compares: a 64 x 64 complex
# tile and its transposed partner (128 KiB together) stay in cache.
_HERMITIAN_TILE = 64

# Device level -> two-qubit product state: d=1 -> |01>, d=2 -> |10>,
# d=3 -> |00>, d=4 -> |11>.  Indexing amp by this array reorders the device
# axis into the product basis |00>, |01>, |10>, |11>.
_DEVICE_ROW_FOR_PRODUCT = np.array([2, 0, 1, 3])

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.float64,
)


def _hermitian_deviation(e: np.ndarray) -> float:
    """max |e - e^H| over all entries, without a full-size transposed copy.

    Only the tile pairs on and above the diagonal are compared: the deviation
    at (j, i) is the negated conjugate of the one at (i, j), so its modulus
    is bitwise the same and the maximum equals the direct formula exactly
    (NaN included, which np.max propagates).
    """
    n = e.shape[0]
    b = _HERMITIAN_TILE
    if n <= b:
        return float(np.max(np.abs(e - e.conj().T)))
    tile_max = [
        np.max(np.abs(e[i:i + b, j:j + b] - e[j:j + b, i:i + b].conj().T))
        for i in range(0, n, b)
        for j in range(i, n, b)
    ]
    return float(np.max(tile_max))


@dataclass(frozen=True)
class PureState:
    """Dense amplitude tensor of shape (4, m_a, m_b).

    Axis 0 runs over the device levels d = 1..4, then the two apparatus
    indices; flattening in C order puts the device index slowest and the
    second apparatus index fastest.  Unit norm within 1e-12 is enforced.
    """

    dims: SpinDims
    amp: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amp, dtype=np.complex128)
        expected = (4, self.dims.m_a, self.dims.m_b)
        if amp.shape != expected:
            raise ValueError(f"amplitude tensor must have shape {expected}, got {amp.shape}")
        norm_sq = float(np.sum(_abs2(amp)))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix of a subsystem.

    Hermiticity and trace are checked at construction; positivity (every
    eigenvalue >= -1e-10, the tolerance-friendly floor for nearly
    rank-deficient reductions) is part of the invariant and is verified on
    demand through :meth:`min_eigenvalue`.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {entries.shape}")
        herm_dev = _hermitian_deviation(entries)
        if herm_dev > _HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        trace_dev = abs(complex(np.trace(entries)) - 1.0)
        if trace_dev > _TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
        entries.setflags(write=False)
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
    return PureState(cs.dims, amp)


def reduce(state: PureState, keep: str) -> DensityMatrix:
    """Partial trace onto one subsystem.

    ``keep`` selects the factor: "D" (both qubits, in the product basis
    |00>, |01>, |10>, |11>), "Q1" or "Q2" (single qubit), "M" (both
    apparatus spins, second index fastest), "A" or "B" (one spin).
    """
    a = state.amp
    if keep == "D":
        prod = a[_DEVICE_ROW_FOR_PRODUCT]
        rho = np.einsum("dab,eab->de", prod, prod.conj())
    elif keep in ("Q1", "Q2"):
        qq = a[_DEVICE_ROW_FOR_PRODUCT].reshape(2, 2, state.dims.m_a, state.dims.m_b)
        subscripts = "qrab,srab->qs" if keep == "Q1" else "qrab,qsab->rs"
        rho = np.einsum(subscripts, qq, qq.conj())
    elif keep == "M":
        # one zgemm with inner dimension 4: rho[ab, ce] = sum_d a[d,ab] a*[d,ce]
        flat = a.reshape(4, state.dims.m_a * state.dims.m_b)
        rho = flat.T @ flat.conj()
    elif keep == "A":
        rho = np.einsum("dab,dcb->ac", a, a.conj())
    elif keep == "B":
        rho = np.einsum("dab,dac->bc", a, a.conj())
    else:
        raise ValueError(f"unknown subsystem selector {keep!r}")
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
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return 1.0 if 1.0 < c <= 1.0 + 1e-12 else c


def one_tangle(rho: DensityMatrix) -> float:
    """4 det(rho) for a single-qubit state, clamped to [0, 1] near the edges."""
    if rho.dim != 2:
        raise ValueError("one-tangle is defined for 2x2 (single-qubit) matrices")
    e = rho.entries
    t = 4.0 * (e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]).real
    if -1e-12 <= t < 0.0:
        return 0.0
    if 1.0 < t <= 1.0 + 1e-12:
        return 1.0
    return t


def separability_structure_check(cs: CoefficientSet, tol: float = 1e-10) -> bool:
    """Confirm the apparatus state is an explicit mixture of product states.

    The reduced matrix of the two spins is rebuilt as
    sum_d p_d |a_d><a_d| (x) |b_d><b_d| with |a_d> proportional to the
    (1 + x[d]) column, |b_d> likewise, and p_d = |c_d|^2 X_d Y_d / N^2.
    Returns True iff it matches the partial trace entrywise within ``tol``.

    The mixture is formed as W W^H, one matrix product, where column d of
    the factor W is sqrt(p_d) |a_d> (x) |b_d>; the residual against the
    partial trace is taken in place.
    """
    rho_m = reduce(assemble_state(cs), "M").entries
    n_sq = _norm_squared(cs)
    columns = []
    for d in range(4):
        w = abs(cs.c[d]) ** 2
        if w == 0.0:
            continue
        av = 1.0 + cs.x[d]
        bv = 1.0 + cs.y[d]
        xd = float(_abs2(av).sum())
        yd = float(_abs2(bv).sum())
        v = np.kron(av / np.sqrt(xd), bv / np.sqrt(yd))
        columns.append(np.sqrt(w * xd * yd / n_sq) * v)
    factor = np.stack(columns, axis=1)
    residual = factor @ factor.conj().T
    residual -= rho_m
    return float(np.max(np.abs(residual))) <= tol
