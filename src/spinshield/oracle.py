"""Brute-force verification path: full state vectors and partial traces.

Everything here works from the dense amplitude tensor, independently of the
closed forms in :mod:`spinshield.closedform`: assemble the state, trace out
subsystems, and compute concurrence and one-tangle from the reduced density
matrices.  The dense route is gated to apparatus dimensions
``m_a * m_b <= 4096``; it exists to validate the closed forms, which are the
ones that scale.  :func:`reduce` materializes the matrix it returns; the
apparatus check forms the m_a m_b x m_a m_b matrix of the two spins one
32-row strip at a time and never stores it.  Every entry point takes a
leading stack axis; :func:`per_entry` tells which entries of a stack fail,
each with the error it raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SpinDims, _abs2, _clamp_unit, _frozen_array, _level_sums, normalization

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

_SIGMA_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=np.float64)


def per_entry(run, size: int) -> dict:
    """{index: error} of the entries of a stack of ``size`` that fail ``run(idx)``, an index array's stack.

    The whole stack runs at once; a stack that raises runs again as its two
    halves, down to single entries.  So every entry ends with what it gets
    on its own, values stored by ``run`` or its error.  An empty stack does
    not run.
    """
    errors, pending = {}, [np.arange(size)] if size else []
    while pending:
        idx = pending.pop()
        try:
            run(idx)
        except Exception as exc:
            if idx.size == 1:
                errors[int(idx[0])] = exc
            else:
                pending += [idx[:idx.size // 2], idx[idx.size // 2:]]
    return errors


def _moduli(d: np.ndarray) -> np.ndarray:
    """|z| of the entries of a parts block (..., 2, w), as numpy's complex abs rounds them."""
    z = np.empty(d.shape[:-2] + d.shape[-1:], dtype=np.complex128)
    z.real, z.imag = d[..., 0, :], d[..., 1, :]
    return np.abs(z)


def _within_tol(d: np.ndarray, tol: float) -> np.ndarray:
    """max |z| <= tol for each block of a stack (k, h, 2, w) of parts, axis 2 real and imaginary.

    With M = max(|re|, |im|) over an entry, the modulus is faithfully
    rounded, so its computed value obeys M <= |z| <= sqrt(2) M (1 + 2^-52)
    < 1.5 M.  The parts of the whole block therefore decide: M > tol
    anywhere fails, and 1.5 M < tol everywhere passes (strictly, since in
    the subnormal range 1.5 M itself rounds to even).  Only a block whose
    largest part lies in the band between takes the exact modulus.  A NaN
    fails every comparison and so reaches the modulus, which decides it as
    the direct formula does.
    """
    # kept over the modulus alone: a modulus per entry takes about 3x as long a strip
    if 1.5 * max(float(d.max()), -float(d.min())) < tol:  # the whole stack passes
        return np.ones(len(d), dtype=bool)
    axes = tuple(range(1, d.ndim))
    hi = d.max(axis=axes)
    lo = -d.min(axis=axes)
    ok = ~((hi > tol) | (lo > tol))
    band = ok & ~((1.5 * hi < tol) & (1.5 * lo < tol))
    if band.any():
        ok[band] = _moduli(d[band]).max(axis=(1, 2)) <= tol
    return ok


def _matrix_strips(e: np.ndarray):
    """(i, upper, lower) for each 32-row strip of a stack of square matrices e (k, n, n).

    ``upper`` (k, h, 2, n - i) holds the parts of e[:, i:i+h, i:], [c, :, r]
    those of e[c, r]; ``lower`` those of e[:, i:, i:i+h] conjugated and
    transposed, so it equals upper for a Hermitian stack.  Both are work
    buffers that the next strip reuses.
    """
    k, n = e.shape[0], e.shape[-1]
    upper_buf, lower_buf = np.empty((2, k * min(n, _STRIP) * 2 * n))
    for i in range(0, n, _STRIP):
        h, w = min(_STRIP, n - i), n - i
        upper = upper_buf[:k * h * 2 * w].reshape(k, h, 2, w)
        lower = lower_buf[:k * h * 2 * w].reshape(k, h, 2, w)
        block = e[:, i:i + h, i:]
        upper[:, :, 0], upper[:, :, 1] = block.real, block.imag
        block = e[:, i:, i:i + h].swapaxes(1, 2)
        lower[:, :, 0] = block.real
        np.negative(block.imag, out=lower[:, :, 1])
        yield i, upper, lower


def _factors(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real factors left (s, n, 2, 3r), right (s, 3r, n) of p q^H, for complex p, q (s, n, r), in two inner orders.

    With p = a + ib and q = c + id, left[:, j, :, o:o + 2r] @ right[:, o:o + 2r, t]
    holds Re (p q^H)[j, t] = [a b]_j . [c d]_t and Im (p q^H)[j, t] =
    [b -a]_j . [c d]_t for o = 0: one real product of inner dimension 2r
    per matrix, rows interleaving the parts.  For o = r it takes the same
    sums with the halves of the inner dimension the other way round.
    """
    s, n, r = p.shape
    left = np.empty((s, n, 2, 3, r))
    left[:, :, 0, 0] = left[:, :, 0, 2] = p.real
    left[:, :, 1, 0] = left[:, :, 1, 2] = left[:, :, 0, 1] = p.imag
    np.negative(p.real, out=left[:, :, 1, 1])
    right = np.empty((s, 3, r, n))
    right[:, 0] = right[:, 2] = q.real.swapaxes(1, 2)
    right[:, 1] = q.imag.swapaxes(1, 2)
    return left.reshape(s, n, 2, 3 * r), right.reshape(s, 3 * r, n)


def _product_strips(k: np.ndarray, w: np.ndarray):
    """(i, upper, lower, residual) for each 32-row strip of a stack of rho = k k^H, k (s, n, r), never storing rho.

    ``upper`` and ``lower`` are the (s, h, 2, n - i) blocks of
    :func:`_matrix_strips`, each one real BLAS product per matrix
    (:func:`_factors`): the lower block of a Hermitian matrix is the upper
    one's sums taken in the other inner order, so no pass reads a
    transposed block and the Hermiticity test still compares two
    computations.  ``residual()`` writes the blocks of rho - w w^H, one
    product each of [k | w] and [k | -w], in place over them, upper blocks
    first (2s, h, 2, n - i), and returns them.  The next strip reuses the
    buffer, so the caller may overwrite it.
    """
    s, n = k.shape[:2]
    rho, residual = _factors(k, k), _factors(np.concatenate([k, w], axis=2), np.concatenate([k, -w], axis=2))
    buf = np.empty(2 * s * 2 * min(n, _STRIP) * n)

    def products(left, right, i, h):
        blocks = buf[:2 * s * 2 * h * (n - i)].reshape(2, s, 2 * h, n - i)
        r = right.shape[1] // 3
        for o, out in zip((0, r), blocks):
            np.matmul(left[:, i:i + h, :, o:o + 2 * r].reshape(s, 2 * h, -1), right[:, o:o + 2 * r, i:], out=out)
        return blocks.reshape(2 * s, h, 2, n - i)

    for i in range(0, n, _STRIP):
        h = min(_STRIP, n - i)
        blocks = products(*rho, i, h)
        yield i, blocks[:s], blocks[s:], lambda i=i, h=h: products(*residual, i, h)


def _checked_strips(strips, n: int, size: int):
    """Walk the strips of a stack of ``size`` n x n matrices once, yielding each as DensityMatrix's checks pass on it.

    A strip is (i, upper, lower, ...) with the blocks of :func:`_matrix_strips`.
    Strip i decides Hermiticity from lower - upper, every pair (r, c) and
    (c, r) with c in the strip and r >= i.  The first strip that a matrix
    of the stack fails raises, worded from the first such matrix: "finite"
    if its blocks hold a NaN or inf, else its largest deviation, inf where
    finite partners differ beyond the float64 range.  After the last strip
    the traces, summed as ``trace()`` sums them, are checked.  The caller
    silences the warnings of inf - inf and of overflow.
    """
    buf = np.empty(size * min(n, _STRIP) * 2 * n)
    diag = np.empty((size, n), dtype=np.complex128)
    for strip in strips:
        i, upper, lower = strip[:3]
        h, w = upper.shape[1], upper.shape[3]
        d = np.subtract(lower, upper, out=buf[:size * h * 2 * w].reshape(size, h, 2, w))
        bad = ~_within_tol(d, _HERMITIAN_TOL)
        if bad.any():
            first = int(np.argmax(bad))
            if not (np.isfinite(upper[first]).all() and np.isfinite(lower[first]).all()):
                raise ValueError("array entries must be finite")
            at = f" in the strip from row {i}" if n > _STRIP else ""
            raise ValueError(f"matrix is not Hermitian (max deviation {_moduli(d[first]).max():.3e}{at})")
        # both parts of the strip's diagonal, (size, 2, h), into the complex diag
        parts = upper.diagonal(axis1=1, axis2=3)
        diag.view(np.float64).reshape(size, n, 2)[:, i:i + h] = parts.swapaxes(1, 2)
        yield strip
    trace = diag.sum(axis=1)
    trace_dev = np.hypot(trace.real - 1.0, trace.imag)
    bad = ~(trace_dev <= _TRACE_TOL)
    if bad.any():
        raise ValueError(f"trace deviates from 1 by {trace_dev[np.argmax(bad)]:.3e}")


@dataclass(frozen=True)
class PureState:
    """Dense amplitude tensor of shape (4, m_a, m_b), or a stack of them (..., 4, m_a, m_b).

    Axis -3 runs over the device levels d = 1..4, then the two apparatus
    indices; flattening in C order puts the device index slowest and the
    second apparatus index fastest.  Unit norm within 1e-12 and finite
    entries are enforced; a frozen array is adopted without a copy under the
    rule of :class:`~spinshield.model.CoefficientSet`.
    """

    dims: SpinDims
    amp: np.ndarray

    def __post_init__(self):
        amp = _frozen_array(self.amp, np.shape(self.amp)[:-3] + (4, self.dims.m_a, self.dims.m_b))
        flat = amp.reshape(-1, 4 * self.dims.m_a * self.dims.m_b)
        with np.errstate(over="ignore"):  # a finite amplitude may square to inf, which fails below
            norm_sq = _abs2(flat).sum(axis=1)
        bad = ~(np.abs(norm_sq - 1.0) <= 1e-12)
        if bad.any():
            # a NaN or inf entry fails the test above; only then is it looked for
            first = int(np.argmax(bad))
            if not np.isfinite(flat[first]).all():
                raise ValueError("array entries must be finite")
            raise ValueError(f"state norm^2 deviates from 1 by {norm_sq[first] - 1.0:.3e}")
        object.__setattr__(self, "amp", amp)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix of a subsystem, or a stack of them (..., dim, dim).

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
        entries = _frozen_array(self.entries, np.shape(self.entries)[:-2] + (self.dim, self.dim))
        stack = entries.reshape(-1, self.dim, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _checked_strips(_matrix_strips(stack), self.dim, len(stack)):
                pass
        object.__setattr__(self, "entries", entries)

    def min_eigenvalue(self):
        return np.linalg.eigvalsh(self.entries)[..., 0]


def assemble_state(c, x, y) -> PureState:
    """Build the normalized amplitude tensor c_d (1 + x[d,a]) (1 + y[d,b]) / N of each stacked draw.

    ``c`` (..., 4), ``x`` (..., 4, m_a) and ``y`` (..., 4, m_b) are arrays
    whose leading axes are the stack, and the dims come from their shapes;
    ``c`` may broadcast against the leading axes of ``x`` and ``y``.  A
    CoefficientSet's state is ``assemble_state(cs.c, cs.x, cs.y)``.
    """
    dims = SpinDims(x.shape[-1] - 1, y.shape[-1] - 1)
    mm = dims.m_a * dims.m_b
    if mm > ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle is gated to m_a*m_b <= {ORACLE_MAX_DIM}, got {mm}")
    n = normalization(c, x, y)
    amp = (c / np.asarray(n)[..., None])[..., None, None] * (1.0 + x)[..., None] * (1.0 + y)[..., None, :]
    amp.setflags(write=False)
    return PureState(dims, amp)


def reduce(state: PureState, keep: str) -> DensityMatrix:
    """Partial trace onto one subsystem, of each state of a stack.

    ``keep`` selects the factor: "D" (both qubits, in the product basis
    |00>, |01>, |10>, |11>), "Q1" or "Q2" (single qubit), "M" (both
    apparatus spins, second index fastest), "A" or "B" (one spin).
    """
    kept = _KEPT_AXES.get(keep)
    if kept is None:
        raise ValueError(f"unknown subsystem selector {keep!r}")
    lead = state.amp.shape[:-3]
    t = state.amp[..., _DEVICE_ROW_FOR_PRODUCT, :, :].reshape(*lead, 2, 2, state.dims.m_a, state.dims.m_b)
    # K: the kept axes first, in order (the last one fastest), and the traced
    # ones flattened into its columns, so that rho = K K^H
    first = len(lead)
    k = np.moveaxis(t, [first + a for a in kept], range(first, first + len(kept)))
    k = k.reshape(*lead, math.prod(k.shape[first:first + len(kept)]), -1)
    rho = k @ k.conj().swapaxes(-1, -2)
    # frozen, so DensityMatrix adopts it without a copy
    rho.setflags(write=False)
    return DensityMatrix(rho.shape[-1], rho)


def wootters_concurrence(rho: DensityMatrix):
    """Concurrence of a two-qubit density matrix via the spin-flip spectrum; an array for a stack.

    The descending l_i are the square roots of the eigenvalues of
    rho * (YY rho* YY), with YY the tensored second Pauli matrix in the
    product basis; the result is max{0, l1 - l2 - l3 - l4}.  They are
    computed as the singular values of K = L^T YY L where rho = L L+ comes
    from the Hermitian eigendecomposition: identical spectrum, but the
    singular values carry no cancellation error, so near-saturated states
    (two l_i almost equal) keep full precision where the non-Hermitian
    eigenvalue route loses half the digits.  LAPACK factors each matrix of
    a stack on its own.
    """
    if rho.dim != 4:
        raise ValueError("concurrence is defined for 4x4 (two-qubit) matrices")
    mu, u = np.linalg.eigh(rho.entries)
    low = mu[..., 0].reshape(-1)
    bad = low < _EIGENVALUE_FLOOR
    if bad.any():
        raise ValueError(f"density matrix has eigenvalue {low[np.argmax(bad)]:.3e} below the floor")
    factor = u * np.sqrt(np.clip(mu, 0.0, None))[..., None, :]
    k = factor.swapaxes(-1, -2) @ _SIGMA_YY @ factor
    lam = np.linalg.svd(k, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return _clamp_unit(np.where(c > 0.0, c, 0.0))  # max{0, c}, NaN to 0 as max(0.0, nan) gives


def one_tangle(rho: DensityMatrix):
    """4 det(rho) for a single-qubit state, clamped to [0, 1] near the edges; an array for a stack.

    The determinant's real part comes from the entries' parts, with no
    complex product, so a stack gives each matrix's value bit for bit.
    """
    if rho.dim != 2:
        raise ValueError("one-tangle is defined for 2x2 (single-qubit) matrices")
    re, im = rho.entries.real, rho.entries.imag
    det = (re[..., 0, 0] * re[..., 1, 1] - im[..., 0, 0] * im[..., 1, 1]) - (
        re[..., 0, 1] * re[..., 1, 0] - im[..., 0, 1] * im[..., 1, 0]
    )
    return _clamp_unit(4.0 * det)


def separability_structure_check(c, x, y, tol: float = 1e-10):
    """Whether the apparatus state of each stacked draw is an explicit mixture of product states.

    ``c``, ``x`` and ``y`` are one draw's arrays or a stack, as
    :func:`assemble_state` takes them; the verdict is a bool, or an array
    shaped as the stack.  The matrix of the two spins, rho_M = K K^H (K: the
    state's nonzero device rows as columns), must match W W^H entrywise
    within ``tol``: column d of W is sqrt(p_d) |a_d> (x) |b_d>, with |a_d>
    the normalized (1 + x[d]) column, |b_d> likewise, p_d = |c_d|^2 X_d Y_d / N^2.

    One pass over the strips of :func:`_product_strips` stores no m_a m_b x
    m_a m_b matrix: each strip passes DensityMatrix's checks (or raises its
    error), then, while any draw passes, the residuals are decided exactly
    by their parts.  A pass takes one draw, or 32 // (m_a m_b) whole ones,
    so each draw gets the strips and products it gets alone; K and W hold
    the rows and levels any draw of a pass populates, zero where one has none.
    """
    lead = x.shape[:-2]
    c, x, y = (a.reshape(-1, *a.shape[len(lead):]) for a in (np.broadcast_to(c, lead + (4,)), x, y))
    ok = np.ones(len(x), dtype=bool)
    group = max(1, _STRIP // (x.shape[-1] * y.shape[-1]))
    for g in (slice(i, i + group) for i in range(0, len(x), group)):
        amp = assemble_state(c[g], x[g], y[g]).amp.reshape(len(ok[g]), 4, -1)
        k = amp[:, amp.any(axis=(0, 2))].swapaxes(1, 2)
        w, xs, ys, n_sq = _level_sums(c[g], x[g], y[g])
        levels = (w != 0.0).any(axis=0)
        # X = Y = 1 where a draw leaves a level empty, so its p_d is 0
        xs, ys = (np.where(w != 0.0, sums, 1.0)[:, levels, None] for sums in (xs, ys))
        a, b = (1.0 + x[g, levels]) / np.sqrt(xs), (1.0 + y[g, levels]) / np.sqrt(ys)
        # column d: sqrt(p_d) times the Kronecker product of a_d and b_d
        scale = np.sqrt(w[:, levels, None] * xs * ys / n_sq[:, None, None])[..., None]
        factor = (scale * (a[..., None] * b[..., None, :])).reshape(*a.shape[:2], -1).swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for *_, residual in _checked_strips(_product_strips(k, factor), k.shape[1], len(k)):
                if ok[g].any():
                    ok[g] &= _within_tol(residual(), tol).reshape(2, -1).all(axis=0)
        del amp, k, factor, _, residual  # the next pass must not hold this one's arrays too
    return ok.reshape(lead) if lead else bool(ok[0])
