"""Analytical entanglement measures on the two-level device subspace.

With only the d=3 and d=4 device levels populated, the internal concurrence
and the one-tangle of either qubit reduce to ratios of six branch sums over
the apparatus indices.  The Cauchy-Schwarz inequality between those sums is
exactly what makes concurrence**2 <= one_tangle hold, so the two measures
coincide at first order in the perturbations and the gap between them decays
quadratically.

One kernel on plain arrays serves a single draw and the sweep's stacks of
draws alike: ``_side_sums`` reduces each side's rows along the last axis,
and ``_from_sums`` forms the measures from the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CoefficientSet,
    DeviceModeError,
    EntanglementReport,
    _clamp_unit,
    _raise_failed,
    _report_checks,
)


@dataclass(frozen=True)
class BranchSums:
    """The inner sums over apparatus indices shared by both closed forms.

    X3 = sum |1 + x3|^2, X34 = sum (1 + x3) * conj(1 + x4), and likewise for
    X4 and the y side.  |X34|^2 <= X3 * X4 by Cauchy-Schwarz, with equality
    iff the two rows are proportional.  GX = X3 * X4 - |X34|^2 is that
    Cauchy-Schwarz gap (a Gram determinant), computed as a sum of squares
    so that it keeps its relative precision however small it is; GY
    likewise.
    """

    X3: float
    X4: float
    Y3: float
    Y4: float
    X34: complex
    Y34: complex
    GX: float
    GY: float

    def __post_init__(self):
        _raise_failed(_sum_checks(
            (self.X3, self.X4, self.X34, self.GX), (self.Y3, self.Y4, self.Y34, self.GY)
        ))


def _require_two_level(cs: CoefficientSet) -> None:
    if not cs.is_two_level:
        raise DeviceModeError("operation requires the two-level device mode (c1 = c2 = 0)")


def _modulus(z) -> tuple:
    """|z| and |z|**2 of complex entries, as Python's complex abs and float pow round them.

    numpy's complex abs rounds differently from the C library's hypot, and
    the C library's pow(x, 2) differs from x * x in the last bit, so no
    ufunc stands in for either: the sweep's outputs are pinned bit for bit.
    A draw has one S34 per side, so the loop is short.  A scalar gives two
    floats.
    """
    if not isinstance(z, np.ndarray) or not z.ndim:
        z = complex(z)
        return abs(z), z.real**2 + z.imag**2
    pairs = np.array([(abs(v), v.real**2 + v.imag**2) for v in z.ravel().tolist()])
    return pairs.T.reshape((2, *z.shape))


def _sum_checks(x_sums, y_sums) -> tuple:
    """BranchSums' checks as (holds, message, None) rows, one per side.

    A side's sums hold, on floats or entrywise on stacks, where |S34|**2
    does not exceed S3 S4 beyond rounding and G is nonnegative; a NaN
    fails.  The rows of :func:`~spinshield.model._report_checks` follow
    them in :func:`_first_failure`.
    """
    return tuple(
        (
            (_modulus(s34)[1] <= s3 * s4 * (1.0 + 1e-12) + 1e-300) & (g >= 0.0),
            f"{pair} sums are inconsistent: |{pair}34|^2 must not exceed "
            f"{pair}3*{pair}4 and G{pair} must be nonnegative",
            None,
        )
        for pair, (s3, s4, s34, g) in (("X", x_sums), ("Y", y_sums))
    )


def _complex(re, im):
    """re + i im with both parts kept bit for bit: a complex array, or a complex for floats."""
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    z = np.empty(re.shape, np.complex128)
    z.real, z.imag = re, im
    return z


def _quotient(num, den):
    """num / den where den > 0, and 0.0 elsewhere: entrywise on arrays, or on floats."""
    if not isinstance(den, np.ndarray):
        return num / den if den > 0.0 else 0.0
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def _side_sums(block: np.ndarray) -> tuple:
    """(S3, S4, S34, G) of one apparatus side from its rows (x3, x4), along the last axis.

    ``block`` is a float64 (real rows) or complex128 array of shape
    (..., 2, m) whose last axis is contiguous for complex rows.  A stack of
    draws gives arrays of the leading shape (...), each row reduced on its
    own; one draw, a (2, m) block, gives floats and a complex.  Every sum is
    taken over the perturbations alone, never over 1 + x, so the O(m) part
    is the exact integer m:

        S3  = m + 2 Re sum x3 + sum |x3|^2,
        S34 = m + sum x3 + sum conj(x4) + sum x3 conj(x4).

    The real and imaginary parts of sum x3 conj(x4) are separate real
    reductions, so swapping the rows conjugates S34 exactly.  The Gram
    determinant S3 S4 - |S34|^2 equals S3 ||d - k u||^2 with u = 1 + x3,
    d = x4 - x3 and k = <u, d> / S3 (Lagrange's identity); the residual
    d - k u is orthogonal to u, so ||d - k u||^2 is stationary in k and the
    cheap, slightly cancelling k below is accurate enough.  Plain ufunc
    reductions only: no BLAS call, whose thread pool would compete with the
    sweep's worker processes.
    """
    m = block.shape[-1]
    x3, x4 = block[..., 0, :], block[..., 1, :]
    is_complex = block.dtype.kind == "c"
    flat3, flat4 = (x3.view(np.float64), x4.view(np.float64)) if is_complex else (x3, x4)
    # every sum keeps its reduced axis, so that it broadcasts against the rows
    a = np.add.reduce(block, axis=-1, keepdims=True)
    q3 = np.add.reduce(np.square(flat3), axis=-1, keepdims=True)  # one row's temporary at a time
    q4 = np.add.reduce(np.square(flat4), axis=-1, keepdims=True)
    p = np.add.reduce(flat3 * flat4, axis=-1, keepdims=True)
    w = 0.0
    if is_complex:
        cross = x3.imag * x4.real  # for Im sum x3 conj(x4); freed before the residual is built
        cross -= x3.real * x4.imag
        w = np.add.reduce(cross, axis=-1, keepdims=True)
        del cross
    # one draw: the arithmetic below runs on Python scalars, which makes evaluate
    # about 3x faster than a stack of one at m = 17, the size verify draws
    if block.ndim == 2:
        (a3, a4), q3, q4, p = a.ravel().tolist(), q3.item(), q4.item(), p.item()
        w = w.item() if is_complex else w
    else:
        a3, a4 = a[..., 0, :], a[..., 1, :]
    s3 = m + (2.0 * a3.real + q3)
    s4 = m + (2.0 * a4.real + q4)
    s34 = _complex(m + (a3.real + a4.real) + p, (a3.imag - a4.imag) + w)
    # <u, d> = sum conj(1 + x3) (x4 - x3) = sum x4 - sum x3 + conj(sum x3 conj(x4)) - sum |x3|^2,
    # divided part by part, as Python divides a complex by a float
    k = _quotient((a4.real - a3.real) + (p - q3), s3)
    if is_complex:
        k = _complex(k, _quotient(((a4.imag - a3.imag) + 0.0) - w, s3))
    # residual d - k u = x4 - (1 + k) x3 - k in one temporary; (1 + k) x3 is (1 + Re k) x3 + (i Im k) x3,
    # since a real or an imaginary factor rounds alike at every SIMD level and a complex one may use FMA
    r = (1.0 + k.real) * x3
    if is_complex:
        r.real -= k.imag * x3.imag
        r.imag += k.imag * x3.real
    np.subtract(x4, r, out=r)
    r -= k
    if is_complex:
        r = r.view(np.float64)
    g = s3 * np.add.reduce(np.square(r, out=r), axis=-1, keepdims=True)
    if block.ndim == 2:
        return s3, s4, s34, g.item()
    return s3[..., 0], s4[..., 0], s34[..., 0], g[..., 0]


def _from_sums(x_sums, y_sums, w3: float, w4: float) -> tuple:
    """(concurrence, one-tangle, monogamy slack) from the branch sums of each side.

    The sums are those of :func:`_side_sums`, of one draw or of a stack;
    w3 = |c3| and w4 = |c4|.  The slack
    tau - C**2 = 4 |c3 c4|^2 (X3 X4 Y3 Y4 - |X34 Y34|^2) / N^4 is expanded
    through X3 X4 = GX + |X34|^2 into a sum of nonnegative terms, so it is
    nonnegative by construction and free of cancellation.
    """
    X3, X4, X34, GX = x_sums
    Y3, Y4, Y34, GY = y_sums
    n_sq = w3 * w3 * X3 * Y3 + w4 * w4 * X4 * Y4
    w = w3 * w4
    x34_abs, x34_sq = _modulus(X34)
    y34_abs, y34_sq = _modulus(Y34)
    c = _clamp_unit(2.0 * w * x34_abs * y34_abs / n_sq)
    # grouping (X3*X4)*(Y3*Y4) keeps the value exactly invariant under the
    # 3 <-> 4 row swap
    tau = _clamp_unit(4.0 * w * w * ((X3 * X4) * (Y3 * Y4)) / (n_sq * n_sq))
    gram = GX * GY + GX * y34_sq + GY * x34_sq
    return c, tau, 4.0 * w * w * gram / (n_sq * n_sq)


def _first_failure(x_sums, y_sums, c, tau, slack) -> tuple[int, str] | None:
    """(i, message) for the first draw of a stack that fails a check; None when every draw passes.

    The checks are the rows of :class:`BranchSums` and then of
    :class:`EntanglementReport`, and the message is the one that building
    those types from draw i's values raises.
    """
    rows = (*_sum_checks(x_sums, y_sums), *_report_checks(c, tau, slack))
    fails = np.logical_not([holds for holds, _, _ in rows])  # (check, draw)
    bad = fails.any(axis=0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    _, message, value = rows[int(np.argmax(fails[:, i]))]
    return i, message.format(None if value is None else value[i].item())


def _rows_of(matrix: np.ndarray) -> np.ndarray:
    """Rows d = 3, 4 of a perturbation matrix, as real vectors when they have no imaginary part."""
    block = matrix[2:4]
    return block if block.imag.any() else block.real


def branch_sums(cs: CoefficientSet) -> BranchSums:
    """Accumulate the six apparatus sums of a two-level coefficient set."""
    _require_two_level(cs)
    X3, X4, X34, GX = _side_sums(_rows_of(cs.x))
    Y3, Y4, Y34, GY = _side_sums(_rows_of(cs.y))
    return BranchSums(X3=X3, X4=X4, Y3=Y3, Y4=Y4, X34=X34, Y34=Y34, GX=GX, GY=GY)


def evaluate(cs: CoefficientSet) -> EntanglementReport:
    """Both measures of one draw and their exact slack, from a single pass over the sums."""
    bs = branch_sums(cs)
    return EntanglementReport(*_from_sums(
        (bs.X3, bs.X4, bs.X34, bs.GX), (bs.Y3, bs.Y4, bs.Y34, bs.GY),
        *(abs(c) for c in cs.c[2:].tolist()),
    ))


def concurrence_closed(cs: CoefficientSet) -> float:
    """Internal concurrence of the qubit pair, max{0, 2|c3 c4| |X34 Y34| / N^2}: evaluate's read-out."""
    return evaluate(cs).concurrence


def one_tangle_closed(cs: CoefficientSet) -> float:
    """One-tangle of either qubit, 4|c3 c4|^2 X3 X4 Y3 Y4 / N^4: evaluate's read-out.

    The same value describes both qubits; the configuration is symmetric
    under swapping them.
    """
    return evaluate(cs).one_tangle


def monogamy_slack(cs: CoefficientSet) -> float:
    """one_tangle - concurrence**2, as a sum of nonnegative terms (never below 0): evaluate's read-out.

    4 |c3 c4|^2 (GX GY + GX |Y34|^2 + GY |X34|^2) / N^4, with GX and GY the
    Gram determinants of :class:`BranchSums`.
    """
    return evaluate(cs).monogamy_slack


def first_order_expansion(cs: CoefficientSet) -> float:
    """The common first-order expansion T1 of concurrence**2 and of the one-tangle.

    Writing xbar_d for the mean real part of row d (ybar_d likewise), both
    measures truncate at first order in the perturbations to the same value

        T1 = (2 |c3 c4| m_a m_b (1 + xbar3 + xbar4 + ybar3 + ybar4) / N1^2)^2,

    with N1^2 the first-order expansion of the squared normalization.  The
    residual of either exact measure against T1 is quadratic in the
    perturbation scale.
    """
    _require_two_level(cs)
    xbar3 = float(np.mean(cs.x[2].real))
    xbar4 = float(np.mean(cs.x[3].real))
    ybar3 = float(np.mean(cs.y[2].real))
    ybar4 = float(np.mean(cs.y[3].real))
    w3, w4 = abs(cs.c[2]) ** 2, abs(cs.c[3]) ** 2
    # the m_a * m_b factors of the numerator and of N1^2 cancel exactly
    n1_ratio = w3 * (1.0 + 2.0 * (xbar3 + ybar3)) + w4 * (1.0 + 2.0 * (xbar4 + ybar4))
    return float(
        (2.0 * abs(cs.c[2] * cs.c[3]) * (1.0 + xbar3 + xbar4 + ybar3 + ybar4) / n1_ratio) ** 2
    )
