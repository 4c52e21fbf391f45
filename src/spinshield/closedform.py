"""Analytical entanglement measures on the two-level device subspace.

With only the d=3 and d=4 device levels populated, the internal concurrence
and the one-tangle of either qubit reduce to ratios of six branch sums over
the apparatus indices.  The Cauchy-Schwarz inequality between those sums is
exactly what makes concurrence**2 <= one_tangle hold, so the two measures
coincide at first order in the perturbations and the gap between them decays
quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, DeviceModeError, EntanglementReport, _clamp_unit

__all__ = [
    "BranchSums",
    "branch_sums",
    "concurrence_closed",
    "one_tangle_closed",
    "monogamy_slack",
    "first_order_expansion",
    "evaluate",
]

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
        for pair, a, b, prod, gram in (
            ("X", self.X3, self.X4, self.X34, self.GX),
            ("Y", self.Y3, self.Y4, self.Y34, self.GY),
        ):
            if (prod.real**2 + prod.imag**2) > a * b * (1.0 + 1e-12) + 1e-300 or not gram >= 0.0:
                raise ValueError(
                    f"{pair} sums are inconsistent: |{pair}34|^2 must not exceed "
                    f"{pair}3*{pair}4 and G{pair} must be nonnegative"
                )


def _require_two_level(cs: CoefficientSet) -> None:
    if not cs.is_two_level:
        raise DeviceModeError("operation requires the two-level device mode (c1 = c2 = 0)")


def _side_sums(block: np.ndarray) -> tuple[float, float, complex, float]:
    """(S3, S4, S34, G) of one apparatus side from its 2 x m rows (x3, x4).

    Every sum is taken over the perturbations alone, never over 1 + x, so
    the O(m) part is the exact integer m:

        S3  = m + 2 Re sum x3 + sum |x3|^2,
        S34 = m + sum x3 + sum conj(x4) + sum x3 conj(x4).

    The real and imaginary parts of sum x3 conj(x4) are separate real
    reductions, so swapping the rows conjugates S34 exactly.  The Gram
    determinant S3 S4 - |S34|^2 equals S3 ||d - k u||^2 with u = 1 + x3,
    d = x4 - x3 and k = <u, d> / S3 (Lagrange's identity); the residual
    d - k u is orthogonal to u, so ||d - k u||^2 is stationary in k and the
    cheap, slightly cancelling k below is accurate enough.  Rows without
    imaginary parts are handled as real vectors.  Plain ufunc reductions
    only: no BLAS call, whose thread pool would compete with the sweep's
    worker processes.
    """
    m = block.shape[1]
    if block.imag.any():
        rows, flat = block, block.view(np.float64)  # flat: the rows as real vectors
        re, im = block.real, block.imag
        w = float(np.add.reduce(im[0] * re[1] - re[0] * im[1]))
    else:
        rows = flat = block.real
        w = 0.0
    a3, a4 = np.add.reduce(rows, axis=1).tolist()  # complex, or float for real rows
    q3, q4 = (float(np.add.reduce(np.square(row))) for row in flat)  # one row's temporary at a time
    p = float(np.add.reduce(flat[0] * flat[1]))
    s3 = m + (2.0 * a3.real + q3)
    s4 = m + (2.0 * a4.real + q4)
    s34 = complex(m + (a3.real + a4.real) + p, (a3.imag - a4.imag) + w)
    # <u, d> = sum conj(1 + x3) (x4 - x3) = sum x4 - sum x3 + conj(sum x3 conj(x4)) - sum |x3|^2
    ud = (a4 - a3) + (p - q3)
    if w:
        ud -= 1j * w
    k = ud / s3 if s3 > 0.0 else 0.0
    # residual d - k u = x4 - (1 + k) x3 - k, built in one temporary
    r = (1.0 + k) * rows[0]
    np.subtract(rows[1], r, out=r)
    r -= k
    if rows is block:
        r = r.view(np.float64)
    return s3, s4, s34, s3 * float(np.add.reduce(np.square(r, out=r)))


def branch_sums(cs: CoefficientSet) -> BranchSums:
    """Accumulate the six apparatus sums of a two-level coefficient set."""
    _require_two_level(cs)
    X3, X4, X34, GX = _side_sums(cs.x[2:4])
    Y3, Y4, Y34, GY = _side_sums(cs.y[2:4])
    return BranchSums(X3=X3, X4=X4, Y3=Y3, Y4=Y4, X34=X34, Y34=Y34, GX=GX, GY=GY)


def _measures(cs: CoefficientSet) -> tuple[float, float, float]:
    """(concurrence, one-tangle, monogamy slack) from one pass over the sums.

    The slack tau - C**2 = 4 |c3 c4|^2 (X3 X4 Y3 Y4 - |X34 Y34|^2) / N^4 is
    expanded through X3 X4 = GX + |X34|^2 into a sum of nonnegative terms,
    so it is nonnegative by construction and free of cancellation.
    """
    bs = branch_sums(cs)
    w3, w4 = (abs(c) for c in cs.c[2:].tolist())
    n_sq = w3 * w3 * bs.X3 * bs.Y3 + w4 * w4 * bs.X4 * bs.Y4
    w = w3 * w4
    x34_sq = bs.X34.real**2 + bs.X34.imag**2
    y34_sq = bs.Y34.real**2 + bs.Y34.imag**2
    c = _clamp_unit(max(0.0, 2.0 * w * abs(bs.X34) * abs(bs.Y34) / n_sq))
    # grouping (X3*X4)*(Y3*Y4) keeps the value exactly invariant under the
    # 3 <-> 4 row swap
    tau = _clamp_unit(4.0 * w * w * ((bs.X3 * bs.X4) * (bs.Y3 * bs.Y4)) / (n_sq * n_sq))
    gram = bs.GX * bs.GY + bs.GX * y34_sq + bs.GY * x34_sq
    return c, tau, 4.0 * w * w * gram / (n_sq * n_sq)


def concurrence_closed(cs: CoefficientSet) -> float:
    """Internal concurrence of the qubit pair, max{0, 2|c3 c4| |X34 Y34| / N^2}."""
    return _measures(cs)[0]


def one_tangle_closed(cs: CoefficientSet) -> float:
    """One-tangle of either qubit, 4|c3 c4|^2 X3 X4 Y3 Y4 / N^4.

    The same value describes both qubits; the configuration is symmetric
    under swapping them.
    """
    return _measures(cs)[1]


def monogamy_slack(cs: CoefficientSet) -> float:
    """one_tangle - concurrence**2, as a sum of nonnegative terms (never below 0).

    4 |c3 c4|^2 (GX GY + GX |Y34|^2 + GY |X34|^2) / N^4, with GX and GY the
    Gram determinants of :class:`BranchSums`.
    """
    return _measures(cs)[2]


def evaluate(cs: CoefficientSet) -> EntanglementReport:
    """Both measures of one draw and their exact slack, from a single pass over the sums."""
    return EntanglementReport(*_measures(cs))


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
