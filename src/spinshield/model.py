"""Coefficient ansatz for a qubit pair entangled through two large-spin systems.

The joint state of the device (two qubits, a 4-dimensional factor) and the
apparatus (two spins with Hilbert-space dimensions ``m_a`` and ``m_b``) is
parametrized by near-product amplitudes

    amp(d, alpha, beta) = c_d * (1 + x[d, alpha]) * (1 + y[d, beta]) / N,

where the perturbations ``x``, ``y`` shrink as the spins grow and ``N`` is
fixed by unit norm.  This module owns the parameter types, the random
generation used by the Monte Carlo sweeps, and the normalization.

Note on the normalization convention: ``N`` is the unique positive number
that makes the assembled state a unit vector, which scales like
``sqrt(m_a * m_b)`` when the perturbations are small.  It is *not* close to
1 for large spins; every formula in :mod:`spinshield.closedform` divides by
the appropriate power of ``N``, so only the ratio matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateStateError",
    "DeviceModeError",
    "SpinDims",
    "CoefficientSet",
    "EntanglementReport",
    "x_max_schedule",
    "sample_coefficients",
    "normalization",
]

_C_NORM_TOL = 1e-12


class DegenerateStateError(ValueError):
    """Raised when every device weight vanishes and no state can be normalized."""


class DeviceModeError(ValueError):
    """Raised when an operation needs the two-level device mode (only c3, c4 populated)."""


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _frozen_array(values, shape, check_finite: bool = True) -> np.ndarray:
    """A write-protected complex128 array holding ``values``, checked for shape and finiteness.

    A write-protected, C-contiguous complex128 array that owns its data (as
    :func:`sample_coefficients` and the dense oracle build them) is adopted
    as it is; anything else is copied, so a caller's array is never frozen
    or aliased.  ``check_finite=False`` skips the finiteness pass for a
    caller whose own tolerance checks already fail on any non-finite entry.
    """
    flags = values.flags if isinstance(values, np.ndarray) else None
    if (
        flags is not None
        and values.dtype == np.complex128
        and flags.owndata
        and flags.c_contiguous
        and not flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=np.complex128, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if check_finite and not np.isfinite(arr).all():
        raise ValueError("array entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinDims:
    """Sizes of the two apparatus spins, stored as the integers 2*S_A and 2*S_B.

    Half-integer spins are represented exactly this way; the Hilbert-space
    dimensions are ``m_a = two_s_a + 1`` and ``m_b = two_s_b + 1``.  Omitting
    ``two_s_b`` gives equal spins, the default configuration.
    """

    two_s_a: int
    two_s_b: int | None = None

    def __post_init__(self):
        if self.two_s_b is None:
            object.__setattr__(self, "two_s_b", self.two_s_a)
        for name in ("two_s_a", "two_s_b"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def m_a(self) -> int:
        return self.two_s_a + 1

    @property
    def m_b(self) -> int:
        return self.two_s_b + 1


@dataclass(frozen=True)
class CoefficientSet:
    """One draw of the amplitude parameters.

    ``c`` holds the four device-basis weights (unit Euclidean norm, a storage
    convention; all derived quantities divide out the scale).  ``x`` and ``y``
    are the 4 x m_a and 4 x m_b perturbation matrices.  In the two-level
    device mode only the d=3 and d=4 rows (indices 2 and 3) are populated.
    Instances are immutable; the arrays are write-protected.
    """

    dims: SpinDims
    c: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.c, (4,))
        x = _frozen_array(self.x, (4, self.dims.m_a))
        y = _frozen_array(self.y, (4, self.dims.m_b))
        norm_sq = sum(v.real * v.real + v.imag * v.imag for v in c.tolist())
        if abs(norm_sq - 1.0) > _C_NORM_TOL:
            raise ValueError(f"device weights must satisfy sum |c_d|^2 = 1, got {norm_sq!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        # kept outside the dataclass fields, so == and repr do not see it
        object.__setattr__(
            self,
            "_two_level",
            bool(c[0] == 0 and c[1] == 0 and not x[:2].any() and not y[:2].any()),
        )

    @property
    def is_two_level(self) -> bool:
        """True when only the d=3, d=4 device levels carry weight or perturbations."""
        return self._two_level

    def scaled(self, t: float) -> "CoefficientSet":
        """The same draw with every perturbation multiplied by ``t``."""
        return CoefficientSet(self.dims, self.c, t * self.x, t * self.y)


@dataclass(frozen=True)
class EntanglementReport:
    """Concurrence and one-tangle of a single draw, with their gap.

    ``gap`` is concurrence**2 - one_tangle and ``monogamy_slack`` its exact
    negation; the slack is nonnegative (tau >= C**2, Coffman-Kundu-Wootters).
    """

    concurrence: float
    one_tangle: float
    gap: float
    monogamy_slack: float

    def __post_init__(self):
        if not 0.0 <= self.concurrence <= 1.0:
            raise ValueError(f"concurrence out of [0,1]: {self.concurrence!r}")
        if not 0.0 <= self.one_tangle <= 1.0:
            raise ValueError(f"one_tangle out of [0,1]: {self.one_tangle!r}")
        if not self.monogamy_slack >= 0.0:
            raise ValueError(f"monogamy violated: slack = {self.monogamy_slack!r}")
        if self.gap != -self.monogamy_slack:
            raise ValueError("gap must equal -monogamy_slack exactly")

    @classmethod
    def from_measures(cls, concurrence: float, one_tangle: float) -> "EntanglementReport":
        slack = one_tangle - concurrence * concurrence + 0.0
        return cls(concurrence, one_tangle, -slack + 0.0, slack)


def x_max_schedule(two_s: int, n: int) -> float:
    """Perturbation bound 1 / (2 * S**n) for spin S = two_s / 2.

    Strictly decreasing in the spin size; ``n`` selects how fast the bound
    shrinks (for S > 1, larger ``n`` gives strictly smaller bounds; the
    exponent is irrelevant at S = 1).
    """
    if not isinstance(two_s, (int, np.integer)) or two_s < 1:
        raise ValueError(f"two_s must be a positive integer, got {two_s!r}")
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n!r}")
    s = two_s / 2.0
    return 1.0 / (2.0 * s**n)


def sample_coefficients(
    dims: SpinDims,
    x_max: float,
    y_max: float,
    c,
    rng: np.random.Generator,
    complex_mode: bool = False,
) -> CoefficientSet:
    """Draw the d=3 and d=4 perturbation rows uniformly on (0, x_max] and (0, y_max].

    Entries are ``bound * (1 - u)`` with ``u`` uniform on [0, 1), so zero is
    excluded exactly.  The draw order is part of the reproducibility
    contract: row d=3 then d=4, entries in ascending index order, all of
    ``x`` before all of ``y``.  In complex mode each row draws its moduli
    first and then its phases (uniform on [0, 2*pi)).
    """
    if not x_max > 0 or not y_max > 0:
        raise ValueError("x_max and y_max must be positive")
    x = np.zeros((4, dims.m_a), dtype=np.complex128)
    y = np.zeros((4, dims.m_b), dtype=np.complex128)
    for rows, bound in ((x[2:4], x_max), (y[2:4], y_max)):
        if complex_mode:
            for row in rows:
                mod = bound * (1.0 - rng.random(row.size))
                row[:] = mod * np.exp(2j * np.pi * rng.random(row.size))
        else:
            # one call fills both rows from the stream in row order
            u = rng.random(rows.shape)
            np.subtract(1.0, u, out=u)
            np.multiply(bound, u, out=rows.real)
    # the arrays are frozen here, so CoefficientSet adopts them without a copy
    x.setflags(write=False)
    y.setflags(write=False)
    return CoefficientSet(dims, c, x, y)


def _norm_squared(cs: CoefficientSet) -> float:
    total = 0.0
    for d in range(4):
        w = abs(cs.c[d]) ** 2
        if w == 0.0:
            continue
        xd = float(_abs2(1.0 + cs.x[d]).sum())
        yd = float(_abs2(1.0 + cs.y[d]).sum())
        total += w * xd * yd
    return total


def normalization(cs: CoefficientSet) -> float:
    """The positive N that gives the assembled amplitude tensor unit norm.

    N**2 = sum_d |c_d|^2 * (sum_alpha |1 + x[d,alpha]|^2)
                         * (sum_beta |1 + y[d,beta]|^2).
    """
    n_sq = _norm_squared(cs)
    if n_sq <= 0.0:
        raise DegenerateStateError("all device weights vanish; state cannot be normalized")
    return math.sqrt(n_sq)
