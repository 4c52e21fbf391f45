"""Coefficient ansatz for a qubit pair entangled through two large-spin systems.

The joint state of the device (two qubits, a 4-dimensional factor) and the
apparatus (two spins with Hilbert-space dimensions ``m_a`` and ``m_b``) is
parametrized by near-product amplitudes

    amp(d, alpha, beta) = c_d * (1 + x[d, alpha]) * (1 + y[d, beta]) / N,

where the perturbations ``x``, ``y`` shrink as the spins grow and ``N`` is
fixed by unit norm.  This module owns the parameter types, the normalization
and the one draw, ``_unit_rows``: ``sample_coefficients``, the sweep engine
and ``verify`` read every stream through it, the latter two a stack of
draws at a time, on which they run the closed forms and the dense oracle.

Note on the normalization convention: ``N`` is the unique positive number
that makes the assembled state a unit vector, which scales like
``sqrt(m_a * m_b)`` when the perturbations are small.  It is *not* close to
1 for large spins; every formula in :mod:`spinshield.closedform` divides by
the appropriate power of ``N``, so only the ratio matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_C_NORM_TOL = 1e-12
_UNIT_CLAMP = 1e-12


class DegenerateStateError(ValueError):
    """Raised when every device weight vanishes and no state can be normalized."""


class DeviceModeError(ValueError):
    """Raised when an operation needs the two-level device mode (only c3, c4 populated)."""


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _clamp_unit(v):
    # Rounding can overshoot the unit interval by a few ulp; values further
    # out than the clamp window are genuine errors and are left alone.
    # Entrywise; a 0-d result comes back as a numpy float.
    v = np.where((1.0 < v) & (v <= 1.0 + _UNIT_CLAMP), 1.0, v)
    return np.where((-_UNIT_CLAMP <= v) & (v < 0.0), 0.0, v)[()]


def _frozen_array(values, shape) -> np.ndarray:
    """A write-protected complex128 array holding ``values``, checked for shape.

    A write-protected, C-contiguous complex128 array that owns its data (as
    :func:`sample_coefficients` and the dense oracle build them) is adopted
    as it is; anything else is copied, so a caller's array is never frozen
    or aliased.  Finiteness is left to the caller, which checks it or
    rejects a non-finite entry through its tolerance checks.
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
    arr.setflags(write=False)
    return arr


def _is_integer(v) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_unit_norm(c) -> None:
    """Reject device weights whose squared norm is not 1 within _C_NORM_TOL."""
    norm_sq = sum(v.real * v.real + v.imag * v.imag for v in c)
    if abs(norm_sq - 1.0) > _C_NORM_TOL:
        raise ValueError(f"device weights must satisfy sum |c_d|^2 = 1, got {norm_sq!r}")


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
            if not _is_integer(v) or v < 0:
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
        if not np.isfinite(c).all():
            raise ValueError("device weights must be finite")
        for name, m in (("x", self.dims.m_a), ("y", self.dims.m_b)):
            arr = _frozen_array(getattr(self, name), (4, m))
            if not np.isfinite(arr).all():
                raise ValueError("array entries must be finite")
            object.__setattr__(self, name, arr)
        _check_unit_norm(c.tolist())
        object.__setattr__(self, "c", c)
        # kept outside the dataclass fields, so == and repr do not see it
        object.__setattr__(self, "_two_level", not (c[:2].any() or self.x[:2].any() or self.y[:2].any()))

    @property
    def is_two_level(self) -> bool:
        """True when only the d=3, d=4 device levels carry weight or perturbations."""
        return self._two_level

    def scaled(self, t: float) -> "CoefficientSet":
        """The same draw with every perturbation multiplied by ``t``."""
        x, y = t * self.x, t * self.y
        # fresh products, frozen so that the new set adopts them without a copy
        x.setflags(write=False)
        y.setflags(write=False)
        return CoefficientSet(self.dims, self.c, x, y)


def _report_checks(c, tau, slack) -> tuple:
    """EntanglementReport's checks as (holds, message, value) rows.

    Each row holds on floats, or entrywise on stacks of draws; its message
    formats the value that failed.  A NaN fails every row it reaches.
    """
    return (
        ((0.0 <= c) & (c <= 1.0), "concurrence out of [0,1]: {!r}", c),
        ((0.0 <= tau) & (tau <= 1.0), "one_tangle out of [0,1]: {!r}", tau),
        (slack >= 0.0, "monogamy violated: slack = {!r}", slack),
    )


def _raise_failed(rows) -> None:
    """Raise the ValueError of the first of a draw's check rows that does not hold."""
    for holds, message, value in rows:
        if not holds:
            raise ValueError(message.format(value))


@dataclass(frozen=True)
class EntanglementReport:
    """Concurrence and one-tangle of a single draw, with their monogamy slack.

    ``monogamy_slack`` is one_tangle - concurrence**2 and nonnegative
    (tau >= C**2, Coffman-Kundu-Wootters); ``gap`` is its exact negation.
    """

    concurrence: float
    one_tangle: float
    monogamy_slack: float

    def __post_init__(self):
        _raise_failed(_report_checks(self.concurrence, self.one_tangle, self.monogamy_slack))

    @property
    def gap(self) -> float:
        """concurrence**2 - one_tangle, as the slack's exact negation (never -0.0)."""
        return -self.monogamy_slack + 0.0


def x_max_schedule(two_s: int, n: int) -> float:
    """Perturbation bound 1 / (2 * S**n) for spin S = two_s / 2.

    Strictly decreasing in the spin size; ``n`` selects how fast the bound
    shrinks (for S > 1, larger ``n`` gives strictly smaller bounds; the
    exponent is irrelevant at S = 1).  Raises ValueError where the bound
    is not a positive float64.
    """
    if not _is_integer(two_s) or two_s < 1:
        raise ValueError(f"two_s must be a positive integer, got {two_s!r}")
    if not _is_integer(n) or n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n!r}")
    try:
        x_max = 1.0 / (2.0 * (two_s / 2.0) ** n)
    except OverflowError:  # two_s beyond float64, or S**n
        x_max = 0.0
    if x_max == 0.0:
        raise ValueError(f"two_s of {int(two_s).bit_length()} bits: 1 / (2 S**{n}) underflows to 0")
    return x_max


def _unit_rows(rng: np.random.Generator, rows: np.ndarray, u=None) -> np.ndarray:
    """``rows`` (..., m) read from the stream as unit draws, in place; ValueError unless its uniforms are finite.

    Real rows read all their uniforms u at once and become 1 - u.  A complex
    row reads its moduli u, then its phases v, into the (2, m) scratch ``u``
    and becomes exp(2 pi i v) (1 - u).  The check precedes any arithmetic.
    """
    if rows.dtype != np.complex128:
        rng.random(out=rows)
        if not np.isfinite(rows).all():
            raise ValueError("array entries must be finite")
        return np.subtract(1.0, rows, out=rows)
    u = np.empty((2, rows.shape[-1])) if u is None else u
    for row in rows:
        rng.random(out=u)
        if not np.isfinite(u).all():
            raise ValueError("array entries must be finite")
        np.exp(np.multiply(2j * np.pi, u[1], out=row), out=row)
        row *= np.subtract(1.0, u[0], out=u[0])
    return rows


def sample_coefficients(
    dims: SpinDims,
    x_max: float,
    y_max: float,
    c,
    rng: np.random.Generator,
    complex_mode: bool = False,
) -> CoefficientSet:
    """Draw the d=3 and d=4 perturbation rows uniformly on (0, x_max] and (0, y_max].

    Each side's two rows are one unit draw of :func:`_unit_rows`, as the
    sweep engine and ``verify`` read them, times the side's bound, applied
    last: ``(1 - u) * bound``, or ``(exp(2 pi i v) (1 - u)) * bound`` in
    complex mode, with u, v uniform on [0, 1).  The draw order is part of
    the reproducibility contract: rows d=3 then d=4 of ``x``, then of ``y``,
    entries in ascending index order; a complex row draws its moduli u first.
    """
    if not x_max > 0 or not y_max > 0:
        raise ValueError("x_max and y_max must be positive")
    x = np.zeros((4, dims.m_a), dtype=np.complex128)
    y = np.zeros((4, dims.m_b), dtype=np.complex128)
    for rows, bound in ((x[2:4], x_max), (y[2:4], y_max)):
        # complex rows are drawn in place (the copy onto itself allocates nothing),
        # real ones into a float scratch that is freed once copied in
        rows[...] = _unit_rows(rng, rows if complex_mode else np.empty(rows.shape))
        rows *= bound
    # the arrays are frozen here, so CoefficientSet adopts them without a copy
    x.setflags(write=False)
    y.setflags(write=False)
    return CoefficientSet(dims, c, x, y)


def _level_sums(c, x, y) -> tuple:
    """(|c_d|^2, X_d, Y_d) as (..., 4) arrays and N**2 as a (...) array, for stacked draws.

    ``c`` (..., 4), ``x`` (..., 4, m_a) and ``y`` (..., 4, m_b) are arrays
    whose leading axes are the stack; ``c`` may broadcast against the
    leading axes of ``x`` and ``y``.  X_d = sum_alpha |1 + x[d,alpha]|^2 and
    Y_d likewise, one pairwise sum per row;
    |c_d|^2 comes from Python's complex abs and float ``**``, and N**2 sums
    |c_d|^2 X_d Y_d over the populated levels in level order.
    """
    w = np.array([abs(v) ** 2 for v in c.ravel().tolist()]).reshape(c.shape)
    x, y = _abs2(1.0 + x).sum(axis=-1), _abs2(1.0 + y).sum(axis=-1)
    # an empty level adds nothing, not 0 * inf
    live = w != 0.0
    terms = np.multiply(w, x, out=np.zeros(np.broadcast_shapes(w.shape, x.shape, y.shape)), where=live)
    np.multiply(terms, y, out=terms, where=live)
    return w, x, y, ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]


def normalization(c, x, y):
    """The positive N that gives the assembled amplitude tensor unit norm, of each stacked draw; a float for one draw.

    N**2 = sum_d |c_d|^2 * (sum_alpha |1 + x[d,alpha]|^2)
                         * (sum_beta |1 + y[d,beta]|^2),
    with ``c``, ``x`` and ``y`` as :func:`_level_sums` takes them.  Raises
    DegenerateStateError if any draw has no weight.
    """
    n_sq = _level_sums(c, x, y)[3]
    if (n_sq <= 0.0).any():
        raise DegenerateStateError("all device weights vanish; state cannot be normalized")
    n = np.sqrt(n_sq)
    return float(n) if n.ndim == 0 else n
