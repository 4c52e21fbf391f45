"""Entanglement protection of a qubit pair coupled to two large-spin systems.

Closed-form concurrence and one-tangle for near-product joint states, a
dense density-matrix oracle that validates them, and a reproducible Monte
Carlo sweep over the spin size.  The package exports what the command line,
the scripts and the library example use; the rest lives in
:mod:`spinshield.model`, :mod:`spinshield.closedform`,
:mod:`spinshield.oracle` and :mod:`spinshield.sweep`.
"""

from .model import SpinDims, sample_coefficients, x_max_schedule
from .closedform import branch_sums, evaluate, first_order_expansion
from .sweep import SweepConfig, run_sweep, trial_rng

__version__ = "0.1.0"

__all__ = [
    "SpinDims",
    "SweepConfig",
    "branch_sums",
    "evaluate",
    "first_order_expansion",
    "run_sweep",
    "sample_coefficients",
    "trial_rng",
    "x_max_schedule",
]
