"""Shared builders for the test suite."""

import numpy as np

from spinshield.model import CoefficientSet, SpinDims, sample_coefficients

BELL_C = (0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2))


def bell_set(two_s_a=0, two_s_b=None):
    """Zero perturbations: Bell-weighted device times a product apparatus."""
    dims = SpinDims(two_s_a, two_s_b)
    return CoefficientSet(
        dims, BELL_C, np.zeros((4, dims.m_a)), np.zeros((4, dims.m_b))
    )


def worked_example():
    """m_a = m_b = 2, x3 = (0.1, 0.3), x4 = (0.2, 0.2), y = 0, Bell weights."""
    dims = SpinDims(1)
    x = np.zeros((4, 2), dtype=complex)
    y = np.zeros((4, 2), dtype=complex)
    x[2] = [0.1, 0.3]
    x[3] = [0.2, 0.2]
    return CoefficientSet(dims, BELL_C, x, y)


def cxy(cs):
    """The (c, x, y) arrays of one CoefficientSet, as the oracle's array entry points take them."""
    return cs.c, cs.x, cs.y


def random_set(seed, two_s_a, two_s_b=None, x_max=0.5, c=BELL_C, complex_mode=False):
    """Deterministic random draw for property tests."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return sample_coefficients(
        SpinDims(two_s_a, two_s_b), x_max, x_max, c, rng, complex_mode
    )


def random_c(seed):
    """Random two-level device weights with phases, unit norm."""
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = rng.uniform(0.0, np.pi / 2.0)
    ph3, ph4 = np.exp(2j * np.pi * rng.random(2))
    return (0, 0, np.cos(theta) * ph3, np.sin(theta) * ph4)
