#!/usr/bin/env python3
"""Numerical study of how the C^2 - tau gap closes with the perturbation scale.

For a handful of fixed random draws, every halving of the perturbation scale
should shrink |C^2 - tau| by about 4x (the gap is quadratic in the
perturbations), and C^2 should approach T1, the first-order value that
first_order_expansion returns for both measures, at the same quadratic rate.
"""

import argparse

import numpy as np

from spinshield import (
    SpinDims,
    concurrence_closed,
    first_order_expansion,
    monogamy_slack,
    sample_coefficients,
    trial_rng,
    x_max_schedule,
)

BELL_C = (0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2))


def study(two_s: int, draws: int, seed: int) -> None:
    x_max = x_max_schedule(two_s, 1)
    print(f"two_s = {two_s}, base x_max = {x_max}, {draws} draws, seed {seed}\n")
    scales = [2.0**-k for k in range(3, 9)]

    for draw in range(1, draws + 1):
        rng = trial_rng(seed, two_s, draw)
        cs = sample_coefficients(SpinDims(two_s), x_max, x_max, BELL_C, rng)
        print(f"draw {draw}:")
        print(f"  {'t':>10} {'|C^2-tau|':>12} {'ratio':>8} {'|C^2-T1|':>12}")
        previous = None
        for t in scales:
            scaled = cs.scaled(t)
            c = concurrence_closed(scaled)
            gap = monogamy_slack(scaled)
            t1 = first_order_expansion(scaled)
            ratio = f"{gap / previous:8.3f}" if previous else "       -"
            print(f"  {t:>10.5f} {gap:>12.3e} {ratio} {abs(c * c - t1):>12.3e}")
            previous = gap
        print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--two-s", type=int, default=10)
    parser.add_argument("--draws", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    study(args.two_s, args.draws, args.seed)
