#!/usr/bin/env python3
"""Recompute the frozen regression constants used by the test suite.

Prints the maximal deviation of the closed-form boundary from the comparison
ellipse at r = 0.5 (2000-point sweep) together with its angle, and, with
--with-oracle, the same deviation measured on the level-400 truncation
boundary.  The closed-form values are frozen in tests/conftest.py; the
oracle value must agree within the compression gap (a few parts in 1e5).

    python scripts/freeze_constants.py
    python scripts/freeze_constants.py --with-oracle      # a second or two
"""

import argparse

import numpy as np

from fnr.boundary import ellipse_axes, ellipse_distance, ellipse_gap
from fnr.truncation import boundary_from_truncation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=0.5)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--with-oracle", action="store_true")
    parser.add_argument("--level", type=int, default=400)
    args = parser.parse_args(argv)

    gap, theta = ellipse_gap(args.r, args.samples)
    print(f"closed-form ellipse gap at r = {args.r} ({args.samples} samples):")
    print(f"  FROZEN_ELLIPSE_GAP    = {gap!r}")
    print(f"  FROZEN_ELLIPSE_ARGMAX = {theta!r}")

    if args.with_oracle:
        a_axis, b_axis = ellipse_axes(args.r)
        points = boundary_from_truncation(2.0 * args.r, args.level, 720)
        oracle_gap = float(np.max(ellipse_distance(points[:, 0], points[:, 1], a_axis, b_axis)))
        print(f"truncation boundary (level {args.level}) ellipse gap:")
        print(f"  oracle gap            = {oracle_gap!r}")
        print(f"  difference            = {abs(oracle_gap - gap):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
