#!/usr/bin/env python3
"""Convergence of the truncation oracle toward the closed-form support function.

For each truncation level the script reports the largest and smallest gap
support_function(theta) - top_eigenvalue(theta) over a uniform angle grid,
plus the observed decay order between consecutive levels (one call of
top_eigenvalue for the whole ladder of levels).  The gap is always positive
(compressions shrink numerical ranges) and decays like 1/N^2.

    python scripts/convergence_table.py --r 0.5 --angles 72 --levels 50,100,200,400
"""

import argparse
import json
import math

import numpy as np

from fnr.boundary import angle_grid, support_function
from fnr.truncation import top_eigenvalue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=0.5)
    parser.add_argument("--angles", type=int, default=72)
    parser.add_argument("--levels", type=str, default="50,100,200,400")
    parser.add_argument("--json", type=str, default=None, help="optional JSON output path")
    args = parser.parse_args(argv)

    a = 2.0 * args.r
    levels = [int(part) for part in args.levels.split(",")]
    thetas = angle_grid(args.angles)
    closed = support_function(thetas, args.r)

    rows = []
    print(f"r = {args.r}, coupling a = {a}, {args.angles} angles")
    print(f"{'level':>6}  {'max gap':>12}  {'min gap':>12}  {'order':>6}")
    previous = None
    for level, gaps in zip(levels, closed - top_eigenvalue(thetas, a, np.array(levels)[:, None])):
        worst = float(np.max(gaps))
        best = float(np.min(gaps))
        order = None
        if previous is not None:
            order = math.log2(previous[1] / worst) / math.log2(level / previous[0])
        shown = "" if order is None else f"{order:.2f}"
        print(f"{level:>6}  {worst:>12.6e}  {best:>12.6e}  {shown:>6}")
        rows.append({"level": level, "max_gap": worst, "min_gap": best, "order": order})
        previous = (level, worst)

    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump({"r": args.r, "angles": args.angles, "rows": rows}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
