#!/usr/bin/env python3
"""Tabulate depth, local cohomology extremes, and the degree of the series
correction q for all tail modules (D, lam) up to a size cap, checking the
three depth computations against each other along the way.

Usage: python scripts/depth_survey.py [--max-size N] [--extra-d K]
"""

import argparse

from tcalab.homalg import (
    depth,
    depth_from_resolution,
    local_cohomology,
    q_from_local_cohomology,
    syzygy_shape_ln,
)
from tcalab.partitions import format_partition, partitions_up_to


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-size", type=int, default=5)
    ap.add_argument("--extra-d", type=int, default=2)
    args = ap.parse_args()

    header = f"{'shape':>14s} {'depth':>6s} {'min H':>6s} {'max H':>6s} {'deg q':>6s}"
    print(header)
    print("-" * len(header))
    for lam in partitions_up_to(args.max_size):
        top = lam[0] if lam else 0
        for D in range(top, top + args.extra_d + 1):
            if D == 0 and not lam:
                continue
            shape = f"({D},{format_partition(lam)})"
            table = local_cohomology(lam, D)
            d = depth(lam, D)
            if table.min_nonzero() != d:
                raise SystemExit(f"{shape}: depth {d} is not the first cohomology row")
            if len(lam) == 1 and D > lam[0]:
                if depth_from_resolution(syzygy_shape_ln(lam[0], D, 5)) != d:
                    raise SystemExit(f"{shape}: the resolution does not give depth {d}")
            q = q_from_local_cohomology(lam, D)
            print(
                f"{shape:>14s} {d:>6d} "
                f"{table.min_nonzero() or '-':>6} {table.max_nonzero() or '-':>6} "
                f"{q.max_size() if q else '-':>6}"
            )


if __name__ == "__main__":
    main()
