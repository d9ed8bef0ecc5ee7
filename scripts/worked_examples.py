#!/usr/bin/env python3
"""Recompute the package's reference examples and print a readable report:
character polynomials, below-threshold modification data, local cohomology
tables, and the closed-form Poincare series of the small quotient modules.

Usage: python scripts/worked_examples.py
"""

from fractions import Fraction
from math import factorial

from tcalab.hilbert import (
    char_poly_simple,
    enhanced_of_simple,
    modification,
    monomial_form,
    series_form,
)
from tcalab.homalg import (
    closed_form_m0e,
    depth,
    efw_resolution,
    local_cohomology,
    poincare_truncated,
    regularity,
)
from tcalab.partitions import format_partition, partition, size


def show_charpolys():
    print("== character polynomials ==")
    for lam in [(), (1,), (2,), (1, 1), (2, 1)]:
        lam = partition(lam)
        print(f"  X[{format_partition(lam)}] = {monomial_form(char_poly_simple(lam))!r}")
        print(f"  Y[{format_partition(lam)}] = {series_form(enhanced_of_simple(lam))!r}")
    print()


def show_modification():
    print("== modification rule below the stable range ==")
    for lam in [(1,), (2,), (2, 1)]:
        top = lam[0]
        for n in range(0, top + size(lam)):
            data = modification(lam, n)
            tag = (
                "singular"
                if data is None
                else f"sign {data[0]:+d}, target {format_partition(data[1])}"
            )
            print(f"  lam={format_partition(lam)}  N={n}: {tag}")
    print()


def show_local_cohomology():
    print("== local cohomology of tail modules ==")
    for lam, D in [((1,), 1), ((2,), 2), ((2, 1), 2), ((3,), 5)]:
        table = local_cohomology(lam, D)
        print(
            f"  shape ({D},{format_partition(lam)}):"
            f" depth {depth(lam, D)}, rows:"
        )
        for i in sorted(table.rows):
            row = ", ".join(format_partition(p) for p in table.rows[i])
            # each row lists its entries ascending, and the smallest generates it
            gen = format_partition(table.rows[i][0])
            print(f"    H^{i} = [{row}]  (generated by {gen})")
    print()


def show_poincare():
    print("== Poincare series of small quotient modules ==")
    for e in (1, 2, 3):
        shape = efw_resolution((), e, 14)
        series = poincare_truncated(shape, 10)
        reg = regularity(shape)
        if series != closed_form_m0e(e, 10):
            raise SystemExit(f"e={e}: the resolution's series is not the closed form")
        print(f"  e={e}: regularity {reg}, coefficients through t^10:")
        for (d, n), c in sorted(series.items()):
            print(f"    t^{d} q^{n}: {Fraction(c, factorial(d))}")
    print()


if __name__ == "__main__":
    show_charpolys()
    show_modification()
    show_local_cohomology()
    show_poincare()
