"""Minimal exact linear algebra over the rationals.

Matrices are lists of row lists whose entries are `int` or `Fraction`;
the empty matrix with zero rows or columns is legal everywhere.  Integer
entries stay integers as long as no division is needed, and the only
division, by a pivot other than 1 or -1, goes through `Fraction`, so no
float ever appears.  Nothing numerical happens here: rank and nullspace
come from exact Gaussian elimination, so rank decisions are unambiguous.
"""

from __future__ import annotations

from fractions import Fraction

# exact rational entries: int or Fraction, never float
Matrix = list[list[int | Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows = len(a)
    cols = len(b[0]) if b else 0
    if rows == 0 or cols == 0:
        return zeros(rows, cols)
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k, aik in enumerate(ai):
            if aik == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] += aik * bk[j]
    return out


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices.  A pivot of 1 or
    -1 keeps an integer row integral; any other pivot is inverted as a
    Fraction."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        if p == -1:
            m[r] = [-x for x in m[r]]
        elif p != 1:
            inv = Fraction(1) / p
            m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    if len(a) == 1 or len(a[0]) == 1:
        # one row or one column: rank 1 unless every entry is zero
        return int(any(x != 0 for row in a for x in row))
    return len(_rref(a)[1])


def nullspace(a: Matrix, cols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, deterministic;
    its entries are Fractions whatever the input's entries are."""
    if cols == 0:
        return []
    if not a:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(cols)]
            for i in range(cols)
        ]
    m, pivots = _rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][free])
        basis.append(v)
    return basis
