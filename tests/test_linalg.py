"""Exact linear algebra: integer and Fraction entries in, exact answers
out, and no float anywhere."""

import random
from fractions import Fraction

import pytest

from tcalab import linalg


def exact(rows) -> bool:
    return all(type(x) in (int, Fraction) for row in rows for x in row)


class TestIntegerPivots:
    # (matrix, rank, nullspace): pivots of 2 and 3 force a Fraction inverse,
    # a pivot of -1 keeps the row integral
    CASES = [
        ([[3, 1]], 1, [[Fraction(-1, 3), 1]]),
        ([[2, 1, 0], [0, 3, 1]], 2, [[Fraction(1, 6), Fraction(-1, 3), 1]]),
        ([[2, 4], [1, 2]], 1, [[-2, 1]]),
        ([[-1, 2], [2, -4]], 1, [[2, 1]]),
        ([[3, 0], [0, 2]], 2, []),
    ]

    @pytest.mark.parametrize("a, r, kernel", CASES)
    def test_rank_and_nullspace(self, a, r, kernel):
        assert linalg.rank(a) == r
        basis = linalg.nullspace(a, len(a[0]))
        assert basis == kernel
        assert all(type(x) is Fraction for v in basis for x in v)
        assert exact(linalg._rref(a)[0])

    def test_pivot_rows_stay_integral(self):
        m, pivots = linalg._rref([[-1, 2, 0], [1, -1, 1]])
        assert pivots == [0, 1]
        assert all(type(x) is int for row in m for x in row)


def random_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        yield [[rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(cols)]
               for _ in range(rows)]


class TestAgainstFractionCopies:
    def test_integer_and_fraction_inputs_agree(self):
        for a in random_matrices(11, 200):
            copy = [[Fraction(x) for x in row] for row in a]
            cols = len(a[0])
            assert linalg.rank(a) == linalg.rank(copy), a
            basis = linalg.nullspace(a, cols)
            assert basis == linalg.nullspace(copy, cols), a
            assert len(basis) == cols - linalg.rank(a), a
            for v in basis:
                assert all(type(x) is Fraction for x in v), a
                assert linalg.mat_mul(a, [[x] for x in v]) == linalg.zeros(len(a), 1)

    def test_products_of_integers_stay_integers(self):
        for a, b in zip(random_matrices(12, 50), random_matrices(13, 50)):
            b = [row[:] for row in b[:1]] * len(a[0])
            prod = linalg.mat_mul(a, b)
            assert all(type(x) is int for row in prod for x in row)


class TestRankOfOneRowOrColumn:
    def test_equals_the_elimination(self):
        # seeded 1 x k and k x 1 matrices of ints and Fractions, a third of
        # them all zero; rank answers these without elimination
        rng = random.Random(15)
        seen = set()
        for _ in range(600):
            k, shape = rng.randint(1, 4), rng.choice(("row", "column"))
            entries = [0] * k if rng.random() < 1 / 3 else [
                rng.choice((-2, -1, 0, 0, 1, 2, Fraction(1, 3), Fraction(-5, 2)))
                for _ in range(k)]
            if rng.random() < 0.5:
                entries = [Fraction(x) for x in entries]
            a = [entries] if shape == "row" else [[x] for x in entries]
            want = len(linalg._rref(a)[1])
            assert linalg.rank(a) == want, a
            seen.add((shape, k, want, type(entries[0])))
        assert {(s, r) for s, _, r, _ in seen} == {
            (s, r) for s in ("row", "column") for r in (0, 1)}
        assert {k for _, k, _, _ in seen} == {1, 2, 3, 4}
        assert {t for *_, t in seen} == {int, Fraction}
