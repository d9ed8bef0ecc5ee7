"""Exact sparse polynomials: construction, sums, presentation, and the
oracles' products and evaluation."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from oracles import (
    evaluate_by_fractions,
    evaluate_monomials,
    exp_t0_by_fractions,
    falling_factorial_poly,
    mpoly_product,
    mul_truncated,
    negate_monomials,
    partial_derivative,
    restrict_to_first,
)
from tcalab.cli import _poly_json
from tcalab.hilbert import eval_char_poly, series_form
from tcalab.partitions import partitions_up_to
from tcalab.polynomials import MPoly, exp_t0_truncated
from tcalab.symchar import Combination


def small_polys():
    term = st.tuples(
        st.dictionaries(st.integers(1, 3), st.integers(1, 3), max_size=2),
        st.fractions(min_value=-3, max_value=3),
    )
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (MPoly.monomial(e, c) for e, c in ts), start=MPoly("t")
        )
    )


def term_by_term(p, values):
    """p at the given values, unlisted variables zero, one term at a time."""
    total = Fraction(0)
    for mu, c in p.terms.items():
        for i in mu:
            c *= Fraction(values.get(i, 0))
        total += c
    return total


class TestRing:
    def test_zero_terms_dropped(self):
        p = MPoly.monomial({1: 2}, 1) + MPoly.monomial({1: 2}, -1)
        assert p == MPoly("t")
        assert not p

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            MPoly.monomial({1: 1}, 1, "t") + MPoly.monomial({1: 1}, 1, "a")

    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, a, b, c):
        # sums are the package's; products are the oracles' mpoly_product
        mul = mpoly_product
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b + c) == mul(a, b) + mul(a, c)
        assert a + MPoly("t") == a
        assert mul(a, MPoly("t", {(): 1})) == a

    @given(small_polys())
    def test_negate_involution(self, a):
        assert negate_monomials(negate_monomials(a)) == a

    def test_partial_derivative(self):
        p = MPoly.monomial({1: 2}, Fraction(1, 2)) + MPoly.monomial({2: 1}, 1)
        assert partial_derivative(p, 1) == MPoly.monomial({1: 1}, 1)
        assert partial_derivative(MPoly("t", {(): 5}), 1) == MPoly("t")

    def test_weighted_degree(self):
        # Combination.max_size: the largest |mu|, 0 on the zero polynomial
        assert MPoly.monomial({3: 2, 1: 1}, 1).max_size() == 7
        assert MPoly("t").max_size() == 0

    def test_restrict_to_first(self):
        p = MPoly.monomial({1: 3}, Fraction(1, 3)) + MPoly.monomial({3: 1}, -1)
        assert restrict_to_first(p) == (0, 0, 0, Fraction(1, 3))

    def test_fraction_coefficients_are_kept(self):
        c = Fraction(2, 3)
        assert MPoly("a", {(2, 1): c}).coeffs[(2, 1)] is c

    def test_int_coefficients_are_coerced_and_zeros_dropped(self):
        p = MPoly("t", {(1,): 3, (2,): 0, (): Fraction(0), (3,): -1})
        assert p.coeffs == {(1,): 3, (3,): -1}
        assert all(type(c) is Fraction for c in p.coeffs.values())

    def test_inexact_coefficients_are_refused(self):
        for bad in (0.1, 1.0, True, False, Decimal(1), "1/3", None):
            with pytest.raises(ValueError, match=r"coefficient .* on a\^\(2, 1\)"):
                MPoly("a", {(1,): 1, (2, 1): bad})
        with pytest.raises(ValueError, match="inexact coefficient 0.5"):
            MPoly.monomial({1: 1}, 0.5, "t")

    def test_evaluate(self):
        p = MPoly.monomial({1: 2}, 1, "a") + MPoly.monomial({2: 1}, -3, "a")
        assert evaluate_monomials(p, {1: 2, 2: 1}) == 1
        assert evaluate_monomials(p, {}) == 0
        q = p + MPoly.monomial({2: 1}, Fraction(3, 2), "a")
        assert evaluate_monomials(q, {1: Fraction(1, 2), 2: 2}) == Fraction(-11, 4)
        as_fractions = {1: Fraction(2), 2: Fraction(1)}
        assert evaluate_monomials(q, {1: 2, 2: 1}) == Fraction(5, 2)
        assert evaluate_monomials(q, as_fractions) == Fraction(5, 2)

    @given(
        small_polys(),
        st.dictionaries(st.integers(1, 3), st.integers(-3, 3)),
        st.dictionaries(
            st.integers(1, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
        ),
    )
    def test_evaluate_int_and_fraction_values_agree(self, p, ints, fracs):
        # the same values as int and as Fraction give the same Fraction, and
        # non-integral values the sum of the terms taken one by one
        as_fractions = {i: Fraction(v) for i, v in ints.items()}
        got = evaluate_monomials(p, ints)
        assert isinstance(got, Fraction)
        assert got == evaluate_monomials(p, as_fractions) == term_by_term(p, as_fractions)
        assert isinstance(evaluate_monomials(p, fracs), Fraction)
        assert evaluate_monomials(p, fracs) == term_by_term(p, fracs)

    def test_evaluate_matches_the_fraction_sum(self):
        # seeded a-polynomials with mixed denominators, the zero polynomial
        # and constants among them, at int, Fraction and mixed values
        rng = random.Random(21)
        polys = [MPoly("a"), MPoly("a", {(): Fraction(-5, 6)}), MPoly("a", {(): 4})]
        for _ in range(150):
            polys.append(MPoly("a", {
                tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 4))),
                             reverse=True)):
                    Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 12, 35, 720]))
                for _ in range(rng.randint(1, 6))
            }))
        for p in polys:
            for _ in range(4):
                ints = {i: rng.randint(-4, 6) for i in rng.sample(range(1, 5), rng.randint(0, 4))}
                fracs = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(1, 5)}
                mixed = {1: rng.randint(0, 5), 2: Fraction(rng.randint(-9, 9), 7)}
                for values in (ints, fracs, mixed):
                    got = evaluate_monomials(p, values)
                    assert type(got) is Fraction
                    assert got == evaluate_by_fractions(p, values), (p, values)

    def test_evaluate_refuses_inexact_values(self):
        p = MPoly("a", {(1,): Fraction(1, 2), (): 3})
        for bad in (0.5, 1.0, True, Decimal(1), "1", None):
            with pytest.raises(ValueError, match=r"inexact value .* for a1"):
                evaluate_monomials(p, {1: bad})
        with pytest.raises(ValueError, match="for a7"):
            evaluate_monomials(MPoly("a"), {2: 1, 7: 2.0})
        assert evaluate_monomials(p, {1: 1}) == Fraction(7, 2)


class TestSpecials:
    def test_falling_factorial(self):
        x = MPoly.monomial({1: 1}, 1, "a")
        assert falling_factorial_poly(1, 2) == mpoly_product(x, x) - x
        assert falling_factorial_poly(2, 1) == MPoly.monomial({2: 1}, 1, "a")
        assert falling_factorial_poly(1, 0) == MPoly("a", {(): 1})

    def test_exp_truncation_coefficients(self):
        # 1 on every t^mu / mu! in D, which is 1 / mu! on t^mu
        e = exp_t0_truncated(6)
        assert e == Combination("D", {mu: 1 for mu in partitions_up_to(6)})
        assert e.max_size() == 6
        assert series_form(e) == exp_t0_by_fractions(6)

    def test_exp_multiplicativity_under_truncation(self):
        # exp(T0)^2 agrees with substituting doubled coefficients: 2^len(mu)
        # on t^mu / mu!, both as the D product (exp(T0) read in B at mu) and
        # as the Fraction product
        e = exp_t0_truncated(5)
        sq = mul_truncated(series_form(e), series_form(e), 5)
        for mu in partitions_up_to(5):
            assert eval_char_poly(Combination("B", e.coeffs), mu) == 2 ** len(mu)
        assert sq == series_form(Combination("D", {
            mu: 2 ** len(mu) for mu in partitions_up_to(5)
        }))

    def test_json_is_sorted(self):
        p = MPoly.monomial({2: 1}, 1) + MPoly.monomial({1: 1}, 1)
        assert [t["exponents"] for t in _poly_json(p)] == [{"1": 1}, {"2": 1}]
