"""Enhanced series, character polynomials, the modification rule, and the
threshold behavior, all pinned to worked values or character oracles."""

import random
from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import partitions_st
from oracles import (
    char_poly_by_fraction_series,
    char_poly_by_products,
    char_poly_of_class,
    enhanced_by_fractions,
    eval_poly,
    evaluate_monomials,
    exp_t0_by_fractions,
    mpoly_product,
    mul_truncated,
    negate_monomials,
    partial_derivative,
    plain_hilbert,
    remove_strips,
    stability_bound,
    stable_dimension_poly,
    truncate,
    umbral,
    umbral_by_products,
    umbral_ints_per_term,
)
from tcalab import hilbert
from tcalab.hilbert import (
    EnhancedSeries,
    _umbral_ints,
    char_poly_simple,
    character_value,
    enhanced_of_class,
    enhanced_of_simple,
    eval_char_poly,
    modification,
    monomial_form,
    negate_variables,
    series_form,
    t1_derivative,
)
from tcalab.ktheory import AClass, schur_derivative
from tcalab.partitions import (
    aut_factor,
    hook_dimension,
    multiplicities,
    partition,
    partitions_of,
    partitions_up_to,
    size,
    transpose,
    vertical_strips,
)
from tcalab.polynomials import MPoly
from tcalab.symchar import Combination, VClass, _mn, mn_trace


def series_pair(s):
    """The t-monomials of the parts (p, q) of an enhanced series."""
    return series_form(s.p), series_form(s.q)


def tmono(exps, num, den=1):
    return MPoly.monomial(exps, Fraction(num, den), "t")


def amono(exps, num, den=1):
    return MPoly.monomial(exps, Fraction(num, den), "a")


class TestEnhancedSeries:
    def test_simple_examples(self):
        assert series_form(enhanced_of_simple(())) == MPoly("t", {(): 1})
        assert series_form(enhanced_of_simple((2, 1))) == tmono({1: 3}, 1, 3) + tmono({3: 1}, -1)
        assert series_form(enhanced_of_simple((1, 1))) == tmono({1: 2}, 1, 2) + tmono({2: 1}, -1)
        assert series_form(enhanced_of_simple((2,))) == tmono({1: 2}, 1, 2) + tmono({2: 1}, 1)
        assert series_form(enhanced_of_simple((1,))) == tmono({1: 1}, 1)

    @given(partitions_st(max_part=4, max_rows=3))
    def test_homogeneous_of_weighted_degree(self, lam):
        series = series_form(enhanced_of_simple(lam))
        assert all(size(mu) == size(lam) for mu in series.terms)

    def test_class_examples(self):
        assert series_pair(enhanced_of_class(AClass.free(()))) == (
            MPoly("t", {(): 1}), MPoly("t")
        )
        assert series_pair(enhanced_of_class(AClass.simple((1,)))) == (
            MPoly("t"), tmono({1: 1}, 1)
        )
        assert series_pair(enhanced_of_class(AClass.free((2,)))) == (
            tmono({1: 2}, 1, 2) + tmono({2: 1}, 1), MPoly("t")
        )
        # the parts are integer traces in the divided-power basis D
        assert enhanced_of_class(AClass.free((2,))) == EnhancedSeries(
            Combination("D", {(1, 1): 1, (2,): 1}), Combination("D")
        )

    def test_parts_live_in_the_divided_power_basis(self):
        for X in (MPoly("t", {(): 1}), Combination("B", {(): 1}), None):
            with pytest.raises(ValueError, match="divided-power basis D"):
                EnhancedSeries(X, Combination("D"))
            with pytest.raises(ValueError, match="divided-power basis D"):
                EnhancedSeries(Combination("D"), X)
            for f in (series_form, t1_derivative, negate_variables):
                with pytest.raises(ValueError, match="divided-power basis D"):
                    f(X)

    def test_plain_hilbert(self):
        p0, q0 = plain_hilbert(enhanced_of_class(AClass.free(())))
        assert p0 == (1,) and q0 == ()
        series = EnhancedSeries(Combination("D"), enhanced_of_simple((2, 1)))
        p0, q0 = plain_hilbert(series)
        assert p0 == ()
        assert q0 == (0, 0, 0, Fraction(1, 3))
        # dim check: coefficient of t^3 is dim/3! = 2/6
        assert q0[3] == Fraction(hook_dimension((2, 1)), 6)

    def test_p_part_is_multiplicative(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                x = AClass.free(lam)
                y = AClass.free(mu)
                from tcalab.ktheory import k_product

                prod = AClass(
                    projective=k_product(VClass.simple(lam), VClass.simple(mu))
                )
                assert series_form(enhanced_of_class(prod).p) == mpoly_product(
                    series_form(enhanced_of_class(x).p), series_form(enhanced_of_class(y).p)
                )


class TestUmbral:
    def test_examples(self):
        assert umbral(tmono({1: 2}, 1)) == amono({1: 2}, 1) + amono({1: 1}, -1)
        assert umbral(tmono({1: 1, 2: 1}, 1)) == amono({1: 1, 2: 1}, 1)
        lhs = umbral(
            tmono({1: 3}, 1, 3) + tmono({3: 1}, -1) + tmono({1: 2}, -1) + tmono({1: 1}, 1)
        )
        assert lhs == monomial_form(char_poly_simple((2, 1)))

    def test_linear_not_multiplicative(self):
        a = tmono({1: 1}, 1)
        assert umbral(mpoly_product(a, a)) != mpoly_product(umbral(a), umbral(a))
        assert umbral(a + a) == umbral(a) + umbral(a)

    def test_top_monomial_is_preserved(self):
        # each falling factorial has leading monomial equal to the source
        # monomial, so umbral is triangular and injective
        for mu in partitions_up_to(5):
            p = MPoly("t", {mu: 1})
            assert umbral(p).coeffs.get(mu) == 1

    @given(
        st.lists(
            st.tuples(
                st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
                st.integers(-3, 3),
            ),
            max_size=4,
        )
    )
    def test_injective_on_bounded_polynomials(self, terms):
        p = MPoly("t")
        for exps, c in terms:
            p = p + MPoly.monomial(exps, c, "t")
        assert (umbral(p) == MPoly("a")) == (p == MPoly("t"))

    def test_matches_falling_factorial_products(self):
        # seeded random t-polynomials with Fraction coefficients: the one-pass
        # Stirling expansion equals the product of falling factorial MPolys
        rng = random.Random(6)
        for _ in range(200):
            p = MPoly("t")
            for _ in range(rng.randint(0, 6)):
                exps = {
                    rng.randint(1, 4): rng.randint(1, 5) for _ in range(rng.randint(0, 3))
                }
                c = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                p = p + MPoly.monomial(exps, c, "t")
            assert umbral(p) == umbral_by_products(p)

    def test_matches_the_oracle_on_character_denominators(self):
        # coefficients c / nu! with |nu| <= 10, the denominators that
        # char_poly_simple passes in, and multiplicities up to 10
        rng = random.Random(20)
        shapes = partitions_up_to(10)
        for _ in range(60):
            p = MPoly("t", {
                nu: Fraction(rng.randint(-60, 60), aut_factor(nu))
                for nu in rng.sample(shapes, rng.randint(1, 5))
            })
            assert umbral(p) == umbral_by_products(p)
        ones = MPoly("t", {(1,) * 10: Fraction(1, aut_factor((1,) * 10))})
        assert umbral(ones) == umbral_by_products(ones)

    def test_shared_suffixes_match_the_per_term_expansion(self, monkeypatch):
        # the (nu, c * D / nu!) lists that char_poly_simple hands over, on
        # every partition up to size 10 and on the columns 1^k up to k = 14
        handed = []
        monkeypatch.setattr(hilbert, "_umbral_ints",
                            lambda terms, den: handed.append((terms, den)) or MPoly("a"))
        for lam in partitions_up_to(10) + [(1,) * k for k in range(11, 15)]:
            monomial_form(char_poly_simple(lam))
        assert len(handed) == 143
        for terms, den in handed:
            assert _umbral_ints(terms, den).coeffs == umbral_ints_per_term(terms, den).coeffs

    def test_shared_suffixes_match_on_long_runs(self):
        # seeded integer term lists over few part values with long runs of
        # equal parts, so that many terms end in the same shape
        rng = random.Random(25)
        for _ in range(200):
            terms = []
            for _ in range(rng.randint(0, 10)):
                values = sorted(rng.sample(range(1, 5), rng.randint(0, 3)), reverse=True)
                mu = tuple(x for x in values for _ in range(rng.randint(1, 9)))
                terms.append((mu, rng.randint(-10**6, 10**6)))
            den = rng.randint(1, 10**4)
            assert _umbral_ints(terms, den).coeffs == umbral_ints_per_term(terms, den).coeffs

    def test_zero_and_constants(self):
        assert umbral(MPoly("t")) == MPoly("a")
        c = Fraction(-7, 3)
        assert umbral(MPoly("t", {(): c})) == MPoly("a", {(): c})

    def test_families_are_checked(self):
        with pytest.raises(ValueError, match="consumes the t family"):
            umbral(MPoly("a", {(): 1}))
        for X in (MPoly("t", {(): 1}), MPoly("a", {(): 1}), Combination("S", {(): 1}), None):
            with pytest.raises(ValueError, match="live in the binomial basis B"):
                eval_char_poly(X, (1,))
            with pytest.raises(ValueError, match="live in the binomial basis B"):
                monomial_form(X)

    def test_a_divided_power_series_is_not_a_character_polynomial(self):
        # both integer bases are Combinations; the tag tells them apart
        X = Combination("D", {(1,): 1})
        with pytest.raises(ValueError, match="live in the binomial basis B"):
            eval_char_poly(X, (1,))
        with pytest.raises(ValueError, match="live in the binomial basis B"):
            monomial_form(X)


class TestCharacterPolynomials:
    def test_matches_the_product_oracle(self):
        # the integer binomial-basis route against the enhanced-series sums
        # and falling factorial products, on every partition up to size 8
        for lam in partitions_up_to(8):
            assert monomial_form(char_poly_simple(lam)) == char_poly_by_products(lam), lam

    def test_matches_the_fraction_series(self):
        # the integer hand-off to the umbral expansion against the t-series
        # of Fractions c / nu!, on every partition up to size 10 and on the
        # columns 1^k, whose umbral images use the longest Stirling rows
        shapes = partitions_up_to(10) + [(1,) * k for k in range(11, 15)]
        for lam in shapes:
            got = monomial_form(char_poly_simple(lam)).coeffs
            assert got == char_poly_by_fraction_series(lam).coeffs, lam

    def test_displayed_polynomials(self):
        assert monomial_form(char_poly_simple(())) == MPoly("a", {(): 1})
        assert monomial_form(char_poly_simple((1,))) == amono({1: 1}, 1) + amono({}, -1)
        expected = (
            amono({1: 3}, 1, 3)
            + amono({1: 2}, -2)
            + amono({1: 1}, 8, 3)
            + amono({3: 1}, -1)
        )
        assert monomial_form(char_poly_simple((2, 1))) == expected
        # 2 C(a1, 3) - 2 C(a1, 2) + C(a1, 1) - C(a3, 1) in the binomial basis
        assert char_poly_simple((2, 1)) == Combination(
            "B", {(1, 1, 1): 2, (1, 1): -2, (1,): 1, (3,): -1}
        )

    def test_point_evaluations(self):
        X1 = char_poly_simple((1,))
        assert eval_char_poly(X1, (3,)) == -1
        assert eval_char_poly(X1, (1, 1, 1)) == 2
        X21 = char_poly_simple((2, 1))
        assert eval_char_poly(X21, (5,)) == character_value((2, 1), (5,))

    def test_dimension_is_the_stable_dimension_polynomial(self):
        # at the identity of S_n the simple at mu' is the irreducible
        # (n - |mu|, mu'), whose transpose is (mu_1+1, ..., mu_l+1, 1^N)
        for mu in partitions_up_to(5):
            X = char_poly_simple(transpose(mu))
            coeffs = stable_dimension_poly(mu)
            for N in range(7):
                identity = (1,) * (N + len(mu) + size(mu))
                dim = eval_poly(coeffs, N)
                assert character_value(transpose(mu), identity) == dim, (mu, N)
                assert eval_char_poly(X, identity) == dim, (mu, N)

    def test_class_linearity(self):
        x = AClass.free((2,)) - AClass.free((1,))
        assert char_poly_of_class(x) == umbral(
            series_form(enhanced_of_simple((2,))) - series_form(enhanced_of_simple((1,)))
        )

    def test_integrality_on_integral_classes(self):
        X = char_poly_simple((2, 1))
        for mu in partitions_up_to(6):
            assert type(eval_char_poly(X, mu)) is int


def _binomial_route_fault() -> str | None:
    """The first disagreement of the binomial route with the monomial one,
    or None: the monomial form of every simple up to size 8 and of the
    columns 1^k up to k = 14 against the Fraction t-series, then every
    value at a class mu of size up to |lam| + lam_1 + 3, below the stable
    range included, against the monomials evaluated at a_i = m_i(mu), for
    lam up to size 6.  The cache is bypassed, so a patched module is seen."""
    build = char_poly_simple.__wrapped__
    for lam in partitions_up_to(8) + [(1,) * k for k in range(9, 15)]:
        if monomial_form(build(lam)) != char_poly_by_fraction_series(lam):
            return f"monomial form of {lam}"
    for lam in partitions_up_to(6):
        X = build(lam)
        poly = monomial_form(X)
        for mu in partitions_up_to(size(lam) + (lam[0] if lam else 0) + 3):
            if eval_char_poly(X, mu) != evaluate_monomials(poly, multiplicities(mu)):
                return f"value of {lam} at {mu}"
    return None


class TestBinomialRoute:
    def test_matches_the_monomial_route(self):
        assert _binomial_route_fault() is None

    def test_mutants_are_caught(self, monkeypatch):
        # a dropped nu term (the column 1^n of every trace table), C(m, k + 1)
        # for C(m, k), and a plus sign on the strips of odd size d
        mutants = [
            ("_partitions_cached", lambda n: partitions_of(n)[:-1]),
            ("comb", lambda m, k: comb(m, k + 1)),
            ("vertical_strips", lambda lam: [
                (c + (1,) if sum(c) & 1 else c, mu) for c, mu in vertical_strips(lam)
            ]),
        ]
        for name, mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(hilbert, name, mutant)
                assert _binomial_route_fault() is not None, name


def _divided_power_fault() -> str | None:
    """The first disagreement of the divided-power route with the Fraction
    t-series, or None: for every simple lam up to size 8, its series, its
    t_1 derivative and its image under t -> -t, each made into t-monomials
    by `series_form`, against the oracle's Fraction series and that series'
    own partial derivative and negation.  The cache is bypassed and the
    transforms are looked up on the module, so a patched module is seen."""
    build = enhanced_of_simple.__wrapped__
    for lam in partitions_up_to(8):
        X, want = build(lam), enhanced_by_fractions(lam)
        if series_form(X) != want:
            return f"series of {lam}"
        if series_form(hilbert.t1_derivative(X)) != partial_derivative(want, 1):
            return f"t1 derivative of {lam}"
        if series_form(hilbert.negate_variables(X)) != negate_monomials(want):
            return f"negated series of {lam}"
    return None


class TestDividedPowerRoute:
    def test_matches_the_fraction_series(self):
        assert _divided_power_fault() is None

    def test_traces_are_ints(self):
        for lam in partitions_up_to(6):
            assert all(type(c) is int for c in enhanced_of_simple(lam).coeffs.values())

    def test_mutants_are_caught(self, monkeypatch):
        # an off-by-one trace, a re-key that drops the first part instead of
        # the trailing 1, and the sign (-1)^len(mu) flipped
        mutants = [
            ("_mn", lambda mu, lam, mn=_mn: mn(mu, lam) + 1),
            ("t1_derivative", lambda s: Combination("D", {
                mu[1:]: c for mu, c in s.coeffs.items() if mu and mu[-1] == 1
            })),
            ("negate_variables", lambda s: Combination("D", {
                mu: c if len(mu) & 1 else -c for mu, c in s.coeffs.items()
            })),
        ]
        for name, mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(hilbert, name, mutant)
                assert _divided_power_fault() is not None, name


class TestModification:
    def test_examples(self):
        assert modification((1,), 1) is None
        assert modification((2,), 2) == (-1, (1, 1))
        assert modification((2, 1), 3) == (-1, (1, 1, 1))
        assert modification((2,), 0) is None
        assert modification((2,), 1) == (-1, (1,))
        assert modification((2,), 3) is None

    def test_above_threshold_is_identity(self):
        for lam in partitions_up_to(4):
            top = lam[0] if lam else 0
            for n in range(top + size(lam), top + size(lam) + 4):
                out = modification(lam, n)
                assert out == (1, partition((n - size(lam),) + lam))


class TestThreshold:
    def test_values_above_threshold(self):
        # above the threshold the polynomial computes the honest trace
        for lam in partitions_up_to(4):
            X = char_poly_simple(lam)
            top = lam[0] if lam else 0
            for n in range(top + size(lam), top + size(lam) + 4):
                target = partition((n - size(lam),) + lam)
                for mu in partitions_of(n):
                    assert eval_char_poly(X, mu) == mn_trace(mu, target), (lam, mu)

    def test_below_threshold_modification(self):
        for lam in partitions_up_to(4):
            X = char_poly_simple(lam)
            top = lam[0] if lam else 0
            for n in range(0, top + size(lam)):
                data = modification(lam, n)
                for mu in partitions_of(n):
                    got = eval_char_poly(X, mu)
                    if data is None:
                        assert got == 0, (lam, mu)
                    else:
                        sign, target = data
                        assert got == sign * mn_trace(mu, target), (lam, mu)


class TestTruncationConsistency:
    def test_tail_module_series(self):
        # sum of shape series = p * exp(T0) + q under truncation, both in D
        # ints (p exp(T0) at rho is p read in B and evaluated at rho) and
        # by the Fraction product with the truncated exponential, for lam
        # up to size 6 and every bound from |lam| to |lam| + lam_1 + 3
        from tcalab.homalg import q_from_local_cohomology

        cases = 0
        for lam in partitions_up_to(6):
            top = lam[0] if lam else 0
            p = Combination("D")
            for dd in range(size(lam) + 1):
                for mu in remove_strips(lam, dd, "VS"):
                    p = p + (-1) ** dd * enhanced_of_simple(mu)
            p_binomial = Combination("B", p.coeffs)
            q = q_from_local_cohomology(lam, top)
            for bound in range(size(lam), size(lam) + top + 4):
                total = Combination("D")
                for d in range(top, bound - size(lam) + 1):
                    total = total + enhanced_of_simple(partition((d,) + lam))
                for rho in partitions_up_to(bound):
                    got = total.coeffs.get(rho, 0) - eval_char_poly(p_binomial, rho)
                    assert got == q.coeffs.get(rho, 0), (lam, bound, rho)
                product = mul_truncated(series_form(p), exp_t0_by_fractions(bound), bound)
                assert series_form(total) - product == truncate(series_form(q), bound), (
                    lam, bound)
                cases += 1
        assert cases == 197


class TestDerivativeAndBounds:
    def test_t1_derivative_examples(self):
        # t1^2/2 + t2 and the constant 3, in the divided-power basis D
        p = Combination("D", {(1, 1): 1, (2,): 1})
        assert series_form(t1_derivative(p)) == tmono({1: 1}, 1)
        assert series_form(t1_derivative(Combination("D", {(): 3}))) == MPoly("t")

    def test_branching_matches_derivative(self):
        for lam in partitions_up_to(6):
            derived = schur_derivative(VClass.simple(lam))
            series = MPoly("t")
            for mu, c in derived.coeffs.items():
                series = series + c * series_form(enhanced_of_simple(mu))
            assert series == series_form(t1_derivative(enhanced_of_simple(lam))), lam

    def test_stability_bound_values(self):
        # defect values from the degree formula
        assert stability_bound(AClass.free(())) == 0
        assert stability_bound(AClass.free((1,))) == 0  # d((1)) = 0
        x21 = AClass.free((2,))
        assert stability_bound(x21) == 2  # d((2)) = 2 dominates
        # class of the tail module at (2): free part minus smaller free part
        cls = (
            AClass.free((2,))
            - AClass.free((1,))
            + AClass.simple((1,))
            + AClass.simple((1, 1))
        )
        assert stability_bound(cls) == 2
        assert stability_bound(cls, lc_degrees=(0, 0)) == 2

    def test_stability_bound_is_a_bound(self):
        # deg q of the tail module class never exceeds the bound
        from tcalab.homalg import q_from_local_cohomology

        for lam in partitions_up_to(4):
            top = lam[0] if lam else 0
            q = q_from_local_cohomology(lam, top)
            cls = AClass(projective=VClass.simple(lam))  # image has support lam
            assert q.max_size() <= max(stability_bound(cls), 0) or not q
