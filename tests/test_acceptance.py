"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact equality of integers, Fractions, or exact
polynomial/truncation objects; nothing is floating point.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction

from tcalab import homalg
from tcalab.cli import main as cli_main
from tcalab.hilbert import (
    char_poly_simple,
    enhanced_of_simple,
    eval_char_poly,
    modification,
    monomial_form,
    series_form,
    t1_derivative,
)
from tcalab.homalg import (
    closed_form_m0e,
    depth,
    depth_from_resolution,
    efw_resolution,
    local_cohomology,
    poincare_truncated,
    q_from_local_cohomology,
    regularity,
    syzygy_shape_ln,
)
from tcalab.ktheory import (
    AClass,
    diff_annihilator,
    fourier_K,
    k_product,
    l_class,
    l_to_q,
    pairing,
    q_class,
    q_to_l,
    schur_derivative,
)
from tcalab.partitions import (
    HS,
    VS,
    partition,
    partitions_of,
    partitions_up_to,
    size,
    transpose,
)
from tcalab.polynomials import MPoly
from tcalab.quiver import (
    VertexSet,
    build_injective,
    build_simple,
    complex_cohomology,
    hom_space,
    realize_bgg,
    tau_contractibility_check,
)
from tcalab.symchar import Combination, VClass, lr_coefficient, mn_trace
from oracles import centralizer_order, remove_strips


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def amono(exps, num, den=1):
    return MPoly.monomial(exps, Fraction(num, den), "a")


def tmono(exps, num, den=1):
    return MPoly.monomial(exps, Fraction(num, den), "t")


def test_criterion_1_character_polynomials(capsys):
    with criterion(1, "character polynomials"):
        # CLI surface, exact JSON
        assert cli_main(["charpoly", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["char_poly"] == [
            {"den": 1, "exponents": {}, "num": -1},
            {"den": 1, "exponents": {"1": 1}, "num": 1},
        ]
        assert cli_main(["charpoly", "2,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["char_poly"] == [
            {"den": 3, "exponents": {"1": 1}, "num": 8},
            {"den": 1, "exponents": {"1": 2}, "num": -2},
            {"den": 3, "exponents": {"1": 3}, "num": 1},
            {"den": 1, "exponents": {"3": 1}, "num": -1},
        ]
        # library surface: the four displayed series
        assert series_form(enhanced_of_simple((2, 1))) == tmono({1: 3}, 1, 3) + tmono({3: 1}, -1)
        assert series_form(enhanced_of_simple((2,))) == tmono({1: 2}, 1, 2) + tmono({2: 1}, 1)
        assert series_form(enhanced_of_simple((1, 1))) == tmono({1: 2}, 1, 2) + tmono({2: 1}, -1)
        assert series_form(enhanced_of_simple((1,))) == tmono({1: 1}, 1)
        assert monomial_form(char_poly_simple((1,))) == amono({1: 1}, 1) + amono({}, -1)
        assert monomial_form(char_poly_simple((2, 1))) == (
            amono({1: 3}, 1, 3)
            + amono({1: 2}, -2)
            + amono({1: 1}, 8, 3)
            + amono({3: 1}, -1)
        )


def test_criterion_2_threshold_and_modification():
    with criterion(2, "threshold and modification consistency"):
        for lam in partitions_up_to(4):
            X = char_poly_simple(lam)
            top = lam[0] if lam else 0
            threshold = top + size(lam)
            for n in range(0, threshold + 4):
                for mu in partitions_of(n):
                    got = eval_char_poly(X, mu)
                    if n >= threshold:
                        want = mn_trace(mu, partition((n - size(lam),) + lam))
                    else:
                        data = modification(lam, n)
                        if data is None:
                            want = 0
                        else:
                            sign, target = data
                            want = sign * mn_trace(mu, target)
                    assert got == want, (lam, mu)


def test_criterion_3_ktheory():
    with criterion(3, "K-theory bases, products, pairing"):
        for lam in partitions_up_to(8):
            assert q_to_l(l_to_q(l_class(lam))) == l_class(lam)
            assert l_to_q(q_to_l(q_class(lam))) == q_class(lam)
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                direct = k_product(l_class(lam), l_class(mu))
                via_q = q_to_l(
                    k_product(l_to_q(l_class(lam)), l_to_q(l_class(mu)))
                )
                assert direct == via_q
        classes6 = [q_class(p) for p in partitions_up_to(6)]
        classes6 += [l_class(p) for p in partitions_up_to(6)]
        for x in classes6:
            for y in classes6:
                assert pairing(x, y) == pairing(fourier_K(y), fourier_K(x))
        for lam in partitions_up_to(7):
            for mu in partitions_up_to(7):
                assert pairing(q_class(lam), l_class(mu)) in (-1, 0, 1)


def test_criterion_4_local_cohomology_and_depth():
    with criterion(4, "local cohomology and depth"):
        t = local_cohomology((1,), 1)
        assert t.rows == {2: ((),)}
        t = local_cohomology((2,), 2)
        assert t.rows == {2: ((1,), (1, 1))}
        t = local_cohomology((2, 1), 2)
        assert t.rows == {2: ((1, 1, 1),), 3: ((1,),)}
        for n in range(1, 4):
            for D in range(n, n + 4):
                by_formula = depth((n,), D)
                assert by_formula == (2 if D == n else 1)
                table = local_cohomology((n,), D)
                assert table.min_nonzero() == by_formula
                if D > n:
                    shape = syzygy_shape_ln(n, D, 5)
                    assert depth_from_resolution(shape) == by_formula


def test_criterion_5_bgg_machine_verification():
    with criterion(5, "resolution realization and hom dimensions"):
        for lam in partitions_up_to(5):
            cohom = complex_cohomology(realize_bgg(lam))
            assert cohom[0] == {lam: 1}, lam
            assert all(not h for h in cohom[1:]), lam
        vs = VertexSet.up_to_size(5)
        injectives = {
            lam: build_injective(lam, vs) for lam in partitions_up_to(5)
        }
        simples = {lam: build_simple(lam, vs) for lam in partitions_up_to(5)}
        from tcalab.partitions import is_strip

        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                want = 1 if is_strip(lam, mu, HS) else 0
                assert hom_space(injectives[lam], injectives[mu])[0] == want
                assert hom_space(simples[lam], injectives[mu])[0] == (
                    1 if lam == mu else 0
                )


def test_criterion_6_hilbert_coherence():
    with criterion(6, "Hilbert series coherence"):
        # total = p exp(T_0) + q through the bound, in the divided-power
        # basis D, where (p exp(T_0))_rho is p read in the binomial basis B
        # and evaluated at rho
        for lam in partitions_up_to(3):
            top = lam[0] if lam else 0
            bound = size(lam) + top + 2
            total = Combination("D")
            for d in range(top, bound - size(lam) + 1):
                total = total + enhanced_of_simple(partition((d,) + lam))
            p = Combination("D")
            for dd in range(size(lam) + 1):
                for mu in remove_strips(lam, dd, VS):
                    p = p + (-1) ** dd * enhanced_of_simple(mu)
            q = q_from_local_cohomology(lam, top)
            p_binomial = Combination("B", p.coeffs)
            for rho in partitions_up_to(bound):
                assert total.coeffs.get(rho, 0) - eval_char_poly(p_binomial, rho) == (
                    q.coeffs.get(rho, 0)
                ), (lam, rho)
        for lam in partitions_up_to(5):
            assert homalg.fourier_hilbert_check(AClass.simple(lam)), lam
            assert homalg.fourier_hilbert_check(AClass.free(lam)), lam


def test_criterion_7_efw_and_poincare():
    with criterion(7, "resolution shapes and Poincare series"):
        for alpha in partitions_up_to(4):
            for e in (1, 2, 3):
                got = regularity(efw_resolution(alpha, e, len(alpha) + 4))
                assert got == size(alpha) + e - 1 + (alpha[0] if alpha else 0)
        for e in range(1, 5):
            shape = efw_resolution((), e, 16)
            assert poincare_truncated(shape, 12) == closed_form_m0e(e, 12)
        # the e = 2 closed form, expanded by hand from
        # (1 - 1/q) + (t + 1/q) e^{-qt}
        series = closed_form_m0e(2, 12)
        expected = {(0, 0): Fraction(1)}
        for n in range(2, 13):
            expected[(n, n - 1)] = Fraction(
                (-1) ** (n - 1) * (n - 1), math.factorial(n)
            )
        # each coefficient is the int c on t^d q^n / d!
        assert {
            (d, n): Fraction(c, math.factorial(d)) for (d, n), c in series.items()
        } == expected


def test_criterion_8_differential_operators():
    with criterion(8, "differential operator annihilation"):
        for lam in partitions_up_to(4):
            assert diff_annihilator(AClass.simple(lam)) == (0, size(lam) + 1)
            assert diff_annihilator(AClass.free(lam)) == (size(lam) + 1, 0)
        for lam in partitions_up_to(6):
            derived = schur_derivative(VClass.simple(lam))
            series = Combination("D")
            for mu, c in derived.coeffs.items():
                series = series + c * enhanced_of_simple(mu)
            assert series == t1_derivative(enhanced_of_simple(lam)), lam


def test_criterion_9_property_suites():
    with criterion(9, "standalone property suites"):
        # column orthogonality
        for n in range(1, 7):
            shapes = partitions_of(n)
            for mu in shapes:
                for nu in shapes:
                    total = sum(
                        mn_trace(mu, lam) * mn_trace(nu, lam) for lam in shapes
                    )
                    assert total == (centralizer_order(mu) if mu == nu else 0)
        # LR symmetries
        for n in range(0, 8):
            for nu in partitions_of(n):
                for a in range(n + 1):
                    for lam in partitions_of(a):
                        for mu in partitions_of(n - a):
                            c = lr_coefficient(lam, mu, nu)
                            assert c == lr_coefficient(mu, lam, nu)
                            assert c == lr_coefficient(
                                transpose(lam), transpose(mu), transpose(nu)
                            )
        # transpose involution
        for lam in partitions_up_to(8):
            assert transpose(transpose(lam)) == lam
        # contraction conditions
        assert tau_contractibility_check(VertexSet.up_to_size(6))
