"""Injective resolutions, local cohomology, depth, resolution shapes,
Poincare series, and the Fourier transform on classes."""

import inspect
import math

import pytest
from hypothesis import given, settings

from conftest import partitions_st
from oracles import (
    bgg_signs_by_profile,
    closed_form_m0e_by_fractions,
    depth_by_row_search,
    poincare_by_break_conditions,
    poincare_fractions,
    remove_strips,
)
from tcalab import InternalError, homalg
from tcalab.cli import _poincare_json
from tcalab.hilbert import enhanced_of_simple, series_form
from tcalab.homalg import (
    FreeResShape,
    InvalidDError,
    UnstableError,
    closed_form_m0e,
    depth,
    depth_from_resolution,
    efw_resolution,
    efw_shape,
    fourier_class,
    fourier_hilbert_check,
    local_cohomology,
    poincare_truncated,
    q_from_local_cohomology,
    regularity,
    syzygy_shape_ln,
)
from tcalab.ktheory import AClass
from tcalab.partitions import (
    VS,
    bgg_resolution,
    contains,
    partition,
    partitions_up_to,
    size,
    transpose,
)
from tcalab.polynomials import MPoly
from tcalab.symchar import VClass


class TestBGGResolution:
    def test_term_examples(self):
        assert bgg_resolution((1, 1)).terms == (((1, 1),), ((1,),), ((),))
        r = bgg_resolution((2, 1))
        assert r.terms == (((2, 1),), ((2,), (1, 1)), ((1,),))
        for n in range(1, 5):
            r = bgg_resolution((n,))
            assert r.terms == (((n,),), ((n - 1,) if n > 1 else (),))
            assert len(r.terms) - 1 == 1

    @given(partitions_st(max_part=4, max_rows=4))
    def test_terms_are_vertical_strip_removals(self, lam):
        r = bgg_resolution(lam)
        assert len(r.terms) - 1 == len(lam)
        for j, term in enumerate(r.terms):
            assert list(term) == remove_strips(lam, j, VS)

    def test_signs_match_the_profile_rule(self):
        # anticommutation alone would admit other sign conventions, which
        # change `tcalab bgg` output; pin the values themselves
        for lam in partitions_up_to(8):
            assert bgg_resolution(lam).signs == bgg_signs_by_profile(lam), lam

    @given(partitions_st(max_part=4, max_rows=4))
    def test_every_square_anticommutes(self, lam):
        r = bgg_resolution(lam)
        for j in range(len(r.terms) - 2):
            for mu in r.terms[j]:
                for nu in r.terms[j + 2]:
                    mids = [
                        x
                        for x in r.terms[j + 1]
                        if contains(mu, x) and contains(x, nu)
                    ]
                    if len(mids) == 2:
                        a, b = mids
                        prod = (
                            r.signs[(mu, a)]
                            * r.signs[(a, nu)]
                            * r.signs[(mu, b)]
                            * r.signs[(b, nu)]
                        )
                        assert prod == -1, (lam, mu, nu)
                    else:
                        assert len(mids) <= 1


class TestLocalCohomology:
    def test_golden_tables(self):
        t = local_cohomology((1,), 1)
        assert t.rows == {2: ((),)}
        t = local_cohomology((2,), 2)
        assert t.rows == {2: ((1,), (1, 1))}
        assert t.rows[2][0] == (1,)
        t = local_cohomology((2, 1), 2)
        assert t.rows == {2: ((1, 1, 1),), 3: ((1,),)}
        assert (t.rows[2][0], t.rows[3][0]) == ((1, 1, 1), (1,))

    def test_invalid_d(self):
        with pytest.raises(InvalidDError):
            local_cohomology((2,), 1)
        with pytest.raises(InvalidDError):
            depth((3, 1), 2)

    def test_row_one_lists_truncation_gap(self):
        for lam in partitions_up_to(4):
            top = lam[0] if lam else 0
            for D in range(top + 1, top + 4):
                t = local_cohomology(lam, D)
                expected = tuple(
                    sorted(
                        (partition((d,) + lam) for d in range(top, D)),
                        key=lambda p: (size(p), tuple(-x for x in p)),
                    )
                )
                assert t.rows.get(1, ()) == expected, (lam, D)
                assert t.rows[1][0] == partition((top,) + lam)

    def test_depth_values(self):
        for n in range(1, 4):
            for D in range(n, n + 4):
                expected = 2 if D == n else 1
                assert depth((n,), D) == expected
        assert depth((3, 3, 1), 3) == 3
        assert depth((), 0) == math.inf

    @given(partitions_st(max_part=4, max_rows=4))
    def test_depth_equals_min_row_and_length_max_row(self, lam):
        top = lam[0] if lam else 0
        for D in range(top, top + 4):
            t = local_cohomology(lam, D)
            d = depth(lam, D)
            low = t.min_nonzero()
            assert (low if low is not None else math.inf) == d
        # at the saturated truncation the top row index is the number of
        # rows of lam plus one (injective dimension plus one)
        if lam:
            t = local_cohomology(lam, top)
            assert t.max_nonzero() == len(lam) + 1

    def test_q_values(self):
        assert series_form(q_from_local_cohomology((1,), 1)) == MPoly("t", {(): 1})
        expected = enhanced_of_simple((1,)) + enhanced_of_simple((1, 1))
        assert q_from_local_cohomology((2,), 2) == expected
        assert series_form(q_from_local_cohomology((), 0)) == MPoly("t")


HAND_MADE_SHAPES = [
    FreeResShape((((),),)),
    FreeResShape((((1,),), (), ((2, 1), (1, 1, 1)))),
    FreeResShape((((2,),), ((3,),))),
    FreeResShape((((1,),),), ()),
    FreeResShape((((5,),), ()), ((),)),
    FreeResShape((((2,),),), ((3, 1), (1,))),
]


class TestResolutionShapes:
    def test_efw_shapes(self):
        assert [efw_shape((), 2, i) for i in (1, 2, 3)] == [(2,), (2, 1), (2, 1, 1)]
        assert [efw_shape((1,), 1, i) for i in (1, 2, 3)] == [(2,), (2, 2), (2, 2, 1)]
        assert efw_shape((3, 1), 2, 0) == (3, 1)

    def test_generator_degree_at_zero(self):
        for alpha in partitions_up_to(4):
            shape = efw_resolution(alpha, 2, 6)
            assert {size(g) for g in shape.generators_at(0)} == {size(alpha)}

    def test_tail_materialization(self):
        shape = efw_resolution((), 2, 4)
        for i in range(10):
            assert shape.generators_at(i) == (efw_shape((), 2, i),)

    def test_regularity_values(self):
        assert regularity(efw_resolution((), 2, 6)) == 1
        assert regularity(efw_resolution((1,), 1, 6)) == 2
        for e in range(1, 5):
            assert regularity(efw_resolution((), e, 6)) == e - 1

    def test_regularity_formula_sweep(self):
        for alpha in partitions_up_to(4):
            for e in (1, 2, 3):
                got = regularity(efw_resolution(alpha, e, len(alpha) + 4))
                assert got == size(alpha) + e - 1 + (alpha[0] if alpha else 0)

    def test_regularity_unstable(self):
        shape = FreeResShape((((1,),), ((3,),)))
        with pytest.raises(UnstableError):
            regularity(shape)
        with pytest.raises(UnstableError, match="shape has no generators"):
            regularity(FreeResShape(((), ())))
        # strand 1 in degree 0, then a tail on strand 3 - 1 = 2
        with pytest.raises(UnstableError, match="strand value jumps at the tail boundary"):
            regularity(FreeResShape((((1,),),), ((3,),)))

    def test_regularity_of_an_empty_tail(self):
        # a tail with no shapes has no strand to keep constant
        with pytest.raises(UnstableError, match="a tail with no shapes never stabilizes"):
            regularity(FreeResShape((((1,),),), ()))

    def test_jumps_below_one_are_refused(self):
        for e in (0, -1):
            with pytest.raises(ValueError, match="jump e must be a positive integer"):
                efw_resolution((1,), e, 4)
            with pytest.raises(ValueError, match="e must be a positive integer"):
                closed_form_m0e(e, 4)

    def test_syzygy_shape(self):
        shape = syzygy_shape_ln(1, 2, 4)
        assert shape.explicit[0] == ((2, 1),)
        assert shape.explicit[1] == ((2, 1, 1), (2, 2))
        with pytest.raises(InvalidDError):
            syzygy_shape_ln(2, 2, 4)

    def test_depth_from_resolution(self):
        assert depth_from_resolution(FreeResShape((((),),))) == math.inf
        assert depth_from_resolution(FreeResShape((((3, 1),),))) == math.inf
        for n in range(1, 4):
            for D in range(n + 1, n + 4):
                assert depth_from_resolution(syzygy_shape_ln(n, D, 5)) == 1
        for e in range(1, 4):
            assert depth_from_resolution(efw_resolution((), e, 5)) == 0

    def test_depth_from_resolution_unstable(self):
        # a finite shape of positive length cannot certify a stable value
        with pytest.raises(UnstableError):
            depth_from_resolution(FreeResShape((((2,),), ((3,),))))
        # nor can an empty tail: the statistic grows with m
        with pytest.raises(UnstableError):
            depth_from_resolution(FreeResShape((((1,),),), ()))

    def test_depth_matches_the_row_search(self):
        shapes = [
            efw_resolution(alpha, e, b)
            for alpha in partitions_up_to(5) for e in range(1, 5) for b in range(10)
        ]
        shapes += [
            syzygy_shape_ln(n, D, b)
            for n in range(1, 5) for D in range(n + 1, 8) for b in range(7)
        ]
        shapes += HAND_MADE_SHAPES
        compared = 0
        for shape in shapes:
            if shape.tail == ():
                continue  # the search takes the largest tail shape
            try:
                expected = depth_by_row_search(shape)
            except UnstableError:
                with pytest.raises(UnstableError):
                    depth_from_resolution(shape)
            else:
                assert depth_from_resolution(shape) == expected, shape
            compared += 1
        assert compared == len(shapes) - 1 == 891


class TestPoincare:
    def test_projective_is_one(self):
        series = poincare_truncated(FreeResShape((((),),)), 8)
        assert series == {(0, 0): 1}

    def test_e2_coefficients(self):
        series = poincare_truncated(efw_resolution((), 2, 14), 12)
        # closed form: coefficient of t^n q^{n-1} is (-1)^(n-1) (n-1)/n!,
        # kept as the int (-1)^(n-1) (n-1) on t^n q^{n-1} / n!
        for n in range(2, 13):
            assert series.get((n, n - 1), 0) == (-1) ** (n - 1) * (n - 1)

    def test_matches_closed_form(self):
        for e in range(1, 5):
            shape = efw_resolution((), e, 16)
            assert poincare_truncated(shape, 12) == closed_form_m0e(e, 12)

    def test_koszul_tail_for_e1(self):
        # (-1)^n / n! on t^n q^n, kept as (-1)^n on t^n q^n / n!
        series = poincare_truncated(efw_resolution((), 1, 14), 10)
        for n in range(11):
            assert series.get((n, n), 0) == (-1) ** n

    def test_json_reduces_each_coefficient(self):
        # the shape `poincare 1 2 --trunc 6` resolves: -16 on t^6 q^3 / 6!
        series = poincare_truncated(efw_resolution((1,), 2, 9), 6)
        assert series[(6, 3)] == -16
        assert _poincare_json(series)[-1] == {"t": 6, "q": 3, "num": -1, "den": 45}
        assert all(type(c) is int for c in series.values())

    def test_matches_the_break_condition_walk(self):
        shapes = [
            efw_resolution(alpha, e, b)
            for alpha in partitions_up_to(4) for e in range(1, 5) for b in range(8)
        ]
        shapes += [
            syzygy_shape_ln(n, D, b)
            for n in range(1, 4) for D in range(n + 1, 6) for b in range(5)
        ]
        shapes += HAND_MADE_SHAPES
        for shape in shapes:
            for bound in range(16):
                got = poincare_truncated(shape, bound)
                assert poincare_fractions(got) == poincare_by_break_conditions(shape, bound), (
                    shape, bound)


def _integer_poincare_fault() -> str | None:
    """The first disagreement of the integer Poincare forms with the
    Fraction ones, or None: `closed_form_m0e` (a failed Laurent check
    included) against the Fraction closed form for e <= 6 and bound <= 15,
    then `poincare_truncated` against the per-generator Fraction sums for
    efw_resolution(alpha, e, .) with alpha up to size 3.  Both are looked
    up on the module, so a patched module is seen."""
    for e in range(1, 7):
        for bound in range(16):
            try:
                got = homalg.closed_form_m0e(e, bound)
            except InternalError as exc:
                return f"closed form e={e} bound={bound}: {exc}"
            if poincare_fractions(got) != closed_form_m0e_by_fractions(e, bound):
                return f"closed form e={e} bound={bound}"
    for alpha in partitions_up_to(3):
        for e in range(1, 4):
            for bound in range(16):
                shape = efw_resolution(alpha, e, bound + len(alpha) + 2)
                got = homalg.poincare_truncated(shape, bound)
                if poincare_fractions(got) != poincare_by_break_conditions(shape, bound):
                    return f"series of alpha={alpha} e={e} bound={bound}"
    return None


class TestIntegerPoincare:
    def test_matches_the_fractions(self):
        assert _integer_poincare_fault() is None

    def test_mutants_are_caught(self, monkeypatch):
        # C(n-1, e) for C(n-1, e-1) in the series, and the exponential
        # part's sign (-1)^k dropped, which only the Laurent checks see
        mutants = [
            ("comb(n - 1, e - 1)", "comb(n - 1, e)"),
            ("(-1) ** k * math.comb(d, k)", "math.comb(d, k)"),
        ]
        source = inspect.getsource(homalg.closed_form_m0e)
        for old, new in mutants:
            assert source.count(old) == 1, old
            namespace = dict(vars(homalg))
            exec(source.replace(old, new), namespace)
            with monkeypatch.context() as patch:
                patch.setattr(homalg, "closed_form_m0e", namespace["closed_form_m0e"])
                assert _integer_poincare_fault() is not None, new


class TestFourier:
    def test_class_examples(self):
        assert fourier_class(AClass.free(())) == AClass.simple(())
        assert fourier_class(AClass.simple((1,))) == -1 * AClass.free((1,))
        assert fourier_class(AClass.free((2,))) == AClass.simple((1, 1))

    def test_hilbert_swap(self):
        assert fourier_hilbert_check(AClass.free(()))
        assert fourier_hilbert_check(AClass.simple((1,)))
        assert fourier_hilbert_check(AClass.free((2,)))

    def test_hilbert_swap_sweep(self):
        for lam in partitions_up_to(5):
            assert fourier_hilbert_check(AClass.simple(lam)), lam
            assert fourier_hilbert_check(AClass.free(lam)), lam

    def test_hilbert_swap_fails_without_the_sign(self, monkeypatch):
        def unsigned(x):
            return AClass(
                VClass({transpose(lam): c for lam, c in x.projective.coeffs.items()}),
                VClass({transpose(lam): c for lam, c in x.torsion.coeffs.items()}),
            )

        monkeypatch.setattr(homalg, "fourier_class", unsigned)
        assert not fourier_hilbert_check(AClass.simple((1,)))
        assert not fourier_hilbert_check(AClass.free((2, 1)))
        # (-1)^|lam| is 1 at an even size, so the mutant leaves this one right
        assert fourier_hilbert_check(AClass.free((2,)))

    @settings(max_examples=30)
    @given(
        partitions_st(max_part=3, max_rows=3),
        partitions_st(max_part=3, max_rows=3),
    )
    def test_hilbert_swap_on_mixed_classes(self, a, b):
        x = AClass.simple(a) - 2 * AClass.free(b) + AClass.free(a)
        assert fourier_hilbert_check(x)
