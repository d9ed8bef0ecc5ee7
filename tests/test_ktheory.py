"""Basis changes, Euler pairing, Fourier involution, derivative calculus."""

import pytest
from hypothesis import given, settings

from conftest import partitions_st
from tcalab.ktheory import (
    AClass,
    BasisMismatchError,
    KClassK,
    L_BASIS,
    Q_BASIS,
    ZeroClassError,
    diff_annihilator,
    fourier_K,
    k_product,
    l_class,
    l_to_q,
    pairing,
    q_class,
    q_to_l,
    schur_derivative,
    shift_operator,
)
from tcalab.partitions import partitions_up_to, size
from tcalab.quiver import (
    VertexSet,
    build_injective,
    build_simple,
    hom_space,
    realize_bgg,
)
from tcalab.symchar import VClass


class TestBasisChange:
    def test_examples(self):
        assert q_to_l(q_class(())) == l_class(())
        assert q_to_l(q_class((1,))) == KClassK(L_BASIS, {(1,): 1, (): 1})
        assert q_to_l(q_class((2, 1))) == KClassK(
            L_BASIS, {(2, 1): 1, (1, 1): 1, (2,): 1, (1,): 1}
        )
        assert l_to_q(l_class((1,))) == KClassK(Q_BASIS, {(1,): 1, (): -1})
        assert l_to_q(l_class((2, 1))) == KClassK(
            Q_BASIS, {(2, 1): 1, (2,): -1, (1, 1): -1, (1,): 1}
        )

    def test_round_trips_up_to_8(self):
        for lam in partitions_up_to(8):
            assert q_to_l(l_to_q(l_class(lam))) == l_class(lam)
            assert l_to_q(q_to_l(q_class(lam))) == q_class(lam)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            l_class((1,)) + q_class((1,))
        with pytest.raises(BasisMismatchError):
            q_to_l(l_class((1,)))
        with pytest.raises(BasisMismatchError, match="l_to_q expects an L-basis class"):
            l_to_q(q_class((1,)))
        with pytest.raises(ValueError, match="basis must be 'L' or 'Q', got 'S'"):
            KClassK("S", {(1,): 1})
        with pytest.raises(BasisMismatchError):
            k_product(l_class((1,)), q_class((1,)))

    def test_torsion_and_k_classes_do_not_mix(self):
        with pytest.raises(BasisMismatchError):
            VClass({(1,): 1}) + l_class((1,))
        with pytest.raises(BasisMismatchError):
            l_class((1,)) + VClass({(1,): 1})
        with pytest.raises(BasisMismatchError):
            AClass(torsion=l_class((2,)))
        with pytest.raises(BasisMismatchError):
            AClass(projective=q_class((2,)))
        with pytest.raises(TypeError, match="expected VClass or AClass, got KClassK"):
            schur_derivative(l_class((1,)))
        assert VClass({(1,): 1}) != l_class((1,))


class TestProduct:
    def test_pieri_in_q(self):
        assert k_product(q_class((1,)), q_class((1,))) == KClassK(
            Q_BASIS, {(2,): 1, (1, 1): 1}
        )

    def test_lr_in_l(self):
        assert k_product(l_class((1,)), l_class((1,))) == KClassK(
            L_BASIS, {(2,): 1, (1, 1): 1}
        )

    def test_transport_between_bases(self):
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                direct = k_product(l_class(lam), l_class(mu))
                via_q = q_to_l(k_product(l_to_q(l_class(lam)), l_to_q(l_class(mu))))
                assert direct == via_q, (lam, mu)


class TestPairing:
    def test_displayed_values(self):
        assert pairing(q_class((2,)), q_class((1,))) == 1
        assert pairing(q_class((1,)), q_class((2,))) == 0
        for lam in partitions_up_to(4):
            assert pairing(l_class(lam), q_class(lam)) == 1
        assert pairing(q_class((2,)), l_class((1, 1))) == 0

    def test_l_against_q_is_delta(self):
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                assert pairing(l_class(lam), q_class(mu)) == (1 if lam == mu else 0)

    def test_pairing_through_conversion(self):
        # converting an argument does not change the pairing
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                assert pairing(q_class(lam), l_class(mu)) == pairing(
                    q_to_l(q_class(lam)), l_class(mu)
                )
                assert pairing(l_class(lam), l_class(mu)) == pairing(
                    l_class(lam), l_to_q(l_class(mu))
                )

    def test_symmetry_under_fourier(self):
        classes = [q_class(p) for p in partitions_up_to(6)]
        classes += [l_class(p) for p in partitions_up_to(6)]
        for x in classes:
            for y in classes:
                assert pairing(x, y) == pairing(fourier_K(y), fourier_K(x))

    def test_q_against_l_in_unit_range(self):
        for lam in partitions_up_to(7):
            for mu in partitions_up_to(7):
                assert pairing(q_class(lam), l_class(mu)) in (-1, 0, 1)

    def test_q_against_l_border_strip_route(self):
        # cross-check: multiplicity in the tail module minus the alternating
        # local cohomology multiplicities
        from tcalab.homalg import local_cohomology

        for lam in partitions_up_to(6):
            for mu in partitions_up_to(6):
                expected = 0
                if lam and lam[1:] == mu and lam[0] >= (mu[0] if mu else 0):
                    expected += 1  # lam = (d, mu) lies in the tail module
                elif lam == mu == ():
                    expected += 1
                table = local_cohomology(mu, mu[0] if mu else 0)
                for i, row in table.rows.items():
                    for nu in row:
                        if nu == lam:
                            expected -= (-1) ** i
                assert pairing(q_class(lam), l_class(mu)) == expected, (lam, mu)


class TestQuiverModel:
    def test_pairing_is_the_alternating_sum_of_hom_dimensions(self):
        # the Euler pairing re-derived from quiver representations on the
        # partitions up to size 6: Hom into an injective Q_mu, and Ext into
        # L_mu as the alternating Hom dimensions into the terms I^i of its
        # realized injective resolution
        vs = VertexSet.up_to_size(6)
        shapes = partitions_up_to(6)
        injective = {lam: build_injective(lam, vs) for lam in shapes}
        simple = {lam: build_simple(lam, vs) for lam in shapes}
        resolution = {mu: realize_bgg(mu, vs).reps for mu in shapes}

        def euler(rep, mu):
            return sum((-1) ** i * hom_space(rep, term)[0]
                       for i, term in enumerate(resolution[mu]))

        compared = 0
        for lam in shapes:
            for mu in shapes:
                q, l = q_class(lam), l_class(lam)
                assert pairing(q, q_class(mu)) == hom_space(injective[lam], injective[mu])[0]
                assert pairing(l, q_class(mu)) == hom_space(simple[lam], injective[mu])[0]
                assert pairing(l, l_class(mu)) == euler(simple[lam], mu), (lam, mu)
                assert pairing(q, l_class(mu)) == euler(injective[lam], mu), (lam, mu)
                compared += 4
        assert compared == 3600


class TestFourier:
    def test_examples(self):
        assert fourier_K(q_class(())) == l_class(())
        assert fourier_K(q_class((2,))) == l_class((1, 1))
        assert fourier_K(l_class((1,))) == -1 * q_class((1,))

    @given(partitions_st())
    def test_involution(self, lam):
        for cls in (q_class(lam), l_class(lam)):
            assert fourier_K(fourier_K(cls)) == cls


class TestDerivative:
    def test_examples(self):
        assert schur_derivative(VClass.simple((2, 1))) == VClass(
            {(1, 1): 1, (2,): 1}
        )
        assert schur_derivative(AClass.free(())) == AClass.free(())
        assert schur_derivative(AClass.free((1,))) == AClass.free((1,)) + AClass.free(())

    @given(partitions_st(), partitions_st())
    def test_additivity(self, a, b):
        x, y = AClass.simple(a), AClass.free(b)
        assert schur_derivative(x + y) == schur_derivative(x) + schur_derivative(y)

    def test_annihilator_examples(self):
        for lam in partitions_up_to(4):
            assert diff_annihilator(AClass.simple(lam)) == (0, size(lam) + 1)
        assert diff_annihilator(AClass.free(())) == (1, 0)
        assert diff_annihilator(AClass.free((1,))) == (2, 0)

    def test_annihilator_zero_class(self):
        with pytest.raises(ZeroClassError):
            diff_annihilator(AClass())

    def test_annihilator_signed_mixture(self):
        x = AClass.free(()) - AClass.free((1,))
        assert diff_annihilator(x) == (2, 0)
        y = AClass.simple((2,)) - AClass.simple((1, 1))
        # the two branching images coincide, so one derivative kills it
        assert diff_annihilator(y) == (0, 1)

    def test_shift_kills_top_projective_degree(self):
        x = AClass.free((2, 1))
        assert not shift_operator(shift_operator(shift_operator(shift_operator(x))))

    @settings(max_examples=40)
    @given(partitions_st(max_part=3, max_rows=2), partitions_st(max_part=3, max_rows=2))
    def test_torsion_summands_move_only_n2(self, a, b):
        base = AClass.free(a) + AClass.simple(b)
        n1, n2 = diff_annihilator(base)
        bigger = base + AClass.simple(b)
        m1, m2 = diff_annihilator(bigger)
        assert m1 == n1
        assert m2 >= n2 or m2 == 0
