"""Character values against explicit matrices and orthogonality; LR
coefficients against the induced-character inner product."""

import pytest
from hypothesis import given, settings

from conftest import partitions_st
from oracles import (
    border_strip_component_count,
    brute_border_strips,
    brute_lr_via_characters,
    centralizer_order,
    pieri_sum,
    rim_hooks_by_move_beta,
    s3_class_traces,
)
from tcalab.partitions import (
    HS,
    VS,
    hook_dimension,
    partitions_of,
    partitions_up_to,
    size,
    transpose,
)
from tcalab.ktheory import k_product
from tcalab.symchar import (
    SizeMismatchError,
    VClass,
    _rim_hook_removals,
    lr_coefficient,
    mn_trace,
)


class TestTraces:
    def test_linear_characters(self):
        assert mn_trace((1, 1), (2,)) == 1
        assert mn_trace((2,), (1, 1)) == -1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            mn_trace((2,), (2, 1))

    def test_s3_table_from_matrices(self):
        table = s3_class_traces()
        for lam, row in table.items():
            for mu, value in row.items():
                assert mn_trace(mu, lam) == value, (mu, lam)
        assert mn_trace((2, 1), (2, 1)) == 0

    def test_identity_class_gives_dimension(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert mn_trace((1,) * n, lam) == hook_dimension(lam)

    def test_column_orthogonality(self):
        for n in range(1, 7):
            shapes = partitions_of(n)
            for mu in shapes:
                for nu in shapes:
                    total = sum(
                        mn_trace(mu, lam) * mn_trace(nu, lam) for lam in shapes
                    )
                    expected = centralizer_order(mu) if mu == nu else 0
                    assert total == expected, (mu, nu)

    def test_transpose_sign_rule(self):
        # twisting by sign multiplies the trace by (-1)^(number of even parts)
        for n in range(1, 8):
            for mu in partitions_of(n):
                eps = (-1) ** sum(1 for x in mu if x % 2 == 0)
                for lam in partitions_of(n):
                    assert mn_trace(mu, transpose(lam)) == eps * mn_trace(mu, lam)


class TestRimHooks:
    def test_match_the_cell_oracle_on_every_row(self):
        # the rim hooks of size s, row by row: each is the connected border
        # strip of that size whose highest box ends its row
        for lam in partitions_up_to(7):
            per_row = [brute_border_strips(lam, r) for r in range(len(lam))]
            for s in range(1, size(lam) + 1):
                expected = [
                    (res, height)
                    for strips in per_row
                    for z, height, res in strips
                    if z == s
                ]
                assert list(_rim_hook_removals(lam, s)) == expected, (lam, s)

    def test_match_one_beta_move_per_row(self):
        # one beta list per shape gives the per-row moves, order included
        for lam in partitions_up_to(10):
            for s in range(size(lam) + 2):
                assert list(_rim_hook_removals(lam, s)) == list(
                    rim_hooks_by_move_beta(lam, s)
                ), (lam, s)

    def test_are_connected(self):
        for lam in partitions_up_to(9):
            for s in range(1, size(lam) + 1):
                for result, _ in _rim_hook_removals(lam, s):
                    assert border_strip_component_count(lam, result) == 1, (lam, s)


class TestLR:
    def test_unit(self):
        for lam in partitions_up_to(4):
            assert lr_coefficient(lam, (), lam) == 1

    def test_small_values(self):
        assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr_coefficient((2,), (1, 1), (3, 1)) == 1
        assert lr_coefficient((2,), (1, 1), (2, 2)) == 0

    def test_against_character_oracle(self):
        for n in range(0, 7):
            for nu in partitions_of(n):
                for a in range(n + 1):
                    for lam in partitions_of(a):
                        for mu in partitions_of(n - a):
                            expected = brute_lr_via_characters(lam, mu, nu, mn_trace)
                            assert lr_coefficient(lam, mu, nu) == expected, (
                                lam,
                                mu,
                                nu,
                            )

    def test_symmetries(self):
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


class TestVClass:
    def test_pieri_both_ways(self):
        assert k_product(VClass.simple((1,)), VClass.simple((1,))) == VClass(
            {(2,): 1, (1, 1): 1}
        )
        assert k_product(VClass.simple((2,)), VClass.simple((1, 1))) == VClass(
            {(3, 1): 1, (2, 1, 1): 1}
        )

    def test_unit_law(self):
        x = VClass({(2, 1): 3, (1,): -2})
        assert k_product(x, VClass.simple(())) == x

    @settings(deadline=None, max_examples=30)
    @given(
        partitions_st(max_part=3, max_rows=2),
        partitions_st(max_part=3, max_rows=2),
        partitions_st(max_part=2, max_rows=2),
    )
    def test_commutative_associative(self, a, b, c):
        x, y, z = VClass.simple(a), VClass.simple(b), VClass.simple(c)
        assert k_product(x, y) == k_product(y, x)
        assert k_product(k_product(x, y), z) == k_product(
            x, k_product(y, z)
        )

    def test_pieri_class_examples(self):
        assert VClass(pieri_sum((1,), 1, HS)) == VClass({(2,): 1, (1, 1): 1})
        for k in range(4):
            assert VClass(pieri_sum((), k, HS)) == VClass({((k,) if k else ()): 1})
        assert VClass(pieri_sum((), 3, VS)) == VClass({(1, 1, 1): 1})

    def test_pieri_matches_lr_product(self):
        for lam in partitions_up_to(5):
            for d in range(5):
                row = VClass.simple((d,) if d else ())
                col = VClass.simple((1,) * d)
                assert VClass(pieri_sum(lam, d, HS)) == k_product(
                    VClass.simple(lam), row
                )
                assert VClass(pieri_sum(lam, d, VS)) == k_product(
                    VClass.simple(lam), col
                )
