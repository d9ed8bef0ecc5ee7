"""Partition arithmetic and strip combinatorics against cell-set oracles."""

import pytest
from hypothesis import given, settings

from conftest import partitions_st
from oracles import (
    add_strips,
    border_strip_component_count,
    brute_aligned_strips,
    brute_remove_strips,
    brute_shifted_sort,
    brute_standard_tableaux_count,
    brute_transpose,
    eval_poly,
    partitions_by_first_part,
    remove_strips,
    skew_is_hs,
    skew_is_vs,
    stable_dimension_poly,
    sub_partitions,
)
from tcalab.partitions import (
    HS,
    VS,
    BorderStripRemoval,
    PartitionError,
    _partitions_cached,
    aligned_border_strips,
    aut_factor,
    contains,
    corner_removals,
    down_set,
    hook_dimension,
    is_strip,
    multiplicities,
    parse_partition,
    partition,
    partitions_of,
    partitions_up_to,
    prefixed_to_partition,
    shifted_normalize,
    size,
    transpose,
    vertical_strips,
)


def strips_of_size(lam, d, kind):
    """The mu with lam/mu a strip of the kind and size d, in the order of
    `down_set` (HS) or `vertical_strips` (VS)."""
    if kind == HS:
        return [mu for mu in down_set(lam) if size(lam) - size(mu) == d]
    return [mu for c, mu in vertical_strips(lam) if sum(c) == d]


class TestPartitionBasics:
    def test_canonicalization(self):
        assert partition([3, 1, 0, 0]) == (3, 1)
        assert partition([]) == ()
        with pytest.raises(PartitionError):
            partition([1, 2])
        with pytest.raises(PartitionError):
            partition([2, -1])
        assert prefixed_to_partition(2, (2,)) == (2, 2)
        with pytest.raises(PartitionError, match=r"\(1, \(2,\)\) is not a partition"):
            prefixed_to_partition(1, (2,))

    def test_parse(self):
        assert parse_partition("7,5,3,3,2") == (7, 5, 3, 3, 2)
        assert parse_partition("0") == ()
        assert parse_partition("") == ()
        with pytest.raises(PartitionError):
            parse_partition("2,3")

    def test_transpose_examples(self):
        assert transpose(()) == ()
        assert transpose((3, 1)) == (2, 1, 1)
        assert transpose((5, 4, 3, 2, 1)) == (5, 4, 3, 2, 1)

    @given(partitions_st())
    def test_transpose_involution_and_size(self, lam):
        assert transpose(transpose(lam)) == lam
        assert size(transpose(lam)) == size(lam)
        assert transpose(lam) == brute_transpose(lam)

    def test_multiplicities_and_aut_factor_examples(self):
        assert multiplicities((2, 1, 1, 1)) == {1: 3, 2: 1}
        assert aut_factor((2, 1, 1, 1)) == 6
        assert multiplicities(()) == {}
        assert aut_factor(()) == 1
        assert multiplicities((3, 3, 2)) == {3: 2, 2: 1}
        assert aut_factor((3, 3, 2)) == 2

    def test_partitions_of_enumeration(self):
        assert partitions_of(0) == [()]
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        # counts match the partition function
        for n, count in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22]):
            assert len(partitions_of(n)) == count
        assert partitions_of(-1) == []

    @pytest.mark.parametrize("n", range(16))
    def test_layer_keys_are_the_recursive_enumeration(self, n):
        assert list(_partitions_cached(n)) == list(partitions_by_first_part(n))

    @pytest.mark.parametrize("n", range(16))
    def test_layer_covers_are_the_one_box_additions(self, n):
        # the covers of v: the partitions of n + 1 with v among their corner
        # removals, descending, each the very key object of layer n + 1
        above = list(partitions_by_first_part(n + 1))
        below = {w: corner_removals(w) for w in above}
        key = {w: w for w in _partitions_cached(n + 1)}
        for v, covers in _partitions_cached(n).items():
            assert list(covers) == [w for w in above if v in below[w]], v
            assert all(w is key[w] for w in covers), v


class TestStrips:
    def test_is_strip_examples(self):
        assert is_strip((3, 1), (2,), HS)
        assert not is_strip((2, 2), (1,), HS)
        assert is_strip((2, 1), (1,), VS)

    def test_is_strip_on_huge_parts(self):
        # both relations are tested row by row, so a part of 10^20 boxes
        # is never expanded into its columns
        big = 10**20
        for kind in (HS, VS):
            assert is_strip((big,), (big - 1,), kind)
            assert is_strip((big, 1), (big,), kind)
            assert not is_strip((1,), (big,), kind)
            assert not is_strip((big - 1,), (big,), kind)
        assert is_strip((big,), (1,), HS)
        assert not is_strip((big,), (big - 2,), VS)
        assert is_strip((big, big), (big - 1, big - 1), VS)
        assert not is_strip((big, big), (big - 1, big - 1), HS)
        assert not is_strip((big, big), (big - 1,), VS)

    @given(partitions_st(max_part=4, max_rows=4))
    def test_is_strip_matches_cells(self, lam):
        for mu in sub_partitions(lam):
            assert is_strip(lam, mu, HS) == skew_is_hs(lam, mu)
            assert is_strip(lam, mu, VS) == skew_is_vs(lam, mu)

    def test_remove_strips_examples(self):
        # oracle first: brute_remove_strips((2,1), 1, HS) = {(1,1), (2,)}
        assert brute_remove_strips((2, 1), 1, "HS") == {(1, 1), (2,)}
        assert set(remove_strips((2, 1), 1, HS)) == {(1, 1), (2,)}
        assert remove_strips((1, 1), 1, HS) == [(1,)]
        assert remove_strips((2, 1), 0, HS) == [(2, 1)]
        assert remove_strips((), 0, VS) == [()]
        assert down_set((2, 1)) == [(2, 1), (2,), (1, 1), (1,)]
        assert down_set((1, 1)) == [(1, 1), (1,)]
        assert down_set(()) == [()]
        assert vertical_strips(()) == [((), ())]

    def test_strip_order_is_lex_descending(self):
        assert corner_removals((2, 1)) == [(2,), (1, 1)]
        assert strips_of_size((3, 1), 1, HS) == [(3,), (2, 1)]
        assert add_strips((2,), 2, HS) == [(4,), (3, 1), (2, 2)]
        assert add_strips((1,), 1, HS) == [(2,), (1, 1)]
        assert add_strips((), 3, VS) == [(1, 1, 1)]

    @given(partitions_st(max_part=4, max_rows=3))
    def test_remove_strips_matches_oracle(self, lam):
        for kind in (HS, VS):
            for d in range(size(lam) + 1):
                want = brute_remove_strips(lam, d, kind)
                assert set(remove_strips(lam, d, kind)) == want
                assert set(strips_of_size(lam, d, kind)) == want

    def test_strips_below_matches_oracle(self):
        # the strips below lam: `down_set` and `vertical_strips` list each
        # once, and `vertical_strips` by size
        for lam in partitions_up_to(6):
            sizes = [sum(c) for c, _ in vertical_strips(lam)]
            assert sizes == sorted(sizes), lam
            for kind in (HS, VS):
                got = [mu for d in range(size(lam) + 1)
                       for mu in strips_of_size(lam, d, kind)]
                assert len(set(got)) == len(got)
                for d in range(size(lam) + 1):
                    assert set(strips_of_size(lam, d, kind)) == brute_remove_strips(
                        lam, d, kind
                    ), (lam, kind, d)

    def test_vs_is_hs_on_transposes(self):
        for lam in partitions_up_to(8):
            via_transpose = {
                (size(lam) - size(mu), transpose(mu)) for mu in down_set(transpose(lam))
            }
            assert {(sum(c), mu) for c, mu in vertical_strips(lam)} == via_transpose, lam

    def test_vs_order_matches_the_transpose_route(self):
        for lam in partitions_up_to(9):
            strips = vertical_strips(lam)
            for d in range(size(lam) + 2):
                assert [mu for c, mu in strips if sum(c) == d] == remove_strips(
                    lam, d, VS), (lam, d)
            assert [(sum(c), mu) for c, mu in vertical_strips(lam)] == [
                (d, mu) for d in range(size(lam) + 1)
                for mu in remove_strips(lam, d, VS)
            ], lam

    def test_hs_order_matches_the_recursion(self):
        # down_set is lexicographically descending, so each size keeps the
        # recursion's order
        for lam in partitions_up_to(9):
            for d in range(size(lam) + 1):
                assert strips_of_size(lam, d, HS) == remove_strips(lam, d, HS), (lam, d)
        for lam in ((), (2, 1)):
            with pytest.raises(ValueError):
                is_strip(lam, lam, "XX")

    def test_down_set_is_the_horizontal_strips_below(self):
        for lam in partitions_up_to(9):
            down = down_set(lam)
            assert len(down) == len(set(down)), lam
            assert set(down) == {
                mu for d in range(size(lam) + 1) for mu in remove_strips(lam, d, HS)
            }, lam

    def test_corner_removals_are_the_one_box_strips(self):
        for v in partitions_up_to(9):
            assert corner_removals(v) == remove_strips(v, 1, HS), v
            assert corner_removals(v) == strips_of_size(v, 1, HS), v

    def test_vertical_strips_are_row_block_counts(self):
        for lam in partitions_up_to(9):
            blocks = list(multiplicities(lam).values())
            strips = vertical_strips(lam)
            assert len({mu for _, mu in strips}) == len(strips), lam
            for c, mu in strips:
                assert len(c) == len(blocks)
                assert all(0 <= ck <= m for ck, m in zip(c, blocks)), (lam, c)
                assert sum(c) == size(lam) - size(mu), (lam, c, mu)

    def test_add_strip_duality(self):
        for lam in partitions_up_to(4):
            for d in range(4):
                for kind in (HS, VS):
                    added = add_strips(lam, d, kind)
                    for mu in added:
                        assert lam in strips_of_size(mu, d, kind)

    def test_strip_identity(self):
        # alternating count of mid shapes between nested partitions
        for lam in partitions_up_to(8):
            for nu in sub_partitions(lam):
                total = 0
                for mu in down_set(lam):
                    if is_strip(mu, nu, VS):
                        total += (-1) ** (size(mu) - size(nu))
                assert total == (1 if lam == nu else 0), (lam, nu)


class TestHooks:
    def test_hook_dimension_examples(self):
        assert hook_dimension(()) == 1
        assert hook_dimension((7,)) == 1
        # oracle first: standard tableaux counts
        assert brute_standard_tableaux_count((2, 1)) == 2
        assert brute_standard_tableaux_count((2, 2)) == 2
        assert hook_dimension((2, 1)) == 2
        assert hook_dimension((2, 2)) == 2

    @given(partitions_st(max_part=4, max_rows=3))
    def test_hook_dimension_matches_tableaux(self, lam):
        assert hook_dimension(lam) == brute_standard_tableaux_count(lam)

    def test_stable_dimension_poly(self):
        assert stable_dimension_poly(()) == (1,)
        assert eval_poly(stable_dimension_poly((1,)), 1) == 2  # dim at (2,1)
        assert eval_poly(stable_dimension_poly((2,)), 2) == hook_dimension((3, 1, 1))

    def test_stable_dimension_poly_against_hooks(self):
        for mu in partitions_up_to(5):
            coeffs = stable_dimension_poly(mu)
            assert len(coeffs) - 1 == size(mu)
            for n in range(len(mu), len(mu) + 6):
                shape = partition(tuple(x + 1 for x in mu) + (1,) * n)
                assert eval_poly(coeffs, n) == hook_dimension(shape), (mu, n)


class TestBorderStrips:
    def test_two_box_column(self):
        # only the full column strip contains the last box of the first row
        assert aligned_border_strips((1, 1)) == [BorderStripRemoval(2, 2, ())]
        assert brute_aligned_strips((1, 1)) == [(2, 2, ())]

    def test_empty_shape(self):
        assert aligned_border_strips(()) == []

    def test_wide_shape_with_two_row_strip(self):
        strips = {b.size: b for b in aligned_border_strips((7, 5, 3, 3, 2))}
        assert strips[5].height == 2
        assert strips[5].result == (4, 3, 3, 3, 2)

    def test_size_exceeding_shape_absent(self):
        sizes = {b.size for b in aligned_border_strips((3, 2, 1))}
        assert 7 not in sizes

    @settings(deadline=None, max_examples=40)
    @given(partitions_st(max_part=4, max_rows=3))
    def test_matches_cell_oracle(self, shape):
        got = [(b.size, b.height, b.result) for b in aligned_border_strips(shape)]
        assert got == brute_aligned_strips(shape)

    @given(partitions_st(max_part=4, max_rows=3))
    def test_unique_per_size_and_reconstruction(self, shape):
        strips = aligned_border_strips(shape)
        sizes = [b.size for b in strips]
        assert len(sizes) == len(set(sizes))
        for b in strips:
            assert size(b.result) + b.size == size(shape)
            assert contains(shape, b.result)

    def test_component_count(self):
        # the marked strip of the (7,5,3,3,2) figure has 2 components
        assert border_strip_component_count((7, 5, 3, 3, 2), (4, 3, 2, 1, 1)) == 2
        assert border_strip_component_count((7, 5, 3, 3, 2), (4, 3, 3, 3, 2)) == 1
        with pytest.raises(PartitionError):
            border_strip_component_count((2, 2), ())  # contains a 2x2 square

    def test_aligned_strips_are_connected(self):
        for shape in partitions_up_to(9):
            for b in aligned_border_strips(shape):
                assert border_strip_component_count(shape, b.result) == 1, (shape, b)


class TestShiftedNormalize:
    def test_worked_examples(self):
        assert shifted_normalize(0, (1,)) is None
        assert shifted_normalize(-1, (1,)) == (-1, ())
        assert shifted_normalize(-2, (2, 1)) == (1, (1,))
        assert shifted_normalize(0, (2,)) == (-1, (1, 1))
        assert shifted_normalize(1, (2,)) is None
        assert shifted_normalize(0, (2, 1)) == (-1, (1, 1, 1))

    def test_rest_must_be_a_partition(self):
        # the single beta-number move needs rest weakly decreasing
        with pytest.raises(PartitionError):
            shifted_normalize(3, (1, 2))

    def test_deep_tail_collision_is_singular(self):
        # the first entry lands on the zero padding: must be singular
        assert shifted_normalize(-3, (3,)) is None
        assert shifted_normalize(-4, (1,)) is None

    @given(partitions_st(max_part=4, max_rows=3), partitions_st(max_part=4, max_rows=1))
    def test_matches_long_padding_oracle(self, rest, head):
        first = (head[0] if head else 0) - 4
        expected = brute_shifted_sort((first,) + rest, padding=12)
        assert shifted_normalize(first, rest) == expected

    def test_agreement_with_aligned_strips(self):
        # singular exactly when no aligned strip of the matching size exists;
        # otherwise the result is the strip leftover and the sign parity is
        # one less than the strip height
        for lam in partitions_up_to(6):
            if not lam:
                continue
            shape = partition((lam[0],) + lam)
            strips = {b.size: b for b in aligned_border_strips(shape)}
            for n in range(0, size(shape)):
                s = size(shape) - n
                out = shifted_normalize(n - size(lam), lam)
                if s not in strips:
                    assert out is None, (lam, n)
                else:
                    b = strips[s]
                    assert out is not None, (lam, n)
                    sign, target = out
                    assert target == b.result
                    assert sign == (-1) ** (b.height - 1)
