"""Machine verification layer: hom spaces, socles, relation validation,
realized resolutions, contractibility."""

import random
from collections import Counter
from itertools import permutations

import pytest
from fractions import Fraction

from oracles import (
    add_strips,
    complex_cohomology_all_vertices,
    global_relations_hold,
    hom_space_all_pairs,
    injective_sum_by_scan,
    realize_bgg_by_constructor,
    remove_strips,
    sum_tables_on_supports,
    vertex_set_by_remove_strips,
)
from tcalab import linalg, quiver
from tcalab.ktheory import q_class, q_to_l
from tcalab.partitions import (
    HS,
    InjResolution,
    bgg_resolution,
    corner_removals,
    down_set,
    is_strip,
    partitions_up_to,
    size,
)
from tcalab.quiver import (
    NotAComplexError,
    QuiverRep,
    RelationError,
    RepComplex,
    VertexMissingError,
    VertexSet,
    VertexSetMismatchError,
    build_injective,
    build_simple,
    complex_cohomology,
    hom_space,
    injective_sum,
    realize_bgg,
    socle,
    tau_contractibility_check,
)


def dense_arrow(rep, i, j):
    """The matrix on the arrow i -> j, with an absent arrow as zeros."""
    m = rep.arrows.get((i, j))
    if m is None:
        return linalg.zeros(rep.dims.get(j, 0), rep.dims.get(i, 0))
    return m


def covering_pairs(vs):
    """Every arrow (i, j) of the vertex set, by i in vertex order and then
    j as in `up[i]`."""
    return [(i, j) for i in vs.vertices for j in vs.up[i]]


class TestVertexSet:
    def test_downward_closure_enforced(self):
        # closed by construction: every corner removal is a vertex
        vs = VertexSet.up_to_size(3)
        assert len(vs) == 7
        for v in vs.vertices:
            assert all(w in vs for w in corner_removals(v)), v

    @staticmethod
    def _tables(vs):
        return (vs.vertices, list(vs.index.items()), list(vs.up.items()),
                tuple(covering_pairs(vs)))

    @staticmethod
    def _oracle_tables(vertices):
        vs, index, up, covers = vertex_set_by_remove_strips(vertices)
        return vs, list(index.items()), list(up.items()), covers

    def test_bare_constructor_names_the_builder(self):
        for args in [(), ([(), (1,)],)]:
            with pytest.raises(TypeError, match=r"VertexSet\.up_to_size"):
                VertexSet(*args)

    @pytest.mark.parametrize("n", range(11))
    def test_up_to_size_matches_the_remove_strips_construction(self, n):
        assert self._tables(VertexSet.up_to_size(n)) == self._oracle_tables(
            partitions_up_to(n))


class TestOrderTable:
    # a truncation, and the smallest one with a vertical domino
    SETS = (VertexSet.up_to_size(6), VertexSet.up_to_size(2))

    @pytest.mark.parametrize("vs", SETS + (VertexSet.up_to_size(8),))
    def test_injective_support_is_the_strip_down_set(self, vs):
        for v in vs.vertices:
            support = set(build_injective(v, vs).dims)
            assert support == {mu for mu in vs.vertices if is_strip(v, mu, HS)}, v

    @pytest.mark.parametrize("vs", SETS)
    def test_covers_match_a_scan(self, vs):
        scan = [(i, j) for i in vs.vertices for j in add_strips(i, 1, HS) if j in vs]
        assert covering_pairs(vs) == scan
        for v in vs.vertices:
            assert list(vs.up[v]) == [j for i, j in scan if i == v]


class TestLocalRelations:
    """The validator checks the quiver's local presentation; it must accept
    and reject exactly what the global scan in the oracles does."""

    SETS = (
        VertexSet.up_to_size(3),
        VertexSet.up_to_size(4),
        VertexSet.up_to_size(5),
        VertexSet.up_to_size(6),
    )

    @staticmethod
    def _accepts(vs, dims, arrows):
        try:
            QuiverRep(vs, dims, arrows)
        except RelationError:
            return False
        return True

    @staticmethod
    def _random_rep(rng, vs):
        dims = {v: rng.choice((0, 0, 1, 1, 2)) for v in vs.vertices}
        arrows = {
            (i, j): [
                [Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(dims[i])]
                for _ in range(dims[j])
            ]
            for (i, j) in covering_pairs(vs)
            if dims[i] and dims[j] and rng.random() < 0.5
        }
        return dims, arrows

    @staticmethod
    def _perturbed_sum(rng, vs):
        lams = rng.sample(vs.vertices, rng.randint(1, 3))
        ds = injective_sum(lams, vs)
        pairs = [(i, j) for (i, j) in covering_pairs(vs) if i in ds.dims and j in ds.dims]
        arrows = {pair: [row[:] for row in dense_arrow(ds, *pair)] for pair in pairs}
        if pairs:
            m = arrows[rng.choice(pairs)]
            a, b = rng.randrange(len(m)), rng.randrange(len(m[0]))
            m[a][b] += rng.choice((-1, 1, 2))
        return ds.dims, arrows

    @pytest.mark.parametrize("vs", SETS)
    def test_agrees_with_the_global_scan(self, vs):
        rng = random.Random(len(vs))
        verdicts = set()
        for n in range(150):
            make = self._random_rep if n % 2 else self._perturbed_sum
            dims, arrows = make(rng, vs)
            want = global_relations_hold(vs.vertices, dims, arrows)
            assert self._accepts(vs, dims, arrows) == want, (dims, arrows)
            verdicts.add((make, want))
        assert len(verdicts) == 4

    def test_two_box_rule_matches_is_strip(self):
        # every two-step path i -> j -> k: k/i is no strip exactly when its
        # boxes sit in two rows of equal length in k
        vs = VertexSet.up_to_size(8)
        verdicts = Counter()
        for i in vs.vertices:
            for j in vs.up[i]:
                for k in vs.up[j]:
                    want = is_strip(k, i, HS)
                    assert quiver._two_box_is_strip(k, i) == want, (i, k)
                    verdicts[want] += 1
        assert verdicts[True] and verdicts[False]

    def test_products_through_zero_dimensional_vertices_keep_their_shape(self):
        vs = VertexSet.up_to_size(2)
        RepComplex([build_simple((1,), vs), build_injective((2,), vs)], [{}])
        QuiverRep(VertexSet.up_to_size(5), {(): 1, (1,): 1, (4,): 2}, {})


class TestRepInput:
    VS = VertexSet.up_to_size(2)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            QuiverRep(self.VS, {(1,): -2}, {})

    def test_bool_dimension_rejected(self):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            QuiverRep(self.VS, {(): True, (1,): 1}, {((), (1,)): [[1]]})

    def test_dimension_outside_the_vertex_set_rejected(self):
        with pytest.raises(VertexMissingError):
            QuiverRep(self.VS, {(5,): 3}, {})

    def test_arrow_endpoint_outside_the_vertex_set_rejected(self):
        with pytest.raises(VertexMissingError, match="arrow endpoint missing"):
            QuiverRep(self.VS, {(2,): 1}, {((2,), (3,)): [[0]]})

    def test_non_canonical_keys_rejected_with_their_partition(self):
        # (1, 0) spells the vertex (1,) but is not the key it is stored under
        with pytest.raises(ValueError, match=r"dimension at \(1, 0\), a non-canonical "
                           r"key; the partition is \(1,\)") as refusal:
            QuiverRep(self.VS, {(1, 0): 1}, {})
        assert not isinstance(refusal.value, VertexMissingError)
        with pytest.raises(ValueError, match=r"arrow \(\(\), \(1, 0\)\) at endpoint "
                           r"\(1, 0\), a non-canonical key; the partition is \(1,\)"):
            QuiverRep(self.VS, {(): 1, (1,): 1}, {((), (1, 0)): [[1]]})
        q = build_injective((2,), self.VS)
        with pytest.raises(ValueError, match=r"map 0 has a block at \(2, 0\), a "
                           r"non-canonical key; the partition is \(2,\)"):
            RepComplex([q, q], [{(2, 0): [[1]]}])
        with pytest.raises(VertexMissingError, match="outside the vertex set"):
            QuiverRep(self.VS, {(3, 0): 1}, {})

    def test_only_the_support_is_stored_in_vertex_order(self):
        # zero entries are dropped, any input order comes out in vertex
        # order, and dim reads 0 off the support
        vs = VertexSet.up_to_size(3)
        dims = {(2, 1): 2, (1,): 0, (3,): 1, (): 1, (1, 1): 0}
        rep = QuiverRep(vs, dims, {})
        assert list(rep.dims.items()) == [((), 1), ((3,), 1), ((2, 1), 2)]
        assert rep == QuiverRep(vs, {(): 1, (3,): 1, (2, 1): 2}, {})
        assert [rep.dims.get(v, 0) for v in vs.vertices] == [1, 0, 0, 0, 1, 2, 0]
        for items in permutations(dims.items()):
            assert list(QuiverRep(vs, dict(items), {}).dims.items()) == list(
                rep.dims.items())

    def test_ragged_arrow_rejected(self):
        one = Fraction(1)
        with pytest.raises(ValueError, match="shape"):
            QuiverRep(self.VS, {(): 1, (1,): 2}, {((), (1,)): [[one], [one, one]]})

    @pytest.mark.parametrize("x", [0.5, True])
    def test_inexact_arrow_rejected(self, x):
        with pytest.raises(ValueError, match="inexact"):
            QuiverRep(self.VS, {(): 1, (1,): 1}, {((), (1,)): [[x]]})

    @pytest.mark.parametrize("x", [0.5, True])
    def test_inexact_map_block_rejected(self, x):
        q = build_injective((2,), self.VS)
        with pytest.raises(ValueError, match="inexact"):
            RepComplex([q, q], [{v: [[x]] for v in q.dims}])

    @pytest.mark.parametrize(
        "phi, error",
        [
            ({(1,): [[Fraction(1), Fraction(0)]]}, "shape"),
            ({(1,): [[Fraction(1)], [Fraction(0)]]}, "shape"),
            ({(5,): [[Fraction(1)]]}, "outside the vertex set"),
            # a block at (1,) and none at (): the arrow () -> (1,) breaks it
            ({(1,): [[1]]}, "not a morphism"),
            # blocks everywhere, but the one at (2,) does not commute
            ({(): [[1]], (1,): [[1]], (2,): [[-1]]}, "not a morphism"),
        ],
    )
    def test_map_blocks_are_checked(self, phi, error):
        q = build_injective((2,), self.VS)
        kind = NotAComplexError if error == "not a morphism" else ValueError
        with pytest.raises(kind, match=error):
            RepComplex([q, q], [phi])


def seeded_lists(vs, seed, count):
    """count lists of one to three vertices of vs, repeats allowed."""
    rng = random.Random(seed)
    return [rng.choices(vs.vertices, k=rng.randint(1, 3)) for _ in range(count)]


class TestInjectiveSum:
    VS = VertexSet.up_to_size(5)
    LISTS = seeded_lists(VS, 5, 24)

    def test_dimension_vector_and_positions(self):
        for lams in self.LISTS:
            rep = injective_sum(lams, self.VS)
            _, _, where = injective_sum_by_scan(lams, self.VS)
            # the sum and the scan's positions hold exactly the union of
            # the down-sets, in vertex order
            union = {mu for lam in lams for mu in down_set(lam)}
            support = [v for v in self.VS.vertices if v in union]
            assert list(rep.dims) == list(where) == support, lams
            for v in self.VS.vertices:
                below = [b for b, lam in enumerate(lams) if is_strip(lam, v, HS)]
                assert rep.dims.get(v, 0) == len(below), (lams, v)
                # summand b's position is the popcount of the summand
                # mask's bits below b
                mask = sum(1 << b for b in below)
                assert list(where.get(v, {}).items()) == [
                    (b, (mask & (1 << b) - 1).bit_count()) for b in below]

    def test_hom_dimensions(self):
        for lams, mus in zip(self.LISTS, self.LISTS[1:]):
            expected = sum(is_strip(a, b, HS) for a in lams for b in mus)
            dim, _ = hom_space(
                injective_sum(lams, self.VS), injective_sum(mus, self.VS)
            )
            assert dim == expected, (lams, mus)

    def test_socle_is_the_summand_multiset(self):
        for lams in self.LISTS:
            assert socle(injective_sum(lams, self.VS)) == Counter(lams), lams

    def test_matches_the_covering_pair_scan(self):
        seven = VertexSet.up_to_size(7)
        cases = [(lams, self.VS) for lams in self.LISTS]
        cases += [([v], seven) for v in seven.vertices]
        # more summands than a machine word has bits, each one repeated
        four = VertexSet.up_to_size(4)
        cases.append((list(four.vertices) * 6, four))
        for lams, vs in cases:
            rep = injective_sum(lams, vs)
            arrows, dims, _ = injective_sum_by_scan(lams, vs)
            assert list(rep.arrows.items()) == list(arrows.items()), lams
            assert rep.dims == dims, lams
            # the public constructor accepts the tables and stores them alike
            public = QuiverRep(vs, rep.dims, rep.arrows)
            assert list(public.dims.items()) == list(rep.dims.items()), lams
            assert list(public.arrows.items()) == list(rep.arrows.items()), lams

    def test_relations_are_checked_on_corrupted_supports(self, monkeypatch):
        # every summand's down-set loses or gains seeded vertices; the sum
        # must be refused exactly when the global scan refuses the matrices
        # built on the same supports, with the message the public
        # constructor gives them, and both local relations must refuse
        vs, rng = self.VS, random.Random(9)
        supports = {}
        monkeypatch.setattr(quiver, "down_set", lambda lam: supports[lam])
        verdicts = Counter()
        for lams in seeded_lists(vs, 9, 1000):
            supports.clear()
            for lam in dict.fromkeys(lams):
                # sorted, so the seeded draws do not hang on the enumeration order
                down = sorted(down_set(lam))
                outside = [v for v in vs.vertices if v not in down]
                supports[lam] = [mu for mu in down if rng.random() > 0.15]
                supports[lam] += rng.sample(outside, min(len(outside), rng.randint(0, 2)))
            arrows, dims, _ = sum_tables_on_supports([supports[lam] for lam in lams], vs)
            want = global_relations_hold(vs.vertices, dims, arrows)
            try:
                injective_sum(lams, vs)
            except RelationError as exc:
                assert not want, lams
                # the same relation, at the same interval and middle, as
                # the validator of the public constructor reports
                with pytest.raises(RelationError) as public:
                    QuiverRep(vs, dims, arrows)
                assert str(exc) == str(public.value), lams
                verdicts[str(exc).split(" through")[0]] += 1
            else:
                assert want, lams
                verdicts["accepted"] += 1
        assert verdicts.keys() == {"accepted", "nonzero composite", "composite"}
        assert min(verdicts.values()) > 100, verdicts


class TestBuilders:
    def test_simple(self):
        vs = VertexSet.up_to_size(3)
        rep = build_simple((2, 1), vs)
        assert sum(rep.dims.values()) == 1
        assert rep.dims.get((2, 1), 0) == 1
        with pytest.raises(VertexMissingError):
            build_simple((4,), vs)

    def test_injective_support(self):
        vs = VertexSet.up_to_size(4)
        rep = build_injective((2, 1), vs)
        removals = {
            mu
            for d in range(4)
            for mu in remove_strips((2, 1), d, HS)
        }
        assert set(rep.dims) == removals
        assert sum(rep.dims.values()) == len(removals)
        assert sum(build_injective((), vs).dims.values()) == 1

    def test_truncation_guard(self):
        # vertex set without small partitions cannot host the injective
        with pytest.raises(VertexMissingError, match=r"vertex set misses \(2,\)"):
            build_injective((2,), VertexSet.up_to_size(1))

    def test_constructed_reps_validate(self):
        vs = VertexSet.up_to_size(4)
        for lam in partitions_up_to(4):
            build_injective(lam, vs).validate()
            build_simple(lam, vs).validate()

    def test_relation_validator_catches_zero_relation_breakage(self):
        # a column is not a horizontal strip, so the composite through (1)
        # into (1,1) must vanish; an all-ones assignment breaks this
        vs = VertexSet.up_to_size(2)
        dims = {v: 1 for v in vs.vertices}
        arrows = {pair: [[Fraction(1)]] for pair in covering_pairs(vs)}
        with pytest.raises(RelationError):
            QuiverRep(vs, dims, arrows)

    def test_relation_validator_catches_path_disagreement(self):
        # two box-addition paths from (1) to (2,1) must compose equally
        vs = VertexSet.up_to_size(3)
        rep = build_injective((2, 1), vs)
        arrows = dict(rep.arrows)
        arrows[((1, 1), (2, 1))] = [[Fraction(2)]]
        with pytest.raises(RelationError):
            QuiverRep(vs, dict(rep.dims), arrows)


class TestHomSocle:
    def test_hom_between_injectives(self):
        vs = VertexSet.up_to_size(3)
        q2 = build_injective((2,), vs)
        q1 = build_injective((1,), vs)
        assert hom_space(q2, q1)[0] == 1
        assert hom_space(q1, q2)[0] == 0

    def test_hom_dimensions_sweep(self):
        vs = VertexSet.up_to_size(4)
        injectives = {lam: build_injective(lam, vs) for lam in partitions_up_to(4)}
        for lam, ql in injectives.items():
            for mu, qm in injectives.items():
                expected = 1 if is_strip(lam, mu, HS) else 0
                assert hom_space(ql, qm)[0] == expected, (lam, mu)
                simple = build_simple(lam, vs)
                assert hom_space(simple, qm)[0] == (1 if lam == mu else 0)

    def test_hom_refuses_two_vertex_sets(self):
        q1 = build_injective((1,), VertexSet.up_to_size(2))
        with pytest.raises(VertexSetMismatchError):
            hom_space(q1, build_injective((1,), VertexSet.up_to_size(3)))

    @pytest.mark.parametrize(
        "vs", (VertexSet.up_to_size(5), TestOrderTable.SETS[1]))
    def test_matches_the_all_pairs_route(self, vs):
        # constraints only where both sides can be nonzero: the same
        # dimension and the same basis, Fraction for Fraction
        for build in (build_injective, build_simple):
            reps = [build(v, vs) for v in vs.vertices]
            for r1 in reps:
                for r2 in reps:
                    assert hom_space(r1, r2) == hom_space_all_pairs(r1, r2)

    def test_hom_basis_is_intertwiner(self):
        vs = VertexSet.up_to_size(3)
        q21 = build_injective((2, 1), vs)
        q1 = build_injective((1,), vs)
        dim, basis = hom_space(q21, q1)
        assert dim == 1
        phi = basis[0]
        for (i, j) in covering_pairs(vs):
            lhs = linalg.mat_mul(
                phi.get(j, linalg.zeros(q1.dims.get(j, 0), q21.dims.get(j, 0))),
                dense_arrow(q21, i, j),
            )
            rhs = linalg.mat_mul(
                dense_arrow(q1, i, j),
                phi.get(i, linalg.zeros(q1.dims.get(i, 0), q21.dims.get(i, 0))),
            )
            assert lhs == rhs

    def test_socle_examples(self):
        vs = VertexSet.up_to_size(4)
        for lam in partitions_up_to(4):
            assert socle(build_injective(lam, vs)) == {lam: 1}
            assert socle(build_simple(lam, vs)) == {lam: 1}
        ds = injective_sum([(2,), (1, 1)], vs)
        assert socle(ds) == {(2,): 1, (1, 1): 1}

    def test_cyclic_subreps_have_top_socle(self):
        # the subrepresentation generated by any support vertex of an
        # injective reaches the top vertex, so its socle contains it
        for lam in partitions_up_to(4):
            vs = VertexSet.up_to_size(size(lam))
            q = build_injective(lam, vs)
            support = list(q.dims)
            for start in support:
                reach = {start}
                frontier = {start}
                while frontier:
                    nxt = set()
                    for v in frontier:
                        for w in support:
                            if w not in reach and is_strip(w, v, HS):
                                nxt.add(w)
                    reach |= nxt
                    frontier = nxt
                dims = {v: 1 for v in reach}
                arrows = {
                    pair: [[Fraction(1)]]
                    for pair in covering_pairs(vs)
                    if pair[0] in reach and pair[1] in reach
                }
                sub = QuiverRep(vs, dims, arrows)  # validates the relations
                assert socle(sub).get(lam) == 1, (lam, start)


class TestRealizedResolutions:
    def test_two_term_example(self):
        cx = realize_bgg((1,))
        cohom = complex_cohomology(cx)
        assert cohom == [{(1,): 1}, {}]

    def test_column_example(self):
        cohom = complex_cohomology(realize_bgg((1, 1)))
        assert cohom == [{(1, 1): 1}, {}, {}]

    def test_hook_example(self):
        cohom = complex_cohomology(realize_bgg((2, 1)))
        assert cohom == [{(2, 1): 1}, {}, {}]

    def test_sweep_up_to_4(self):
        for lam in partitions_up_to(4):
            cohom = complex_cohomology(realize_bgg(lam))
            assert cohom[0] == {lam: 1}, lam
            assert all(not h for h in cohom[1:]), lam

    def test_composition_series_matches_basis_change(self):
        vs = VertexSet.up_to_size(4)
        for lam in partitions_up_to(4):
            rep = build_injective(lam, vs)
            assert rep.dims == dict(q_to_l(q_class(lam)).coeffs)

    def test_identity_complex_has_no_cohomology(self):
        vs = VertexSet.up_to_size(2)
        q = build_injective((2,), vs)
        ident = {
            v: [[Fraction(1)]]
            for v in q.dims
        }
        cx = RepComplex([q, q], [ident])
        assert all(not h for h in complex_cohomology(cx))

    def test_matches_the_constructor_route(self):
        # on the default vertex set, and on one a size larger, whose top
        # layer lies outside every summand's support
        cases = [(lam, None) for lam in partitions_up_to(9)]
        cases += [(lam, VertexSet.up_to_size(size(lam) + 1))
                  for lam in partitions_up_to(6)]
        for lam, vs in cases:
            cx, want = realize_bgg(lam, vs), realize_bgg_by_constructor(lam, vs)
            assert [r.dims for r in cx.reps] == [r.dims for r in want.reps], lam
            assert [list(phi.items()) for phi in cx.maps] == [
                list(phi.items()) for phi in want.maps], lam

    def test_cohomology_matches_the_all_vertex_formula(self):
        # the realized resolutions, including on a larger vertex set, and
        # complexes built through the constructor: the identity, the zero
        # map from a simple into an injective, and scaled canonical maps as
        # in the kernel/cokernel check, whose cohomology is spread over
        # vertices
        vs2, vs4 = VertexSet.up_to_size(2), VertexSet.up_to_size(4)
        q2 = build_injective((2,), vs2)
        complexes = [realize_bgg(lam) for lam in partitions_up_to(8)]
        complexes += [realize_bgg(lam, vs4) for lam in partitions_up_to(3)]
        complexes += [
            RepComplex([q2, q2], [{v: [[Fraction(1)]] for v in q2.dims}]),
            RepComplex([build_simple((1,), vs2), q2], [{}]),
        ]
        for lam, mu, scale in [((2, 1), (1,), 3), ((3, 1), (2,), -1),
                               ((2, 2), (2,), 1)]:
            src, dst = build_injective(lam, vs4), build_injective(mu, vs4)
            phi = {v: [[scale]] for v in src.dims if v in dst.dims}
            complexes.append(RepComplex([src, dst], [phi]))
        for cx in complexes:
            assert complex_cohomology(cx) == complex_cohomology_all_vertices(cx)
        assert any(len(h) > 1 for h in complex_cohomology(complexes[-1]))

    def test_no_matrix_product_is_made(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("matrix product")

        monkeypatch.setattr(linalg, "mat_mul", refuse)
        for lam in partitions_up_to(7):
            cohom = complex_cohomology(realize_bgg(lam))
            assert cohom[0] == {lam: 1} and not any(cohom[1:]), lam
        # vertices outside every summand's support carry nothing
        for lam in [(1,), (2, 1), (3, 1, 1), (2, 2, 1, 1)]:
            vs = VertexSet.up_to_size(size(lam) + 1)
            cohom = complex_cohomology(realize_bgg(lam, vs))
            assert cohom[0] == {lam: 1} and not any(cohom[1:]), lam

    def test_benchmark_operations_read_no_removal_or_pair_list(self):
        # by construction: quiver has no corner removal and no pair list;
        # up_to_size adds boxes, and hom_space, socle, injective_sum and
        # realize_bgg walk `up` on the support
        for lam in partitions_up_to(7):
            vs = VertexSet.up_to_size(size(lam))
            q = build_injective(lam, vs)
            assert socle(q) == {lam: 1}, lam
            for mu in vs.vertices:
                want = int(is_strip(lam, mu, HS))
                assert hom_space(q, build_injective(mu, vs))[0] == want, (lam, mu)
            cohom = complex_cohomology(realize_bgg(lam))
            assert cohom[0] == {lam: 1} and not any(cohom[1:]), lam

    def test_table_check_refuses_exactly_when_the_constructor_does(
        self, monkeypatch
    ):
        # one sign of the resolution is flipped, dropped or doubled, or the
        # down-set of one summand, or of one summand in each of two terms,
        # loses a vertex below its top or gains one outside it; the table
        # check must refuse exactly when the constructor does, with the
        # same message (the first failing term's, when two terms break
        # their relations), and otherwise store the same terms and maps
        rng = random.Random(14)
        lams = [lam for lam in partitions_up_to(6) if lam]
        resolution, supports = [], {}
        monkeypatch.setattr(quiver, "bgg_resolution", lambda lam: resolution[0])
        monkeypatch.setattr(quiver, "down_set",
                            lambda lam: supports.get(lam) or down_set(lam))
        verdicts, two_terms = Counter(), Counter()
        for _ in range(1200):
            lam = rng.choice(lams)
            res = bgg_resolution(lam)
            vs = VertexSet.up_to_size(size(lam) + rng.randint(0, 1))
            signs, supports = dict(res.signs), {}
            kind = rng.choice(["flip", "drop", "double", "support", "two supports"])
            if kind in ("support", "two supports"):
                if kind == "support":
                    damaged = [rng.choice([mu for term in res.terms for mu in term])]
                else:
                    damaged = [rng.choice(term) for term in rng.sample(res.terms, 2)]
                for nu in damaged:
                    down = down_set(nu)
                    outside = [v for v in vs.vertices if v not in down]
                    if len(down) > 1 and (not outside or rng.random() < 0.5):
                        down.remove(rng.choice(down[1:]))
                    else:
                        down.append(rng.choice(outside))
                    supports[nu] = down
            else:
                pair = rng.choice(sorted(signs))
                if kind == "drop":
                    del signs[pair]
                else:
                    signs[pair] *= -1 if kind == "flip" else 2
            resolution[:] = [InjResolution(res.top, res.terms, signs)]
            try:
                want = realize_bgg_by_constructor(lam, vs)
            except (NotAComplexError, RelationError) as exc:
                with pytest.raises(type(exc)) as got:
                    realize_bgg(lam, vs)
                assert str(got.value) == str(exc), (lam, kind)
                verdicts[str(exc).split(" ")[0]] += 1
                two_terms[type(exc).__name__] += kind == "two supports"
            else:
                cx = realize_bgg(lam, vs)
                assert cx.reps == want.reps, (lam, kind)
                assert cx.maps == want.maps, (lam, kind)
                verdicts["accepted"] += 1
        # "nonzero" is a term's relation check refusing a support, on both
        # routes
        assert verdicts.keys() == {"accepted", "map", "composite", "nonzero"}
        assert min(verdicts[k] for k in ("accepted", "map", "composite")) > 40, verdicts
        assert two_terms["RelationError"] > 40, two_terms

    def test_non_complex_rejected(self):
        vs = VertexSet.up_to_size(2)
        q2 = build_injective((2,), vs)
        q1 = build_injective((1,), vs)
        q0 = build_injective((), vs)
        f = {v: [[Fraction(1)]] for v in q2.dims if v in q1.dims}
        g = {v: [[Fraction(1)]] for v in q1.dims if v in q0.dims}
        with pytest.raises(NotAComplexError):
            RepComplex([q2, q1, q0], [f, g])

    def test_terms_on_two_vertex_sets_rejected(self):
        q1 = build_injective((1,), VertexSet.up_to_size(2))
        q0 = build_injective((), VertexSet.up_to_size(3))
        with pytest.raises(VertexSetMismatchError):
            RepComplex([q1, q0], [{}])

    def test_equality(self):
        vs = VertexSet.up_to_size(3)
        assert realize_bgg((2, 1), vs) == realize_bgg((2, 1), vs)
        assert realize_bgg((2, 1), vs) != realize_bgg((1, 1, 1), vs)
        assert realize_bgg((2, 1), vs) != realize_bgg((1, 1), vs)  # as many terms
        assert realize_bgg((2, 1), vs) != realize_bgg((2, 1), vs).reps


class TestContractibility:
    def test_examples(self):
        assert tau_contractibility_check(VertexSet.up_to_size(0))
        assert tau_contractibility_check(VertexSet.up_to_size(6))

    def test_every_truncation_up_to_size_7(self):
        for n in range(8):
            assert tau_contractibility_check(VertexSet.up_to_size(n)), n
