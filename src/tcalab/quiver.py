"""Finite-dimensional verification model: representations of the partition
quiver, given by its local presentation.

A vertex set holds the partitions of size at most n, a family closed
under removing a box.  The quiver has one arrow for each added box, and
its relations are local: squares commute, and two boxes added in one
column compose to zero.  A representation stores matrices with integer or
`Fraction` entries on the one-box arrows and is validated against these
relations, which generate every relation between longer paths; so the
path i -> k is well defined, and vanishes unless k/i is a horizontal
strip.  Hom spaces, socles, and
complex cohomology are then honest linear algebra over the rationals.

One convention holds throughout: what is not stored is zero.  A
representation's `dims` holds only the vertices of its support, in vertex
order, so a vertex it lacks has dimension 0; an arrow matrix or a map
block that is not stored is the zero map.  Constructors refuse a key that
is not a vertex in canonical form, check the shape and the entries of
every block and drop the zero dimensions and blocks, and a product of
blocks that vanishes is again absent, so no zero matrix is built to stand
for a missing one.

Two builders are certified on summand masks instead of by matrix
products.  Which summands of a sum of injectives sit at a vertex is one
int, bit b set when the vertex lies below summand b, so a composite of
arrows is an `&` of masks, two paths agree when their masks are equal,
and a summand's basis position at a vertex is the popcount of the bits
below its own; no table of positions is kept.  Every sum of
indecomposable injectives, a single one included, comes from
`injective_sum`, which checks the local relations on its masks and reads
the representation off them; every other representation is checked by
`QuiverRep.validate`.  `realize_bgg` gives every summand of every term of
the resolution a bit of one mask table, one bit range per term, checks the
relations of all terms in one pass over the union of their supports,
reads each term and the signed maps off the table, and checks the
morphism and d^2 = 0 conditions on it and the resolution's signs; every
other complex is checked by the `RepComplex` constructor.  The checks
still visit every two-box path and every covering pair from the support,
so they are as complete as the matrix products they replace, and a
failure is reported as the per-term checks would report it.  The strip
sets come from `partitions`: the support of the injective at lam, its
horizontal-strip down-set, from `down_set(lam)`, and the resolution's
terms and signs from `bgg_resolution`.  `VertexSet.up_to_size`, the one
way to build a vertex set, lists the arrows by adding boxes, one size
layer at a time.  The builders and the checks walk `up` from the support
only.

This module machine-checks what the rest of the package computes by
formula: hom dimensions between injectives, socles, and exactness of the
injective resolutions of simples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NoReturn

from . import InternalError, linalg
from .linalg import Matrix
from .partitions import (
    HS,
    InjResolution,
    Partition,
    _partitions_cached,
    bgg_resolution,
    down_set,
    is_strip,
    partition,
    partitions_up_to,
    size,
)


class VertexMissingError(ValueError):
    pass


class VertexSetMismatchError(ValueError):
    pass


class NotAComplexError(InternalError):
    pass


class RelationError(InternalError):
    """A stored representation violates the quiver relations."""


def _block_fault(m: Matrix, rows: int, cols: int) -> str | None:
    """What keeps m from being a rows x cols matrix of exact entries, ints
    (bools excluded) or Fractions; None when nothing does."""
    if len(m) != rows:
        return "wrong shape"
    for row in m:
        if len(row) != cols:
            return "wrong shape"
        for x in row:
            if type(x) is not int and type(x) is not Fraction:
                return f"inexact entry {x!r}"
    return None


def _refuse_key(vs: VertexSet, v, what: str, missing: str) -> NoReturn:
    """Raise for a key v that is not a vertex of vs: a ValueError naming the
    canonical partition when v spells a vertex of vs otherwise (with
    trailing zeros, say), else VertexMissingError(missing)."""
    try:
        canon = partition(v)
    except (TypeError, ValueError):
        canon = None
    if canon in vs.index:
        raise ValueError(f"{what} {v}, a non-canonical key; the partition is {canon}")
    raise VertexMissingError(missing)


def _product(a: Matrix | None, b: Matrix | None) -> Matrix | None:
    """The block a b, with None standing for the zero map on either side
    and in the result."""
    if a is None or b is None:
        return None
    m = linalg.mat_mul(a, b)
    return None if linalg.is_zero(m) else m


def _two_box_is_strip(k: Partition, i: Partition) -> bool:
    """Whether k/i is a horizontal strip, for i inside k with two boxes
    between them: it is not exactly when k and i differ in two rows whose
    parts in k are equal, which puts the two boxes in one column."""
    rows = [r for r, x in enumerate(k) if r >= len(i) or i[r] != x]
    return len(rows) == 1 or k[rows[0]] != k[rows[1]]


class VertexSet:
    """The partitions of size at most n, built by `up_to_size(n)` only;
    `up[v]` holds the one-box successors of v in the set, lexicographically
    descending, which are the targets of the quiver's arrows out of v."""

    __slots__ = ("vertices", "index", "up")

    def __init__(self, *args, **kwargs):
        raise TypeError("a vertex set is built by VertexSet.up_to_size(n)")

    @classmethod
    def up_to_size(cls, n: int) -> "VertexSet":
        """All partitions of size at most n, listed size layer by size layer,
        each canonical and lexicographically descending.  The set is
        downward closed, so the covers of a vertex below size n are all its
        one-box additions: a box at the start of each run of equal rows, in
        row order, then a new row, which is lexicographically descending.
        The top layer has no covers in the set."""
        out = cls.__new__(cls)
        out.vertices = tuple(partitions_up_to(n))
        out.index = {v: i for i, v in enumerate(out.vertices)}
        out.up = up = {}
        for k in range(n):
            for v in _partitions_cached(k):
                covers = []
                prev = 0
                for r, x in enumerate(v):
                    if x != prev:
                        covers.append(v[:r] + (x + 1,) + v[r + 1:])
                        prev = x
                covers.append(v + (1,))
                up[v] = tuple(covers)
        for v in _partitions_cached(n):
            up[v] = ()
        return out

    def __contains__(self, p) -> bool:
        return partition(p) in self.index

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)


class QuiverRep:
    """Dimension vector plus matrices on covering arrows; immutable after
    construction and checked against the relations.  Zero dimensions and
    zero arrows are not stored; `dims` lists the support in vertex order."""

    __slots__ = ("vs", "dims", "arrows")

    def __init__(
        self,
        vs: VertexSet,
        dims: dict[Partition, int],
        arrows: dict[tuple[Partition, Partition], Matrix],
    ):
        for v, d in dims.items():
            if v not in vs.index:
                _refuse_key(vs, v, "dimension at", f"dimension at {v}, outside the vertex set")
            if type(d) is not int or d < 0:
                raise ValueError(f"dimension {d!r} at {v} is not a nonnegative integer")
        self.vs = vs
        self.dims = {v: dims[v] for v in sorted(dims, key=vs.index.get) if dims[v]}
        self.arrows = {}
        for (i, j), m in arrows.items():
            if i not in vs.index or j not in vs.index:
                _refuse_key(vs, j if i in vs.index else i, f"arrow {(i, j)} at endpoint",
                            f"arrow endpoint missing: {(i, j)}")
            fault = _block_fault(m, self.dims.get(j, 0), self.dims.get(i, 0))
            if fault:
                raise ValueError(f"arrow {(i, j)} has {fault}")
            if not linalg.is_zero(m):
                self.arrows[(i, j)] = m
        self.validate()

    def __eq__(self, other) -> bool:
        return isinstance(other, QuiverRep) and (
            (self.vs, self.dims, self.arrows) == (other.vs, other.dims, other.arrows))

    def validate(self) -> None:
        """Check the local relations on every two-box path i -> j -> k with
        nonzero dimension at i and k: when k/i is a horizontal strip the
        paths through its middles agree (squares commute; a horizontal
        domino has one middle), and when k/i is a vertical domino the
        composite vanishes.  Any two one-box chains through a strip are
        joined by commuting squares, and a chain through two boxes of one
        column can be reordered until they form a vertical domino, so
        these relations generate all the others."""
        dims, up, arrows = self.dims, self.vs.up, self.arrows
        for i in dims:
            paths: dict[Partition, Matrix | None] = {}
            for j in up[i]:
                a = arrows.get((i, j))
                for k in up[j]:
                    if k not in dims:
                        continue
                    via = _product(arrows.get((j, k)), a)
                    if not _two_box_is_strip(k, i):
                        if via is not None:
                            raise RelationError(
                                f"nonzero composite through {j} on non-strip {(i, k)}"
                            )
                    elif paths.setdefault(k, via) != via:
                        raise RelationError(
                            f"composite through {j} disagrees on {(i, k)}"
                        )


def build_simple(lam, vs: VertexSet) -> QuiverRep:
    """One-dimensional at the vertex, zero arrows."""
    lam = partition(lam)
    if lam not in vs:
        raise VertexMissingError(f"{lam} not in vertex set")
    return QuiverRep(vs, {lam: 1}, {})


def _summand_masks(lams, vs: VertexSet) -> dict[Partition, int]:
    """The summand masks of a sum of injectives at canonical lams: mask[v]
    has bit b set when v lies below lams[b], and lists the support, the
    union of the down-sets, in vertex order.  The first lam outside vs
    raises VertexMissingError."""
    found: dict[Partition, int] = {}
    for b, lam in enumerate(lams):
        if lam not in vs.index:
            raise VertexMissingError(f"vertex set misses {lam}")
        bit = 1 << b
        for mu in down_set(lam):
            found[mu] = found.get(mu, 0) | bit
    return {v: found[v] for v in sorted(found, key=vs.index.get)}


def _relation_fault(mask: dict[Partition, int], up) -> str | None:
    """The first local relation that the sum with summand masks `mask`
    breaks, as `QuiverRep.validate` words it; None when all hold.  The
    composite i -> j -> k is the partial identity on the summands present
    at i, j and k, so it is fixed by the mask of i & j & k: it vanishes
    exactly when that mask is 0, and two middles agree exactly when their
    masks are equal.  Every two-box path from the support is met, so the
    check is as complete as `QuiverRep.validate`, and it holds or fails
    bit by bit: summand b breaks a relation exactly when the sum of it
    alone does."""
    for i, mask_i in mask.items():
        paths: dict[Partition, int] = {}
        for j in up[i]:
            common = mask_i & mask.get(j, 0)
            for k in up[j]:
                mask_k = mask.get(k)
                if mask_k is None:
                    continue
                # 0 is the zero composite; it is kept, since a strip's
                # other middles must then be zero too
                via = common & mask_k
                first = paths.get(k)
                if first is None:
                    # a vertical domino k/i has this one middle only, so
                    # the strip test is made once for each (i, k)
                    if via and not _two_box_is_strip(k, i):
                        return f"nonzero composite through {j} on non-strip {(i, k)}"
                    paths[k] = via
                elif first != via:
                    return f"composite through {j} disagrees on {(i, k)}"
    return None


def _sum_rep(mask: dict[Partition, int], vs: VertexSet) -> QuiverRep:
    """The sum's representation read off its summand masks, each nonzero
    and in vertex order; the bits may sit at any offset.  The dimension at
    v is the popcount of mask[v], summand b's basis position there is the
    popcount of the bits below b, and the arrow i -> j is the partial
    identity on the summands at both.  Stored as the constructor would
    store it, without its checks: the dims are the support in vertex
    order and the arrows nonzero 0/1 blocks of the right shapes."""
    dims = {v: m.bit_count() for v, m in mask.items()}
    arrows: dict[tuple[Partition, Partition], Matrix] = {}
    up = vs.up
    for i, mask_i in mask.items():
        for j in up[i]:
            mask_j = mask.get(j, 0)
            common = mask_i & mask_j
            if not common:
                continue
            if mask_i == mask_j and dims[i] == 1:
                arrows[(i, j)] = [[1]]
                continue
            m = arrows[(i, j)] = linalg.zeros(dims[j], dims[i])
            while common:
                low = common & -common
                m[(mask_j & (low - 1)).bit_count()][(mask_i & (low - 1)).bit_count()] = 1
                common ^= low
    rep = QuiverRep.__new__(QuiverRep)
    rep.vs, rep.dims, rep.arrows = vs, dims, arrows
    return rep


def injective_sum(lams, vs: VertexSet) -> QuiverRep:
    """The direct sum of the indecomposable injectives at lams, in order.
    The injective at lam is one-dimensional on the down-set of lam, with
    every internal covering arrow the scalar one; summand b's basis
    position at v is the number of summands before it there, and `dims`
    holds the union of the summands' down-sets, in vertex order.

    Which summands sit at a vertex v is kept as one int, the mask with bit
    b set when v lies below lams[b]; the local relations are checked on
    these masks, not by matrix products (`_relation_fault`), and the
    representation is then read off them and stored without
    `QuiverRep.validate`."""
    mask = _summand_masks([partition(lam) for lam in lams], vs)
    fault = _relation_fault(mask, vs.up)
    if fault:
        raise RelationError(fault)
    return _sum_rep(mask, vs)


def build_injective(lam, vs: VertexSet) -> QuiverRep:
    """Indecomposable injective at lam."""
    return injective_sum([lam], vs)


def hom_space(
    r1: QuiverRep, r2: QuiverRep
) -> tuple[int, list[dict[Partition, Matrix]]]:
    """Dimension and basis of the space of intertwiners r1 -> r2, solved as
    the kernel of the commuting constraints over the covering arrows."""
    if r1.vs != r2.vs:
        raise VertexSetMismatchError("hom requires a common vertex set")
    up, d1, d2 = r1.vs.up, r1.dims, r2.dims
    # only vertices where both sides are nonzero carry unknowns, in vertex
    # order, and only arrows (i, j) with d1[i] and d2[j] nonzero give
    # constraints
    offset: dict[Partition, int] = {}
    n = 0
    for v in d1:
        if v in d2:
            offset[v] = n
            n += d2[v] * d1[v]
    rows: Matrix = []
    for i in d1:
        for j in up[i]:
            if j not in d2:
                continue
            a1 = r1.arrows.get((i, j))
            a2 = r2.arrows.get((i, j))
            # constraint: phi_j a1 - a2 phi_i = 0, entrywise
            for p in range(d2[j]):
                for q in range(d1[i]):
                    row = [0] * n
                    if a1 is not None:
                        for s in range(d1[j]):
                            row[offset[j] + p * d1[j] + s] += a1[s][q]
                    if a2 is not None:
                        for s in range(d2[i]):
                            row[offset[i] + s * d1[i] + q] -= a2[p][s]
                    if any(x != 0 for x in row):
                        rows.append(row)
    basis_vecs = linalg.nullspace(rows, n)
    basis = []
    for vec in basis_vecs:
        phi: dict[Partition, Matrix] = {}
        for v, o in offset.items():
            phi[v] = [
                [vec[o + a * d1[v] + b] for b in range(d1[v])]
                for a in range(d2[v])
            ]
        basis.append(phi)
    return len(basis_vecs), basis


def socle(rep: QuiverRep) -> dict[Partition, int]:
    """Multiplicity of each simple in the socle: the joint kernel of all
    outgoing arrows, computed on covering arrows."""
    out: dict[Partition, int] = {}
    for v, d in rep.dims.items():
        stacked: Matrix = []
        for w in rep.vs.up[v]:
            stacked.extend(rep.arrows.get((v, w), []))
        nullity = d - linalg.rank(stacked)
        if nullity:
            out[v] = nullity
    return out


class RepComplex:
    """Consecutive representations with intertwiner matrices; construction
    checks the shape of every map block, drops the zero ones, and verifies
    the morphism property and that consecutive composites vanish by block
    products.  It guards every complex but those of `realize_bgg`, which
    certifies its sign maps on the summand tables instead."""

    __slots__ = ("reps", "maps")

    def __init__(self, reps: list[QuiverRep], maps: list[dict[Partition, Matrix]]):
        if len(maps) != len(reps) - 1:
            raise NotAComplexError("need one map between consecutive terms")
        vs = reps[0].vs
        for r in reps:
            if r.vs != vs:
                raise VertexSetMismatchError("terms on different vertex sets")
        self.reps = reps
        self.maps: list[dict[Partition, Matrix]] = []
        for t, phi in enumerate(maps):
            src, dst = reps[t], reps[t + 1]
            kept: dict[Partition, Matrix] = {}
            for v, m in phi.items():
                if v not in vs.index:
                    _refuse_key(vs, v, f"map {t} has a block at",
                                f"map {t} has a block at {v}, outside the vertex set")
                fault = _block_fault(m, dst.dims.get(v, 0), src.dims.get(v, 0))
                if fault:
                    raise ValueError(f"map {t} has a block with {fault} at {v}")
                if not linalg.is_zero(m):
                    kept[v] = m
            # the covering pairs in their order from the support of src:
            # where src is zero at i, both sides of the square vanish
            for i in src.dims:
                for j in vs.up[i]:
                    if i not in kept and j not in kept:
                        continue  # both sides are the zero map
                    lhs = _product(kept.get(j), src.arrows.get((i, j)))
                    if lhs != _product(dst.arrows.get((i, j)), kept.get(i)):
                        raise NotAComplexError(
                            f"map {t} is not a morphism at {(i, j)}")
            self.maps.append(kept)
        for t in range(len(self.maps) - 1):
            for v, m in self.maps[t].items():
                if _product(self.maps[t + 1].get(v), m) is not None:
                    raise NotAComplexError(f"composite {t},{t+1} nonzero at {v}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepComplex)
            and self.reps == other.reps
            and self.maps == other.maps
        )


def complex_cohomology(cx: RepComplex) -> list[dict[Partition, int]]:
    """Per-degree constituent multiplicities, vertexwise:
    dim ker(d_t) - rank(d_{t-1}).  Every block of every map is ranked once,
    and only the support of each term is read: a map has no block off it."""
    ranks = [{v: linalg.rank(m) for v, m in phi.items()} for phi in cx.maps]
    out: list[dict[Partition, int]] = []
    for t, rep in enumerate(cx.reps):
        out_rank = ranks[t] if t < len(ranks) else {}
        in_rank = ranks[t - 1] if t > 0 else {}
        table: dict[Partition, int] = {}
        for v, d in rep.dims.items():
            h = d - out_rank.get(v, 0) - in_rank.get(v, 0)
            if h:
                table[v] = h
        out.append(table)
    return out


def realize_bgg(lam, vs: VertexSet | None = None) -> RepComplex:
    """Realize the injective resolution of the simple at lam as an explicit
    complex of quiver representations.  Map t is the signed canonical map
    between the injective sums of terms t and t+1: at v it sends summand b
    to summand a with the sign s(b, a) of the resolution, wherever v lies
    below both.

    The complex is certified on one summand-mask table and the signs, not
    by matrix products.  Every summand of every term has a bit, term t the
    range [start[t], start[t+1]), so the local relations of all terms are
    checked in one pass over the union of their supports; a bit fails
    exactly when its term's own check does, so on a failure the terms are
    checked alone, in order, and the first that fails raises what
    `injective_sum` would.  Each term's representation is read off its bit
    range, and a summand's position in a map block is the popcount of the
    lower bits of its term at that vertex.

    At a covering pair (i, j) with i below b and j below a, the two sides
    of the morphism square for (b -> a) are the sign times [j below b] and
    times [i below a], so the map is a morphism exactly when those agree:
    the targets T(b), the a with s(b, a) != 0, that sit at j must sit at i
    when b sits at j, and must not when b does not.  A union of targets
    misses a mask exactly when each member does, so the targets of the b
    at i that sit at j are ORed and tested once, and so are those of the
    b that do not; every b at i and every cover j is met, so no pair
    (b, a) is skipped.  The composite at v sends b to c with the sum of
    s(b, a) s(a, c) over the middles a above v, so d^2 = 0 exactly when
    every such sum vanishes.  The blocks and both checks are made in one
    pass over the union, which keeps the first failure of each map; the
    lowest map's is raised, morphisms before composites, so a failure
    raises the `NotAComplexError` that `RepComplex` would raise, with the
    same message and at the same first failure.  The complex is then
    stored without the constructor's checks."""
    lam = partition(lam)
    if vs is None:
        vs = VertexSet.up_to_size(size(lam))
    res: InjResolution = bgg_resolution(lam)
    summands = [mu for term in res.terms for mu in term]
    start = list(accumulate(map(len, res.terms), initial=0))
    union = _summand_masks(summands, vs)
    # each term's masks, its bits kept where they sit in the union
    span = [(1 << hi) - (1 << lo) for lo, hi in zip(start, start[1:])]
    masks = [{v: m for v, u in union.items() if (m := u & bits)} for bits in span]
    if _relation_fault(union, vs.up):
        # a bit fails exactly when its term's own check does, so some term
        # fails alone; the first one names the fault
        faults = (_relation_fault(mask, vs.up) for mask in masks)
        raise RelationError(next(fault for fault in faults if fault))
    # signed[b] lists (a, s(b, a)) over the summands a of the next term,
    # aim[b] is the mask of those a, and lower[b] the mask of the bits of
    # b's term below b, whose popcount at v is b's basis position there
    term_of = [t for t, term in enumerate(res.terms) for _ in term]
    signed: list[list[tuple[int, int]]] = [[] for _ in summands]
    for t, (term, nxt) in enumerate(zip(res.terms, res.terms[1:])):
        for b, nu in enumerate(term, start[t]):
            signed[b] = [(a, s) for a, mu in enumerate(nxt, start[t + 1])
                         if (s := res.signs.get((nu, mu)))]
    aim = [sum(1 << a for a, _ in out) for out in signed]
    lower = [(1 << b) - (1 << start[t]) for b, t in enumerate(term_of)]
    # one pass over the union: the blocks of every map at i, and the first
    # failure of each map's morphism and d^2 checks, raised below in the
    # order `RepComplex` meets them
    maps: list[dict[Partition, Matrix]] = [{} for _ in res.terms[1:]]
    unmorphic: dict[int, tuple[Partition, Partition]] = {}
    nonzero: dict[int, Partition] = {}
    every = range(len(summands))
    for i, mask_i in union.items():
        at_i = [b for b in every if mask_i >> b & 1]
        blocks: dict[int, Matrix] = {}
        for b in at_i:
            t, col = term_of[b], (mask_i & lower[b]).bit_count()
            composite: dict[int, int] = {}
            for a, s in signed[b]:
                if mask_i >> a & 1:
                    block = blocks.get(t)
                    if block is None:
                        block = blocks[t] = maps[t][i] = linalg.zeros(
                            (mask_i & span[t + 1]).bit_count(),
                            (mask_i & span[t]).bit_count())
                    block[(mask_i & lower[a]).bit_count()][col] = s
                    for c, r in signed[a]:
                        if mask_i >> c & 1:
                            composite[c] = composite.get(c, 0) + s * r
            if any(composite.values()):
                nonzero.setdefault(t, i)
        for j in vs.up[i]:
            mask_j = union.get(j)
            if mask_j is None:
                continue  # no summand sits at j
            # the targets of the b at i that sit at j must sit at i, and
            # those of the b that do not must not
            stay = leave = 0
            for b in at_i:
                if mask_j >> b & 1:
                    stay |= aim[b]
                else:
                    leave |= aim[b]
            if mask_j & (stay & ~mask_i | leave & mask_i):
                for b in at_i:
                    if aim[b] & mask_j & (~mask_i if mask_j >> b & 1 else mask_i):
                        unmorphic.setdefault(term_of[b], (i, j))
    if unmorphic:
        t = min(unmorphic)
        raise NotAComplexError(f"map {t} is not a morphism at {unmorphic[t]}")
    if nonzero:
        t = min(nonzero)
        raise NotAComplexError(f"composite {t},{t+1} nonzero at {nonzero[t]}")
    # stored as the constructor would store them: one vs, one map between
    # consecutive terms, nonzero int blocks of the right shapes
    cx = RepComplex.__new__(RepComplex)
    cx.reps, cx.maps = [_sum_rep(mask, vs) for mask in masks], maps
    return cx


def tau_contractibility_check(vs: VertexSet) -> bool:
    """Verify the two contraction conditions for the first-row deletion:
    x <= y forces tau(y) <= x, and tau iterates any vertex to empty."""
    for y in vs.vertices:
        ty = y[1:]
        for x in down_set(y):
            if not is_strip(x, ty, HS):
                return False
    for x in vs.vertices:
        p = x
        for _ in range(len(x) + 1):
            p = p[1:]
        if p != ():
            return False
    return True
