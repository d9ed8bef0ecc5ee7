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
representation's `dims` and an injective sum's `where` table hold only the
vertices of its support, in vertex order, and `QuiverRep.dim(v)` reads 0
off it; an arrow matrix or a map block that is not stored is the zero map.
Constructors refuse a key that is not a vertex in canonical form, check the
shape and the entries of every block and drop the zero dimensions and
blocks, and a product of blocks that vanishes is again absent, so no zero
matrix is built to stand for a missing one.

Two builders are certified on tables instead of by matrix products.
Every sum of indecomposable injectives, a single one included, comes from
`injective_sum`, which also says where each summand sits in the basis and
checks the relations on those summand tables; every other representation
is checked by `QuiverRep.validate`.  `realize_bgg` builds the resolution's
maps from those tables and the resolution's signs and checks the morphism
and d^2 = 0 conditions on them; every other complex is checked by the
`RepComplex` constructor.  Which summands sit at a vertex is held as one
int per vertex, bit b set when the vertex lies below summand b, so a
composite of arrows is an `&` of masks and two paths agree when their
masks are equal; the checks still visit every two-box path and every
covering pair from the support, so they are as complete as the matrix
products they replace.  The strip sets come from `partitions`: the
support of the injective at lam, its horizontal-strip down-set, from
`down_set(lam)`, and the resolution's terms and signs from
`bgg_resolution`.  `VertexSet.up_to_size`, the one way to build a vertex
set, lists the arrows by adding boxes, one size layer at a time.  The
builders and the checks walk `up` from the support only.

This module machine-checks what the rest of the package computes by
formula: hom dimensions between injectives, socles, and exactness of the
injective resolutions of simples.
"""

from __future__ import annotations

from fractions import Fraction
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

    def dim(self, v) -> int:
        return self.dims.get(partition(v), 0)

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


def _injective_tables(
    lams, vs: VertexSet
) -> tuple[QuiverRep, dict[Partition, dict[int, int]], dict[Partition, int]]:
    """`injective_sum`'s representation and `where` table, and the summand
    masks they are read off: mask[v] has bit b set when v lies below
    lams[b], and lists the support in vertex order."""
    downs = []
    for lam in lams:
        lam = partition(lam)
        if lam not in vs.index:
            raise VertexMissingError(f"vertex set misses {lam}")
        downs.append(down_set(lam))
    found: dict[Partition, int] = {}
    for b, down in enumerate(downs):
        bit = 1 << b
        for mu in down:
            found[mu] = found.get(mu, 0) | bit
    mask = {v: found[v] for v in sorted(found, key=vs.index.get)}
    # a summand's basis position at v is the number of summands before it
    # there, so `where` and `dims` are read off the bits in ascending order
    where: dict[Partition, dict[int, int]] = {}
    dims: dict[Partition, int] = {}
    for v, m in mask.items():
        at = where[v] = {}
        while m:
            low = m & -m
            at[low.bit_length() - 1] = len(at)
            m ^= low
        dims[v] = len(at)
    # the covering pairs in their order, restricted to the support
    arrows: dict[tuple[Partition, Partition], Matrix] = {}
    up = vs.up
    for i, mask_i in mask.items():
        paths: dict[Partition, int] = {}
        for j in up[i]:
            mask_j = mask.get(j, 0)
            common = mask_i & mask_j
            if common:
                if mask_i == mask_j and dims[i] == 1:
                    arrows[(i, j)] = [[1]]
                else:
                    at_j = where[j]
                    m = arrows[(i, j)] = linalg.zeros(dims[j], dims[i])
                    for b, col in where[i].items():
                        if b in at_j:
                            m[at_j[b]][col] = 1
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
                        raise RelationError(
                            f"nonzero composite through {j} on non-strip {(i, k)}"
                        )
                    paths[k] = via
                elif first != via:
                    raise RelationError(
                        f"composite through {j} disagrees on {(i, k)}"
                    )
    # stored as the constructor would store them, without its checks: the
    # dims are the support in vertex order, the arrows are nonzero 0/1
    # blocks of the right shapes, and the relations hold
    rep = QuiverRep.__new__(QuiverRep)
    rep.vs, rep.dims, rep.arrows = vs, dims, arrows
    return rep, where, mask


def injective_sum(
    lams, vs: VertexSet
) -> tuple[QuiverRep, dict[Partition, dict[int, int]]]:
    """The direct sum of the indecomposable injectives at lams, in order.
    The injective at lam is one-dimensional on the down-set of lam, with
    every internal covering arrow the scalar one; where[v][b] is the basis
    position at v of summand b, present when v lies below lams[b].  `where`
    and `dims` hold the union of the summands' down-sets, in vertex order.

    Which summands sit at a vertex v is kept as one int, the mask with bit
    b set when v lies below lams[b], and `where` and `dims` are read off
    it.  The local relations are checked on these masks while the arrows
    are built, not by matrix products: the composite i -> j -> k is the
    partial identity on the summands present at i, j and k, so it is fixed
    by the mask of i & j & k.  It vanishes exactly when that mask is 0,
    and two middles agree exactly when their masks are equal; every
    two-box path from the support is met, so the check is as complete as
    `QuiverRep.validate`.  The representation is then stored without it."""
    rep, where, _ = _injective_tables(lams, vs)
    return rep, where


def build_injective(lam, vs: VertexSet) -> QuiverRep:
    """Indecomposable injective at lam."""
    return injective_sum([lam], vs)[0]


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

    The complex is certified on the summand tables of `injective_sum` and
    the signs, not by matrix products.  At a covering pair (i, j) with i
    below b and j below a, the two sides of the morphism square for
    (b -> a) are the sign times [j below b] and times [i below a], so the
    map is a morphism exactly when those agree.  This is checked on the
    summand masks, one int per vertex and term: for each b at i, the mask
    T of the a with s(b, a) != 0 that sit at j must lie inside the mask of
    term t+1 at i when b sits at j, and be disjoint from it when b does
    not; every b at i and every cover j is met, so no pair (b, a) is
    skipped.  The composite at v sends b to c with the sum of
    s(b, a) s(a, c) over the middles a above v, so d^2 = 0 exactly when
    every such sum vanishes.  A failure raises the `NotAComplexError` that
    `RepComplex` would raise, with the same message and at the same first
    failure, and the complex is then stored without the constructor's
    checks."""
    lam = partition(lam)
    if vs is None:
        vs = VertexSet.up_to_size(size(lam))
    res: InjResolution = bgg_resolution(lam)
    tables = [_injective_tables(term, vs) for term in res.terms]
    wheres = [where for _, where, _ in tables]
    # signed[t][b] lists (a, s(b, a)) over the summands a of term t+1, and
    # targets[t][b] is the mask of those a
    signed = [
        [[(a, s) for a, mu in enumerate(nxt) if (s := res.signs.get((nu, mu)))]
         for nu in term]
        for term, nxt in zip(res.terms, res.terms[1:])
    ]
    targets = [[sum(1 << a for a, _ in out) for out in row] for row in signed]
    maps: list[dict[Partition, Matrix]] = []
    for t, out in enumerate(signed):
        at, to = wheres[t], wheres[t + 1]
        masks, next_masks, aim = tables[t][2], tables[t + 1][2], targets[t]
        phi: dict[Partition, Matrix] = {}
        for i, at_i in at.items():
            to_i = to.get(i, {})
            block = None
            for b, col in at_i.items():
                for a, s in out[b]:
                    row = to_i.get(a)
                    if row is not None:
                        if block is None:
                            block = phi[i] = linalg.zeros(len(to_i), len(at_i))
                        block[row][col] = s
            next_i = next_masks.get(i, 0)
            for j in vs.up[i]:
                next_j = next_masks.get(j)
                if next_j is None:
                    continue  # no summand a of term t+1 sits at j
                mask_j = masks.get(j, 0)
                for b in at_i:
                    # the a with s(b, a) != 0 that sit at j: at i they must
                    # sit exactly when b sits at j
                    hit = aim[b] & next_j
                    if hit & (~next_i if mask_j >> b & 1 else next_i):
                        raise NotAComplexError(
                            f"map {t} is not a morphism at {(i, j)}"
                        )
        maps.append(phi)
    for t in range(len(maps) - 1):
        at, mid, to = wheres[t], wheres[t + 1], wheres[t + 2]
        for v in maps[t]:
            mid_v, to_v = mid[v], to.get(v, {})
            for b in at[v]:
                composite: dict[int, int] = {}
                for a, s in signed[t][b]:
                    if a in mid_v:
                        for c, r in signed[t + 1][a]:
                            if c in to_v:
                                composite[c] = composite.get(c, 0) + s * r
                if any(composite.values()):
                    raise NotAComplexError(f"composite {t},{t+1} nonzero at {v}")
    # stored as the constructor would store them: one vs, one map between
    # consecutive terms, nonzero int blocks of the right shapes
    cx = RepComplex.__new__(RepComplex)
    cx.reps, cx.maps = [rep for rep, _, _ in tables], maps
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
