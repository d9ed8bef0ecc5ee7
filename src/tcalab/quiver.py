"""Finite-dimensional verification model: representations of the partition
quiver with arrows along horizontal-strip containments and trivial-cocycle
relations.

A vertex set is a finite, downward-closed family of partitions under the
relation mu <= lam iff lam/mu is a horizontal strip, which the vertex set
tabulates once at construction.  A representation stores exact rational
matrices on covering arrows only (one added box); longer arrows are
recovered by composition, and a validator enforces the relations, so hom
spaces, socles, and complex cohomology are honest linear algebra over the
rationals.

This module machine-checks what the rest of the package computes by
formula: hom dimensions between injectives, socles, exactness of the
injective resolutions of simples, and kernel/cokernel constituents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .homalg import InjResolution, bgg_resolution
from .linalg import Matrix
from .partitions import (
    HS,
    Partition,
    contains,
    partition,
    partitions_up_to,
    size,
    strips_below,
)


class VertexMissingError(ValueError):
    pass


class TruncationTooSmallError(ValueError):
    pass


class VertexSetMismatchError(ValueError):
    pass


class NotAComplexError(ValueError):
    pass


class ZeroMapError(ValueError):
    pass


class NotHSError(ValueError):
    pass


class RelationError(ValueError):
    """A stored representation violates the quiver relations."""


class VertexSet:
    """Finite downward-closed set of partitions, validated at construction,
    with the quiver order tabulated once: `below[v]` is the down-set of v
    (v included) and `up[v]` the one-box successors of v in the set."""

    __slots__ = ("vertices", "index", "below", "up", "_covers")

    def __init__(self, vertices):
        vs = sorted({partition(v) for v in vertices},
                    key=lambda p: (size(p), tuple(-x for x in p)))
        self.vertices = tuple(vs)
        self.index = {v: i for i, v in enumerate(vs)}
        self.below: dict[Partition, frozenset[Partition]] = {}
        up: dict[Partition, list[Partition]] = {v: [] for v in vs}
        for v in vs:
            strips = strips_below(v, HS)
            for d, w in strips:
                if w not in self.index:
                    raise VertexMissingError(
                        f"vertex set is not downward closed: {v} needs {w}"
                    )
                if d == 1:
                    up[w].append(v)
            self.below[v] = frozenset(w for _, w in strips)
        self.up = {v: tuple(ws) for v, ws in up.items()}
        self._covers = tuple((v, w) for v in vs for w in self.up[v])

    @classmethod
    def up_to_size(cls, n: int) -> "VertexSet":
        return cls(partitions_up_to(n))

    def __contains__(self, p) -> bool:
        return partition(p) in self.index

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def covering_pairs(self) -> tuple[tuple[Partition, Partition], ...]:
        """All (i, j) in the set with j obtained from i by adding one box."""
        return self._covers


class QuiverRep:
    """Dimension vector plus matrices on covering arrows; immutable after
    construction and checked against the relations."""

    __slots__ = ("vs", "dims", "arrows", "_arrow_cache")

    def __init__(
        self,
        vs: VertexSet,
        dims: dict[Partition, int],
        arrows: dict[tuple[Partition, Partition], Matrix],
        validate: bool = True,
    ):
        self.vs = vs
        self.dims = {v: dims.get(v, 0) for v in vs.vertices}
        self.arrows = {}
        for (i, j), m in arrows.items():
            if i not in vs.index or j not in vs.index:
                raise VertexMissingError(f"arrow endpoint missing: {(i, j)}")
            if len(m) != self.dims[j] or (m and len(m[0]) != self.dims[i]):
                raise ValueError(f"arrow {(i, j)} has wrong shape")
            if not linalg.is_zero(m):
                self.arrows[(i, j)] = m
        self._arrow_cache: dict[tuple[Partition, Partition], Matrix] = {}
        if validate:
            self.validate()

    def dim(self, v) -> int:
        return self.dims.get(partition(v), 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def cover_matrix(self, i: Partition, j: Partition) -> Matrix:
        m = self.arrows.get((i, j))
        if m is None:
            return linalg.zeros(self.dims[j], self.dims[i])
        return m

    def arrow(self, i: Partition, k: Partition) -> Matrix:
        """Matrix of the composite arrow i -> k (for i <= k), reconstructed
        through any chain of single boxes inside the strip k/i."""
        if i == k:
            return linalg.identity(self.dims[i])
        key = (i, k)
        cached = self._arrow_cache.get(key)
        if cached is not None:
            return cached
        j = next((j for j in self.vs.up[i] if j in self.vs.below[k]), None)
        if j is None:
            raise RelationError(f"no covering step from {i} to {k}")
        m = linalg.mat_mul(self.arrow(j, k), self.cover_matrix(i, j))
        self._arrow_cache[key] = m
        return m

    def validate(self) -> None:
        """Check both relation families over all triples with nonzero end
        dimensions: composites agree when the long arrow exists and vanish
        when it does not."""
        below = self.vs.below
        support = [v for v in self.vs.vertices if self.dims[v]]
        for i in support:
            for k in support:
                if i == k or not contains(k, i):
                    continue
                mids = [
                    j
                    for j in self.vs.vertices
                    if j != i and j != k and i in below[j] and j in below[k]
                ]
                if i in below[k]:
                    direct = self.arrow(i, k)
                    for j in mids:
                        via = linalg.mat_mul(self.arrow(j, k), self.arrow(i, j))
                        if via != direct:
                            raise RelationError(
                                f"composite through {j} disagrees on {(i, k)}"
                            )
                else:
                    for j in mids:
                        via = linalg.mat_mul(self.arrow(j, k), self.arrow(i, j))
                        if not linalg.is_zero(via):
                            raise RelationError(
                                f"nonzero composite through {j} on non-strip {(i, k)}"
                            )


def build_simple(lam, vs: VertexSet) -> QuiverRep:
    """One-dimensional at the vertex, zero arrows."""
    lam = partition(lam)
    if lam not in vs:
        raise VertexMissingError(f"{lam} not in vertex set")
    return QuiverRep(vs, {lam: 1}, {})


def build_injective(lam, vs: VertexSet) -> QuiverRep:
    """Indecomposable injective at lam: one-dimensional on the down-set of
    lam, with all internal covering arrows the scalar one."""
    lam = partition(lam)
    if lam not in vs.index:
        raise TruncationTooSmallError(f"vertex set misses {lam}")
    support = vs.below[lam]
    arrows = {
        (i, j): [[Fraction(1)]]
        for (i, j) in vs.covering_pairs()
        if i in support and j in support
    }
    return QuiverRep(vs, dict.fromkeys(support, 1), arrows)


def direct_sum(reps: list[QuiverRep]) -> tuple[QuiverRep, list[dict[Partition, int]]]:
    """Block direct sum; returns the sum and per-summand vertex offsets."""
    if not reps:
        raise ValueError("empty direct sum needs an explicit vertex set")
    vs = reps[0].vs
    for r in reps:
        if r.vs != vs:
            raise VertexSetMismatchError("summands live on different vertex sets")
    offsets: list[dict[Partition, int]] = []
    dims = {v: 0 for v in vs.vertices}
    for r in reps:
        offsets.append(dict(dims))
        for v in vs.vertices:
            dims[v] += r.dims[v]
    arrows: dict[tuple[Partition, Partition], Matrix] = {}
    for (i, j) in vs.covering_pairs():
        if dims[i] == 0 or dims[j] == 0:
            continue
        m = linalg.zeros(dims[j], dims[i])
        for r, off in zip(reps, offsets):
            block = r.cover_matrix(i, j)
            for a in range(r.dims[j]):
                for b in range(r.dims[i]):
                    m[off[j] + a][off[i] + b] = block[a][b]
        arrows[(i, j)] = m
    return QuiverRep(vs, dims, arrows), offsets


def hom_space(
    r1: QuiverRep, r2: QuiverRep
) -> tuple[int, list[dict[Partition, Matrix]]]:
    """Dimension and basis of the space of intertwiners r1 -> r2, solved as
    the kernel of the commuting constraints over the covering arrows."""
    if r1.vs != r2.vs:
        raise VertexSetMismatchError("hom requires a common vertex set")
    vs = r1.vs
    slots: list[tuple[Partition, int, int]] = []
    offset: dict[Partition, int] = {}
    n = 0
    for v in vs.vertices:
        offset[v] = n
        slots.extend((v, a, b) for a in range(r2.dims[v]) for b in range(r1.dims[v]))
        n += r2.dims[v] * r1.dims[v]
    rows: list[list[Fraction]] = []
    for (i, j) in vs.covering_pairs():
        a1 = r1.cover_matrix(i, j)
        a2 = r2.cover_matrix(i, j)
        # constraint: phi_j a1 - a2 phi_i = 0, entrywise
        for p in range(r2.dims[j]):
            for q in range(r1.dims[i]):
                row = [Fraction(0)] * n
                for s in range(r1.dims[j]):
                    row[offset[j] + p * r1.dims[j] + s] += a1[s][q]
                for s in range(r2.dims[i]):
                    row[offset[i] + s * r1.dims[i] + q] -= a2[p][s]
                if any(x != 0 for x in row):
                    rows.append(row)
    basis_vecs = linalg.nullspace(rows, n)
    basis = []
    for vec in basis_vecs:
        phi: dict[Partition, Matrix] = {}
        for v in vs.vertices:
            if r2.dims[v] and r1.dims[v]:
                phi[v] = [
                    [vec[offset[v] + a * r1.dims[v] + b] for b in range(r1.dims[v])]
                    for a in range(r2.dims[v])
                ]
        basis.append(phi)
    return len(basis_vecs), basis


def socle(rep: QuiverRep) -> dict[Partition, int]:
    """Multiplicity of each simple in the socle: the joint kernel of all
    outgoing arrows, computed on covering arrows."""
    out: dict[Partition, int] = {}
    for v in rep.vs.vertices:
        if rep.dims[v] == 0:
            continue
        stacked: Matrix = []
        for w in rep.vs.up[v]:
            if rep.dims[w]:
                stacked.extend(rep.cover_matrix(v, w))
        nullity = rep.dims[v] - linalg.rank(stacked)
        if nullity:
            out[v] = nullity
    return out


@dataclass
class RepComplex:
    """Consecutive representations with intertwiner matrices; construction
    verifies the morphism property and that consecutive composites vanish."""

    reps: list[QuiverRep]
    maps: list[dict[Partition, Matrix]]

    def __post_init__(self):
        if len(self.maps) != len(self.reps) - 1:
            raise NotAComplexError("need one map between consecutive terms")
        vs = self.reps[0].vs
        for r in self.reps:
            if r.vs != vs:
                raise VertexSetMismatchError("terms on different vertex sets")
        for t, phi in enumerate(self.maps):
            src, dst = self.reps[t], self.reps[t + 1]
            for (i, j) in vs.covering_pairs():
                lhs = linalg.mat_mul(self._mat(phi, dst, src, j), src.cover_matrix(i, j))
                rhs = linalg.mat_mul(dst.cover_matrix(i, j), self._mat(phi, dst, src, i))
                if lhs != rhs:
                    raise NotAComplexError(f"map {t} is not a morphism at {(i, j)}")
        for t in range(len(self.maps) - 1):
            mid, last = self.reps[t + 1], self.reps[t + 2]
            for v in vs.vertices:
                prod = linalg.mat_mul(
                    self._mat(self.maps[t + 1], last, mid, v),
                    self._mat(self.maps[t], mid, self.reps[t], v),
                )
                if not linalg.is_zero(prod):
                    raise NotAComplexError(f"composite {t},{t+1} nonzero at {v}")

    @staticmethod
    def _mat(phi: dict[Partition, Matrix], dst: QuiverRep, src: QuiverRep, v) -> Matrix:
        m = phi.get(v)
        if m is None:
            return linalg.zeros(dst.dims[v], src.dims[v])
        return m


def complex_cohomology(cx: RepComplex) -> list[dict[Partition, int]]:
    """Per-degree constituent multiplicities, vertexwise:
    dim ker(d_t) - rank(d_{t-1})."""
    vs = cx.reps[0].vs
    out: list[dict[Partition, int]] = []
    for t, rep in enumerate(cx.reps):
        table: dict[Partition, int] = {}
        for v in vs.vertices:
            d = rep.dims[v]
            if d == 0:
                continue
            out_rank = 0
            if t < len(cx.maps):
                m = RepComplex._mat(cx.maps[t], cx.reps[t + 1], rep, v)
                out_rank = linalg.rank(m)
            in_rank = 0
            if t > 0:
                m = RepComplex._mat(cx.maps[t - 1], rep, cx.reps[t - 1], v)
                in_rank = linalg.rank(m)
            h = d - out_rank - in_rank
            if h:
                table[v] = h
        out.append(table)
    return out


def realize_bgg(lam, vs: VertexSet | None = None) -> RepComplex:
    """Realize the injective resolution of the simple at lam as an explicit
    complex of quiver representations; the constructor certifies d^2 = 0."""
    lam = partition(lam)
    if vs is None:
        vs = VertexSet.up_to_size(size(lam))
    res: InjResolution = bgg_resolution(lam)
    reps: list[QuiverRep] = []
    summands: list[tuple[Partition, ...]] = []
    offsets: list[list[dict[Partition, int]]] = []
    for term in res.terms:
        blocks = [build_injective(mu, vs) for mu in term]
        if blocks:
            total, offs = direct_sum(blocks)
        else:
            total, offs = QuiverRep(vs, {}, {}), []
        reps.append(total)
        summands.append(term)
        offsets.append(offs)
    maps: list[dict[Partition, Matrix]] = []
    for t in range(len(res.terms) - 1):
        phi: dict[Partition, Matrix] = {}
        src, dst = reps[t], reps[t + 1]
        for v in vs.vertices:
            if src.dims[v] == 0 or dst.dims[v] == 0:
                continue
            m = linalg.zeros(dst.dims[v], src.dims[v])
            changed = False
            for b, mu in enumerate(summands[t]):
                for a, mup in enumerate(summands[t + 1]):
                    s = res.signs.get((mu, mup))
                    # the canonical map is one on the common down-set
                    if s is not None and v in vs.below[mu] and v in vs.below[mup]:
                        m[offsets[t + 1][a][v]][offsets[t][b][v]] = Fraction(s)
                        changed = True
            if changed:
                phi[v] = m
        maps.append(phi)
    return RepComplex(reps, maps)


def kernel_cokernel_constituents(
    lam, mu, scale: int = 1
) -> tuple[set[Partition], set[Partition]]:
    """Constituent sets of the kernel and cokernel of a nonzero map between
    the injectives at lam and mu, machine-verified by vertexwise ranks and
    checked against the down-set differences."""
    lam, mu = partition(lam), partition(mu)
    if scale == 0:
        raise ZeroMapError("the zero map has no transparent kernel data")
    vs = VertexSet.up_to_size(size(lam))
    down_lam = vs.below[lam]
    if mu not in down_lam:
        raise NotHSError(f"{lam}/{mu} is not a horizontal strip")
    down_mu = vs.below[mu]
    src = build_injective(lam, vs)
    dst = build_injective(mu, vs)
    ker: set[Partition] = set()
    coker: set[Partition] = set()
    for v in vs.vertices:
        # the scaled canonical map has rank one on the common down-set
        r = 1 if (v in down_lam and v in down_mu and src.dims[v] and dst.dims[v]) else 0
        if src.dims[v] - r:
            ker.add(v)
        if dst.dims[v] - r:
            coker.add(v)
    if ker != down_lam - down_mu or coker != down_mu - down_lam:
        raise RelationError("rank computation disagrees with down-set difference")
    return ker, coker


def tau_first_row_deletion(p: Partition) -> Partition:
    return p[1:]


def tau_contractibility_check(vs: VertexSet) -> bool:
    """Verify the two contraction conditions for the first-row deletion:
    x <= y forces tau(y) <= x, and tau iterates any vertex to empty."""
    for y in vs.vertices:
        ty = tau_first_row_deletion(y)
        for x in vs.below[y]:
            if ty not in vs.below[x]:
                return False
    for x in vs.vertices:
        p = x
        for _ in range(len(x) + 1):
            p = tau_first_row_deletion(p)
        if p != ():
            return False
    return True
