"""Independent brute-force oracles for the test suite.

Everything here recomputes library answers by the most naive route
available: cell sets for strip conditions, backtracking for standard
tableaux, explicit matrices for small symmetric group characters, and the
character-theoretic formula for products of induced representations.
These functions deliberately avoid the library code paths they are used
to check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

Cell = tuple[int, int]


def cells(p) -> set[Cell]:
    return {(r, c) for r, row in enumerate(p) for c in range(row)}


def cells_to_partition(cs: set[Cell]) -> tuple[int, ...] | None:
    if not cs:
        return ()
    rows = max(r for r, _ in cs) + 1
    counts = [0] * rows
    for r, c in cs:
        counts[r] += 1
    # must be left-justified rows in weakly decreasing order
    for r in range(rows):
        if {(r, c) for c in range(counts[r])} != {x for x in cs if x[0] == r}:
            return None
    for r in range(rows - 1):
        if counts[r] < counts[r + 1]:
            return None
    if counts[-1] == 0:
        return None
    return tuple(counts)


def sub_partitions(lam) -> list[tuple[int, ...]]:
    """All partitions contained in lam, by direct product over rows."""
    out = set()
    ranges = [range(0, lam[i] + 1) for i in range(len(lam))]
    for choice in product(*ranges):
        ok = all(choice[i] >= choice[i + 1] for i in range(len(choice) - 1))
        if ok:
            out.add(tuple(x for x in choice if x))
    return sorted(out)


def skew_is_hs(lam, mu) -> bool:
    """At most one skew cell per column, checked on cell sets."""
    sk = cells(lam) - cells(mu)
    if not cells(mu) <= cells(lam):
        return False
    cols = [c for _, c in sk]
    return len(cols) == len(set(cols))


def skew_is_vs(lam, mu) -> bool:
    sk = cells(lam) - cells(mu)
    if not cells(mu) <= cells(lam):
        return False
    rows = [r for r, _ in sk]
    return len(rows) == len(set(rows))


def brute_remove_strips(lam, d, kind) -> set[tuple[int, ...]]:
    check = skew_is_hs if kind == "HS" else skew_is_vs
    return {
        mu
        for mu in sub_partitions(lam)
        if sum(lam) - sum(mu) == d and check(lam, mu)
    }


def remove_strips(lam, d, kind) -> list[tuple[int, ...]]:
    """All mu with lam/mu a strip of size d, lexicographically descending,
    by the routes `partitions` first took: for horizontal strips a
    recursion over the rows, each mu_i in [lam_{i+1}, lam_i] spending
    lam_i - mu_i boxes of the budget; for vertical strips the
    horizontal-strip removals of the transpose, transposed back."""
    from tcalab.partitions import partition, transpose

    if kind == "VS":
        return sorted((transpose(m) for m in remove_strips(transpose(lam), d, "HS")),
                      reverse=True)
    if kind != "HS":
        raise ValueError(f"kind must be 'HS' or 'VS', got {kind!r}")
    results = []

    def rec(i, budget, acc):
        if i == len(lam):
            if budget == 0:
                results.append(partition(acc))
            return
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        for mu_i in range(lam[i], nxt - 1, -1):
            spent = lam[i] - mu_i
            if spent > budget:
                break
            rec(i + 1, budget - spent, acc + [mu_i])

    rec(0, d, [])
    return sorted(results, reverse=True)


def add_strips(lam, d, kind) -> list[tuple[int, ...]]:
    """All mu with mu/lam a strip of size d, lexicographically descending,
    by the route `partitions` first took: for horizontal strips a recursion
    over len(lam) + 1 rows, each mu_i in [lam_i, mu_{i-1}] spending
    mu_i - lam_i boxes of the budget; for vertical strips the
    horizontal-strip additions to the transpose, transposed back."""
    from tcalab.partitions import partition, transpose

    if d < 0:
        raise ValueError("strip size must be nonnegative")
    if kind == "VS":
        return sorted((transpose(m) for m in add_strips(transpose(lam), d, "HS")),
                      reverse=True)
    if kind != "HS":
        raise ValueError(f"kind must be 'HS' or 'VS', got {kind!r}")
    rows = len(lam) + 1
    results = []

    def rec(i, budget, acc):
        if i == rows:
            if budget == 0:
                results.append(partition(acc))
            return
        lo = lam[i] if i < len(lam) else 0
        hi = min(lam[i - 1] if i > 0 else lo + budget, lo + budget)
        for mu_i in range(hi, lo - 1, -1):
            rec(i + 1, budget - (mu_i - lo), acc + [mu_i])

    rec(0, d, [])
    return sorted(results, reverse=True)


def pieri_sum(lam, d, kind) -> dict[tuple[int, ...], int]:
    """The Pieri rule: coefficient one on every mu with mu/lam a strip of the
    kind and size d, the product of lam with a row (HS) or a column (VS)."""
    return dict.fromkeys(add_strips(lam, d, kind), 1)


def bgg_signs_by_profile(lam) -> dict:
    """The signs of the injective resolution of the simple at lam, by the
    rule `homalg` first used: every vertical-strip removal mu of lam (from
    cell sets) has a profile, the number of rows of each part value k that
    lost a box; a cover mu -> mup that takes one more box from a row of
    value k has sign (-1)^(boxes of mu taken from part values below k)."""
    def profile(mu):
        prof = {}
        for r, k in enumerate(lam):
            if (mu[r] if r < len(mu) else 0) == k - 1:
                prof[k] = prof.get(k, 0) + 1
        return prof

    removals = [mu for d in range(len(lam) + 1)
                for mu in brute_remove_strips(lam, d, "VS")]
    signs = {}
    for mu in removals:
        for mup in removals:
            if sum(mu) - sum(mup) != 1 or not cells(mup) <= cells(mu):
                continue
            prof, profp = profile(mu), profile(mup)
            (k,) = [k for k in set(prof) | set(profp)
                    if prof.get(k, 0) != profp.get(k, 0)]
            signs[(mu, mup)] = (-1) ** sum(c for i, c in prof.items() if i < k)
    return signs


def brute_transpose(lam) -> tuple[int, ...]:
    cs = cells(lam)
    flipped = {(c, r) for r, c in cs}
    out = cells_to_partition(flipped)
    assert out is not None
    return out


def brute_standard_tableaux_count(lam) -> int:
    """Number of standard tableaux: chains of single-corner removals."""
    if sum(lam) == 0:
        return 1
    total = 0
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] - 1 >= below:
            smaller = tuple(
                x - 1 if j == i else x for j, x in enumerate(lam) if x - (j == i)
            )
            total += brute_standard_tableaux_count(smaller)
    return total


def brute_border_strips(shape, row) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (size, height, result) for connected border strips whose highest
    box is the last box of the given row, enumerated on raw cell sets."""
    if row >= len(shape):
        return []
    base = cells(shape)
    anchor = (row, shape[row] - 1)
    out = []
    for s in range(1, sum(shape) + 1):
        found = []
        for combo in _connected_subsets(base, anchor, s):
            if min(r for r, _ in combo) < row:
                continue
            rest = base - combo
            res = cells_to_partition(rest) if rest else ()
            if res is None:
                continue
            if _has_2x2(combo):
                continue
            height = len({r for r, _ in combo})
            found.append((s, height, res))
        assert len(found) <= 1, f"strip of size {s} from row {row} not unique on {shape}"
        out.extend(found)
    return out


def brute_aligned_strips(shape) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (size, height, result) for connected border strips containing the
    last box of the first row: the row-0 case of `brute_border_strips`."""
    return brute_border_strips(shape, 0)


def _move_one_beta(parts, row: int, by: int):
    """Move the beta number parts[row] + (n-1-row) of the n-term sequence
    parts by `by` and sort again.  Returns (passed, partition): how many of
    the other beta numbers the moved one passed, and the partition of the
    sorted numbers; None when the moved number goes below 0 or lands on
    another.  parts must be weakly decreasing: its beta numbers then
    strictly decrease, so one pass finds the slot and the count."""
    n = len(parts)
    beta = [p + (n - 1 - r) for r, p in enumerate(parts)]
    moved = beta.pop(row) + by
    slot = sum(1 for b in beta if b > moved)
    if moved < 0 or (slot < len(beta) and beta[slot] == moved):
        return None
    beta.insert(slot, moved)
    out = (b - (n - 1 - r) for r, b in enumerate(beta))
    return abs(slot - row), tuple(x for x in out if x)


def rim_hooks_by_move_beta(lam, s):
    """`symchar._rim_hook_removals` as one beta move per row, each move
    building all the beta numbers of lam again: (result, height) for the
    rim hooks of size s, by the row of their highest box."""
    moves = (_move_one_beta(lam, row, -s) for row in range(len(lam) if s > 0 else 0))
    return tuple((m[1], m[0] + 1) for m in moves if m is not None)


def _has_2x2(cs: set[Cell]) -> bool:
    return any(
        {(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cs for r, c in cs
    )


def border_strip_component_count(outer, inner) -> int:
    """Number of connected components of the skew shape outer/inner, which
    must be a border strip (contain no 2x2 square), by a flood fill of its
    cells.  Raises PartitionError when inner is not inside outer or the
    shape has a 2x2 square."""
    from tcalab.partitions import PartitionError

    if not cells(inner) <= cells(outer):
        raise PartitionError("inner must be contained in outer")
    skew = cells(outer) - cells(inner)
    if _has_2x2(skew):
        raise PartitionError("skew shape contains a 2x2 square")
    comps = 0
    seen: set[Cell] = set()
    for cell in skew:
        if cell in seen:
            continue
        comps += 1
        stack = [cell]
        while stack:
            r, c = stack.pop()
            if (r, c) in seen:
                continue
            seen.add((r, c))
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in skew and nb not in seen:
                    stack.append(nb)
    return comps


def _connected_subsets(base: set[Cell], anchor: Cell, s: int):
    """All connected subsets of base of size s containing anchor."""
    results: set[frozenset] = set()

    def neighbors(cell: Cell):
        r, c = cell
        return [(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)]

    def extend(current: frozenset, frontier: set[Cell]):
        if len(current) == s:
            results.add(current)
            return
        for nb in sorted(frontier):
            extend(current | {nb}, {
                x
                for x in (frontier | set(neighbors(nb))) - current - {nb}
                if x in base
            })

    if anchor in base:
        extend(frozenset([anchor]), {x for x in neighbors(anchor) if x in base})
    return [set(r) for r in results]


def stable_dimension_poly(mu) -> tuple[Fraction, ...]:
    """Coefficients (degree-ascending) of the polynomial in N whose value is
    the dimension of the irreducible indexed by (mu_1+1, ..., mu_l+1, 1^N).

    Degree is |mu|.  From the hook length formula: the hooks of the first
    column are N + j for j = 1..l+|mu| except the offsets l + mu_i - i, and
    the other hooks are those of mu, counted on cells."""
    l, n = len(mu), sum(mu)
    skip = {l + mu[i] - i for i in range(l)}
    poly = [Fraction(1)]
    for j in range(1, l + n + 1):
        if j in skip:
            continue
        # multiply by (N + j)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] += c * j
            nxt[k + 1] += c
        poly = nxt
    cs = cells(mu)
    denom = 1
    for r, c in cs:
        arm = sum(1 for x in cs if x[0] == r and x[1] > c)
        leg = sum(1 for x in cs if x[1] == c and x[0] > r)
        denom *= arm + leg + 1
    return tuple(c / denom for c in poly)


def eval_poly(coeffs, x) -> Fraction:
    """Horner evaluation of degree-ascending coefficients at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def brute_shifted_sort(alpha: tuple[int, ...], padding: int):
    """rho-shifted sorting with an explicit long zero pad; the pad length is
    a parameter so tests can confirm stability once it is long enough."""
    seq = list(alpha) + [0] * padding
    shifted = [seq[i] - (i + 1) for i in range(len(seq))]
    if len(set(shifted)) < len(shifted):
        return None
    inv = sum(
        1
        for i in range(len(shifted))
        for j in range(i + 1, len(shifted))
        if shifted[i] < shifted[j]
    )
    ordered = sorted(shifted, reverse=True)
    parts = [ordered[i] + (i + 1) for i in range(len(ordered))]
    if any(x < 0 for x in parts):
        return None
    return ((-1) ** inv, tuple(x for x in parts if x))


# ---------------------------------------------------------------------------
# Small symmetric group data


def s3_class_traces() -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Character table of S3 from explicit matrices of the standard
    representation and the two linear ones."""
    perms = [
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1),
    ]

    def cycle_type(p):
        seen = [False] * 3
        lens = []
        for i in range(3):
            if seen[i]:
                continue
            j, n = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                n += 1
            lens.append(n)
        return tuple(sorted(lens, reverse=True))

    def standard_trace(p):
        # permutation matrix trace minus one (quotient by the fixed vector)
        return sum(1 for i in range(3) if p[i] == i) - 1

    def sign(p):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s

    table: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
        (3,): {}, (2, 1): {}, (1, 1, 1): {},
    }
    for p in perms:
        ct = cycle_type(p)
        table[(3,)][ct] = 1
        table[(1, 1, 1)][ct] = sign(p)
        table[(2, 1)][ct] = standard_trace(p)
    return table


def merge_cycle_types(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b, reverse=True))


def centralizer_order(mu: tuple[int, ...]) -> int:
    from math import factorial

    z = 1
    mult: dict[int, int] = {}
    for x in mu:
        mult[x] = mult.get(x, 0) + 1
    for i, c in mult.items():
        z *= i**c * factorial(c)
    return z


def brute_lr_via_characters(lam, mu, nu, trace_fn) -> int:
    """LR coefficient as the inner product of the induced product character
    with the target character; trace_fn supplies character values (tested
    independently against explicit matrices and orthogonality)."""
    from tcalab.partitions import partitions_of

    n = sum(nu)
    if n != sum(lam) + sum(mu):
        return 0
    total = Fraction(0)
    for alpha in partitions_of(sum(lam)):
        xl = trace_fn(alpha, lam)
        if xl == 0:
            continue
        for beta in partitions_of(sum(mu)):
            xm = trace_fn(beta, mu)
            if xm == 0:
                continue
            merged = merge_cycle_types(alpha, beta)
            total += (
                Fraction(xl, centralizer_order(alpha))
                * Fraction(xm, centralizer_order(beta))
                * trace_fn(merged, nu)
            )
    assert total.denominator == 1
    return int(total)


def _mat_mul(a, b, rows: int, inner: int, cols: int):
    return [
        [sum(a[r][m] * b[m][c] for m in range(inner)) for c in range(cols)]
        for r in range(rows)
    ]


def global_relations_hold(vertices, dims, arrows) -> bool:
    """The quiver relations checked globally: for every pair i, k with
    nonzero dimensions and i contained in k, the composite through each
    middle j with j/i and k/j horizontal strips equals the long arrow i -> k
    when k/i is a horizontal strip, and vanishes when it is not.  The long
    arrow is composed along one chain of single boxes.  `arrows` maps
    one-box pairs (i, j) to dims[j] x dims[i] matrices, absent ones are zero,
    and every product takes its shape from `dims`, so a path through a
    zero-dimensional vertex keeps its shape.  This is the O(V^3) scan the
    library's local validator replaced."""
    vertices = list(vertices)

    def d(v):
        return dims.get(v, 0)

    def cover(i, j):
        m = arrows.get((i, j))
        return m if m is not None else [[0] * d(i) for _ in range(d(j))]

    memo = {}

    def arrow(i, k):
        if i == k:
            return [[int(r == c) for c in range(d(i))] for r in range(d(i))]
        if (i, k) not in memo:
            j = next(
                j for j in vertices
                if len(cells(j) - cells(i)) == 1
                and skew_is_hs(j, i)
                and skew_is_hs(k, j)
            )
            memo[i, k] = _mat_mul(arrow(j, k), cover(i, j), d(k), d(j), d(i))
        return memo[i, k]

    support = [v for v in vertices if d(v)]
    for i in support:
        for k in support:
            if i == k or not cells(i) <= cells(k):
                continue
            if skew_is_hs(k, i):
                direct = arrow(i, k)
            else:
                direct = [[0] * d(i) for _ in range(d(k))]
            for j in vertices:
                if j in (i, k) or not (skew_is_hs(j, i) and skew_is_hs(k, j)):
                    continue
                via = _mat_mul(arrow(j, k), arrow(i, j), d(k), d(j), d(i))
                if via != direct:
                    return False
    return True


def vertex_set_by_remove_strips(vertices):
    """The quiver vertex set as `VertexSet` first tabulated it: canonicalise
    and sort by size, then lexicographically descending, and take each
    vertex's one-box removals from `remove_strips(v, 1, "HS")`.  Returns
    (vertices, index, up, covering pairs), or raises ValueError for the
    first vertex whose removal leaves the set."""
    from tcalab.partitions import partition, size

    vs = sorted({partition(v) for v in vertices},
                key=lambda p: (size(p), tuple(-x for x in p)))
    index = {v: i for i, v in enumerate(vs)}
    up = {v: [] for v in vs}
    for v in vs:
        for w in remove_strips(v, 1, "HS"):
            if w not in index:
                raise ValueError(f"vertex set is not downward closed: {v} needs {w}")
            up[w].append(v)
    up = {v: tuple(ws) for v, ws in up.items()}
    covers = tuple((v, w) for v in vs for w in up[v])
    return tuple(vs), index, up, covers


def sum_tables_on_supports(supports, vs):
    """The tables of a sum whose summand b is one-dimensional on the
    vertices supports[b], in that order, with the arrow between two of them
    the scalar one: each summand's basis positions, then a scan of every
    covering pair of the vertex set.  Returns (arrows, dims, where) with
    arrows in covering-pair order and every arrow entry the int 1, and dims
    and where kept, in vertex order, on the vertices of nonzero dimension."""
    where = {v: {} for v in vs.vertices}
    for b, support in enumerate(supports):
        for mu in support:
            where[mu][b] = len(where[mu])
    arrows = {}
    for (i, j) in [(i, j) for i in vs.vertices for j in vs.up[i]]:
        common = where[i].keys() & where[j].keys()
        if common:
            m = [[0] * len(where[i]) for _ in range(len(where[j]))]
            for b in common:
                m[where[j][b]][where[i][b]] = 1
            arrows[(i, j)] = m
    dims = {v: len(at) for v, at in where.items() if at}
    return arrows, dims, {v: at for v, at in where.items() if at}


def injective_sum_by_scan(lams, vs):
    """The tables of `injective_sum` as it was first built: each summand's
    support is every horizontal-strip removal from lam (on cell sets), then
    `sum_tables_on_supports`."""
    return sum_tables_on_supports(
        [[mu for d in range(sum(lam) + 1) for mu in brute_remove_strips(lam, d, "HS")]
         for lam in lams], vs)


def realize_bgg_by_constructor(lam, vs=None):
    """`realize_bgg` as it was first built: each term's tables from
    `sum_tables_on_supports`, checked by the public `QuiverRep`
    constructor, and the signed canonical maps as dense blocks placed by
    the scan's positions, checked by the `RepComplex` constructor's block
    products.  The resolution and the down-sets are read through
    `quiver.bgg_resolution` and `quiver.down_set` at call time, so a test
    that replaces them there corrupts this route and the library's
    alike."""
    from tcalab import linalg, quiver
    from tcalab.partitions import partition, size

    lam = partition(lam)
    if vs is None:
        vs = quiver.VertexSet.up_to_size(size(lam))
    res = quiver.bgg_resolution(lam)
    sums = []
    for term in res.terms:
        arrows, dims, where = sum_tables_on_supports(
            [quiver.down_set(mu) for mu in term], vs)
        sums.append((quiver.QuiverRep(vs, dims, arrows), where))
    maps = []
    for t in range(len(res.terms) - 1):
        (src, at), (dst, to) = sums[t], sums[t + 1]
        phi = {}
        for v in vs.vertices:
            for b, col in at.get(v, {}).items():
                for a, row in to.get(v, {}).items():
                    s = res.signs.get((res.terms[t][b], res.terms[t + 1][a]))
                    if s is not None:
                        if v not in phi:
                            phi[v] = linalg.zeros(
                                dst.dims.get(v, 0), src.dims.get(v, 0))
                        phi[v][row][col] = s
        maps.append(phi)
    return quiver.RepComplex([rep for rep, _ in sums], maps)


def hom_space_all_pairs(r1, r2):
    """`hom_space` as it was first built: the unknowns laid out over every
    vertex, and the commuting constraints written for every covering pair of
    the vertex set, the all-zero rows dropped."""
    from tcalab import linalg

    vs = r1.vs
    d1, d2 = r1.dims, r2.dims
    offset = {}
    n = 0
    for v in vs.vertices:
        offset[v] = n
        n += d2.get(v, 0) * d1.get(v, 0)
    rows = []
    for (i, j) in [(i, j) for i in vs.vertices for j in vs.up[i]]:
        a1 = r1.arrows.get((i, j))
        a2 = r2.arrows.get((i, j))
        # constraint: phi_j a1 - a2 phi_i = 0, entrywise
        for p in range(d2.get(j, 0)):
            for q in range(d1.get(i, 0)):
                row = [0] * n
                if a1 is not None:
                    for s in range(d1.get(j, 0)):
                        row[offset[j] + p * d1.get(j, 0) + s] += a1[s][q]
                if a2 is not None:
                    for s in range(d2.get(i, 0)):
                        row[offset[i] + s * d1.get(i, 0) + q] -= a2[p][s]
                if any(x != 0 for x in row):
                    rows.append(row)
    basis_vecs = linalg.nullspace(rows, n)
    basis = []
    for vec in basis_vecs:
        phi = {}
        for v in vs.vertices:
            if v in d2 and v in d1:
                phi[v] = [
                    [vec[offset[v] + a * d1[v] + b] for b in range(d1[v])]
                    for a in range(d2[v])
                ]
        basis.append(phi)
    return len(basis_vecs), basis


def complex_cohomology_all_vertices(cx):
    """`complex_cohomology` as it was first built: dim ker(d_t) -
    rank(d_{t-1}) evaluated at every vertex of the vertex set, zero
    dimensions included."""
    from tcalab import linalg

    vs = cx.reps[0].vs
    ranks = [{v: linalg.rank(m) for v, m in phi.items()} for phi in cx.maps]
    out = []
    for t, rep in enumerate(cx.reps):
        out_rank = ranks[t] if t < len(ranks) else {}
        in_rank = ranks[t - 1] if t > 0 else {}
        table = {}
        for v in vs.vertices:
            h = rep.dims.get(v, 0) - out_rank.get(v, 0) - in_rank.get(v, 0)
            if h:
                table[v] = h
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# Products of Fraction polynomials


def mpoly_product(a, b):
    """Product of two `MPoly`s of one family, term by term: the monomials of
    a pair of terms merge into one partition."""
    a._check(b)
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(sorted(m1 + m2, reverse=True))
            out[m] = out.get(m, 0) + c1 * c2
    return type(a)(a.basis, out)


def truncate(p, bound):
    """The terms of an `MPoly` of weighted degree at most bound."""
    return type(p)(p.basis, {mu: c for mu, c in p.terms.items() if sum(mu) <= bound})


def mul_truncated(a, b, bound):
    return truncate(mpoly_product(a, b), bound)


def exp_t0_by_fractions(bound):
    """exp(T_0) truncated at weighted degree bound as a Fraction `MPoly`:
    1 / mu! on t^mu for every partition mu of size <= bound."""
    from tcalab.partitions import aut_factor, partitions_up_to
    from tcalab.polynomials import MPoly

    return MPoly("t", {mu: Fraction(1, aut_factor(mu)) for mu in partitions_up_to(bound)})


# ---------------------------------------------------------------------------
# Character polynomials by polynomial products


def falling_factorial_poly(index: int, depth: int, family: str = "a"):
    """(x_index)_depth = x(x-1)...(x-depth+1) expanded in the monomial basis
    by repeated MPoly products."""
    from tcalab.polynomials import MPoly

    out = MPoly(family, {(): 1})
    x = MPoly.monomial({index: 1}, 1, family)
    for k in range(depth):
        out = mpoly_product(out, x - MPoly(family, {(): k}))
    return out


def umbral(p):
    """The umbral map on a t-family `MPoly`: the linear (not multiplicative)
    substitution prod t_i^{d_i} -> prod (a_i)_{d_i}, handed to
    `hilbert._umbral_ints` in ints, each c as c * den over the lcm den of
    the denominators."""
    from tcalab.hilbert import _umbral_ints

    if p.basis != "t":
        raise ValueError("umbral substitution consumes the t family")
    den = lcm(*(c.denominator for c in p.terms.values()))
    return _umbral_ints([(mu, c.numerator * (den // c.denominator))
                         for mu, c in p.terms.items()], den)


def umbral_by_products(p):
    """The umbral map prod t_i^{d_i} -> prod (a_i)_{d_i}, term by term as a
    product of falling factorial polynomials."""
    from tcalab.polynomials import MPoly

    out = MPoly("a")
    for mu, c in p.terms.items():
        term = MPoly("a", {(): c})
        for i in set(mu):
            term = mpoly_product(term, falling_factorial_poly(i, mu.count(i)))
        out = out + term
    return out


def umbral_ints_per_term(terms, den):
    """`hilbert._umbral_ints` term by term: each term's product of Stirling
    rows is built from a fresh `multiplicities` dict, one run after another,
    and no expansion is shared between terms."""
    from tcalab.hilbert import _stirling_rows
    from tcalab.partitions import multiplicities
    from tcalab.polynomials import MPoly

    # no multiplicity exceeds the number of parts
    stirling = _stirling_rows(max((len(mu) for mu, _ in terms), default=0))
    # (i, d) -> [((i,) * e, s(d, e))], shared by every term with d parts i
    factors: dict[tuple[int, int], list] = {}
    out: dict[tuple[int, ...], int] = {}
    for mu, c in terms:
        expansion = [((), c)]
        for i, d in multiplicities(mu).items():
            if (i, d) not in factors:
                factors[i, d] = [((i,) * e, s) for e, s in enumerate(stirling[d]) if s]
            expansion = [(k + f, v * s) for k, v in expansion for f, s in factors[i, d]]
        for k, v in expansion:
            out[k] = out.get(k, 0) + v
    return MPoly("a", {k: Fraction(v, den) for k, v in out.items() if v})


def char_poly_by_products(lam):
    """Character polynomial of the simple at lam as the umbral image of the
    alternating sum, over vertical-strip removals lam/mu of size d, of the
    enhanced series sum_nu chi^mu(nu) t^nu / nu!, all built from MPoly sums
    and products of Fractions."""
    from tcalab.partitions import aut_factor, partitions_of
    from tcalab.polynomials import MPoly
    from tcalab.symchar import mn_trace

    series = MPoly("t")
    for d in range(len(lam) + 1):
        for mu in remove_strips(lam, d, "VS"):
            for nu in partitions_of(sum(mu)):
                c = Fraction((-1) ** d * mn_trace(nu, mu), aut_factor(nu))
                series = series + MPoly.monomial(
                    {i: nu.count(i) for i in set(nu)}, c, "t"
                )
    return umbral_by_products(series)


def char_poly_by_fraction_series(lam):
    """`hilbert.char_poly_simple` by the Fraction t-series route: the
    integer binomial-basis sums divided by nu! into the t-series
    sum c t^nu / nu!, handed to `umbral`."""
    from tcalab.partitions import aut_factor, partitions_of, vertical_strips
    from tcalab.polynomials import MPoly
    from tcalab.symchar import mn_trace

    coeffs = {}
    for c, mu in vertical_strips(lam):
        sign = -1 if sum(c) % 2 else 1
        for nu in partitions_of(sum(mu)):
            coeffs[nu] = coeffs.get(nu, 0) + sign * mn_trace(nu, mu)
    return umbral(MPoly("t", {
        nu: Fraction(c, aut_factor(nu)) for nu, c in coeffs.items() if c
    }))


def char_poly_of_class(x):
    """Umbral image of the p-part of the enhanced series of a class, the
    character polynomial of its projective part; a reader of
    `hilbert.enhanced_of_class` on classes that are not simples."""
    from tcalab.hilbert import enhanced_of_class, series_form

    return umbral(series_form(enhanced_of_class(x).p))


def evaluate_monomials(p, values):
    """Evaluate an `MPoly` with unlisted variables set to zero; every value
    must be exact, an int (not a bool) or a Fraction.  Each monomial's
    value is multiplied out first, and only the monomials with no variable
    at zero survive.  The sum runs in integers over the lcm den of the
    survivors' denominators, each coefficient c entering as c * den, and
    becomes one Fraction(total, den) at the end; with Fraction values the
    total is a Fraction already.  It is the monomial-basis reference for
    `hilbert.eval_char_poly`."""
    for i, x in values.items():
        if type(x) is not int and type(x) is not Fraction:
            raise ValueError(f"inexact value {x!r} for {p.basis}{i}")
    get = values.get
    survivors = []
    for mu, c in p.coeffs.items():
        v = 1
        for i in mu:
            base = get(i, 0)
            if not base:
                break
            v *= base
        else:
            survivors.append((c, v))
    den = lcm(*(c.denominator for c, _ in survivors))
    total = 0
    for c, v in survivors:
        total += c.numerator * (den // c.denominator) * v
    return Fraction(total, den)


def evaluate_by_fractions(p, values):
    """`evaluate_monomials` as a Fraction sum, unlisted variables zero: each
    coefficient times the product of its variables' values, one Fraction
    multiply-add per monomial."""
    total = Fraction(0)
    for mu, c in p.terms.items():
        v = 1
        for i in mu:
            base = values.get(i, 0)
            if not base:
                break
            v *= base
        else:
            total += c * v
    return total


# ---------------------------------------------------------------------------
# Enhanced series as Fraction t-monomials


def enhanced_by_fractions(lam):
    """`hilbert.enhanced_of_simple` as a Fraction `MPoly`: the trace on each
    cycle type mu of size |lam|, through the size-checked `mn_trace`,
    divided by mu! on t^mu."""
    from tcalab.partitions import aut_factor, partitions_of
    from tcalab.polynomials import MPoly
    from tcalab.symchar import mn_trace

    return MPoly("t", {
        mu: Fraction(mn_trace(mu, lam), aut_factor(mu)) for mu in partitions_of(sum(lam))
    })


def partial_derivative(p, index):
    """Formal partial derivative of an `MPoly` with respect to x_index: a
    monomial with d parts equal to index loses one of them and is
    multiplied by d."""
    out = {}
    for mu, c in p.terms.items():
        if index in mu:
            j = mu.index(index)
            out[mu[:j] + mu[j + 1:]] = c * mu.count(index)
    return type(p)(p.basis, out)


def negate_monomials(p):
    """Substitute x_i -> -x_i for every i in an `MPoly`."""
    return type(p)(p.basis, {mu: c * (-1) ** len(mu) for mu, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Series bounds read off the enhanced series


def restrict_to_first(p):
    """Set x_i = 0 for i >= 2 in an `MPoly`; coefficients of the univariate
    result, degree ascending."""
    coeffs = {len(mu): c for mu, c in p.terms.items() if not mu or mu[0] == 1}
    if not coeffs:
        return ()
    return tuple(coeffs.get(d, Fraction(0)) for d in range(max(coeffs) + 1))


def plain_hilbert(s):
    """Set t_i = 0 for i >= 2 in an `hilbert.EnhancedSeries`: coefficient
    tuples (p0, q0) of the univariate series p0(t) e^t + q0(t), degree
    ascending, read off the t-monomials of its parts."""
    from tcalab.hilbert import series_form

    return restrict_to_first(series_form(s.p)), restrict_to_first(series_form(s.q))


def _stable_range_defect(lam) -> int:
    """|lam| + lam_1 - (multiplicity of lam_1) - 1, with 0 on the empty
    partition; bounds the top degree local cohomology can contribute."""
    if not lam:
        return 0
    return sum(lam) + lam[0] - lam.count(lam[0]) - 1


def stability_bound(x, lc_degrees=None) -> int:
    """Upper bound for deg q of a `ktheory.AClass`: the max of the
    degree-0/1 local cohomology degrees (measured values if supplied, else
    the torsion support of the class stands in for degree 0) and the
    defect over the simple constituents of the image in the quotient
    category."""
    from tcalab.ktheory import KClassK, Q_BASIS, q_to_l

    if lc_degrees is not None:
        d0, d1 = lc_degrees
    else:
        d0, d1 = x.torsion.max_size(), 0
    image = q_to_l(KClassK(Q_BASIS, dict(x.projective.coeffs)))
    defects = [_stable_range_defect(lam) for lam in image.coeffs]
    return max([d0, d1] + defects) if defects else max(d0, d1)


# ---------------------------------------------------------------------------
# Poincare series as Fractions


def poincare_fractions(series):
    """The coefficients of a `homalg.PoincareTruncation`, each int c on
    t^d q^n / d! made the Fraction c / d! on t^d q^n."""
    from math import factorial

    return {(d, n): Fraction(c, factorial(d)) for (d, n), c in series.coeffs.items()}


def poincare_by_break_conditions(shape, bound):
    """`homalg.poincare_truncated` as it was first written, in Fractions:
    walk the homological degrees until one of three break conditions holds
    (past a finite shape, past an empty tail start, or a tail degree whose
    smallest generator exceeds the bound), adding each generator's
    Fraction(+-hook_dimension(g), d!) on t^d q^n and dropping each
    coefficient as it sums to zero."""
    from math import factorial

    from tcalab.partitions import hook_dimension, size

    coeffs = {}
    n = 0
    while True:
        gens = shape.generators_at(n)
        if not gens:
            if shape.tail is None:
                if n >= len(shape.explicit):
                    break
            elif n > len(shape.explicit):
                break
            n += 1
            continue
        if min(size(g) for g in gens) > bound and (
            shape.tail is not None and n >= len(shape.explicit)
        ):
            break  # tail degrees only grow past the bound
        for g in gens:
            d = size(g)
            if d > bound:
                continue
            key = (d, n)
            c = Fraction((-1) ** n * hook_dimension(g), factorial(d))
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
            if coeffs[key] == 0:
                del coeffs[key]
        n += 1
    return coeffs


def closed_form_m0e_by_fractions(e: int, bound: int):
    """`homalg.closed_form_m0e` as it was written in Fractions: the
    coefficient of t^n q^{n-e+1} is (-1)^{e-1} / (e-1)! times
    (-1)^n (n-1)...(n-e+1) / n!, and the Laurent remainder against the
    exponential part is checked in Fractions.  Returns the Fraction
    coefficients on t^d q^n."""
    from math import factorial

    from tcalab import InternalError

    if e < 1:
        raise ValueError("e must be a positive integer")
    coeffs = {(0, 0): Fraction(1)}
    lead = Fraction((-1) ** (e - 1), factorial(e - 1))
    for n in range(e, bound + 1):
        ff = 1
        for k in range(1, e):
            ff *= n - k
        c = lead * Fraction((-1) ** n * ff, factorial(n))
        if c:
            coeffs[(n, n - e + 1)] = c

    # exponential part: (sum_{i<e} t^{e-1-i} q^{-i}/(e-1-i)!) e^{-qt}
    expo = {}
    for i in range(e):
        for k in range(bound + 1):
            d = e - 1 - i + k
            if d > bound:
                continue
            key = (d, k - i)
            c = Fraction((-1) ** k, factorial(e - 1 - i) * factorial(k))
            expo[key] = expo.get(key, Fraction(0)) + c
    f = {}
    for key in set(coeffs) | set(expo):
        c = coeffs.get(key, Fraction(0)) - expo.get(key, Fraction(0))
        if c:
            f[key] = c
    if any(d >= e for (d, _) in f):
        raise InternalError("Laurent remainder exceeds its degree bound")
    collapse = {}
    for (d, _), c in f.items():
        collapse[d] = collapse.get(d, Fraction(0)) + c
    if any(v != 0 for v in collapse.values()):
        raise InternalError("Laurent remainder does not vanish at q = 1")
    return coeffs


# ---------------------------------------------------------------------------
# Depth of a resolution shape by the row search


def depth_by_row_search(shape):
    """`homalg.depth_from_resolution` as it was first written: for m = 1, 2,
    ... find the largest homological degree whose generators fit in m rows
    and return m minus it once two consecutive values agree past the tail
    start.  A tail with no shapes fails at its `max`."""
    import math

    from tcalab.homalg import UnstableError
    from tcalab.partitions import size

    if shape.tail is None:
        if all(not gens for gens in shape.explicit[1:]):
            return math.inf
        raise UnstableError("finite positive-length shapes cannot stabilize")
    boundary = len(shape.explicit)

    def pdim_at(m):
        best = None
        i = 0
        while True:
            gens = shape.generators_at(i)
            if i > boundary and not gens:
                break
            if gens:
                if min(len(g) for g in gens) <= m:
                    best = i
                elif i > boundary:
                    break  # tail row counts only grow
            i += 1
        return best

    prev = None
    m = 1
    while m < boundary + size(max(shape.tail, key=size)) + 4:
        p = pdim_at(m)
        if p is not None:
            d = m - p
            if prev == d and p > boundary:
                return d
            prev = d
        m += 1
    raise UnstableError("row statistic did not stabilize")
