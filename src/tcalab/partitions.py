"""Integer partitions and strip/border-strip combinatorics.

A partition is a canonical tuple of weakly decreasing positive integers;
the empty tuple () is the empty partition.  Everything downstream (symmetric
group characters, K-theory bases, local cohomology tables) is indexed by
partitions, and the two strip relations

    HS: lam/mu is a horizontal strip  (at most one box per column),
    VS: lam/mu is a vertical strip    (at most one box per row),

drive all of it.  `is_strip` tests either relation row by row.  A
horizontal-strip removal is an interlacing sequence mu_i in
[lam_{i+1}, lam_i] (Macdonald, I.5): `down_set` is the one enumeration,
the product of those ranges, and `corner_removals` lists the one-box
removals.  A vertical-strip removal takes a bottom run of rows from each
block of equal parts, so it is a vector of row-block counts;
`vertical_strips` is the one enumeration of them, and `bgg_resolution`
reads the injective resolution of a simple, terms and signs, off it.

Border strips are handled through first-column hook lengths (beta
numbers).  Rim hooks (`symchar`), the aligned border strips and the
rho-shifted sort are one step, `_move_betas`: move beta numbers of one
shape, each on its own, sort again and count the numbers passed.

All functions are pure and all values immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]

HS = "HS"
VS = "VS"


class PartitionError(ValueError):
    """Raised when input does not describe a valid partition."""


def partition(parts) -> Partition:
    """Canonicalize an iterable of parts: strip zeros, validate monotonicity."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise PartitionError(f"parts must be positive, got {x}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise PartitionError(f"parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse the CLI syntax: comma-separated parts; '' or '0' is empty."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise PartitionError(f"cannot parse partition {text!r}") from exc
    return partition(parts)


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def size(p: Partition) -> int:
    return sum(p)


def transpose(p: Partition) -> Partition:
    """Conjugate partition: column lengths of the diagram."""
    if not p:
        return ()
    cols = [0] * p[0]
    for row in p:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """Containment of diagrams: inner_i <= outer_i for all rows."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def multiplicities(p: Partition) -> dict[int, int]:
    """Map part value i to its multiplicity m_i."""
    m: dict[int, int] = {}
    for x in p:
        m[x] = m.get(x, 0) + 1
    return m


def aut_factor(p: Partition) -> int:
    """The product of m_i! over the part multiplicities (written lam!)."""
    out = 1
    for c in multiplicities(p).values():
        out *= factorial(c)
    return out


# ---------------------------------------------------------------------------
# Enumeration


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, lexicographically descending."""
    return list(_partitions_of(n))


@lru_cache(maxsize=None)
def _partitions_cached(n: int) -> tuple[Partition, ...]:
    return tuple(_partitions_of(n))


def _partitions_of(n: int, cap: int | None = None) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    if cap is None:
        cap = n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of size 0..n, ordered by size then lex descending."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(_partitions_cached(k))
    return out


# ---------------------------------------------------------------------------
# Horizontal and vertical strips


def is_strip(lam: Partition, mu: Partition, kind: str) -> bool:
    """True iff mu is contained in lam and lam/mu is a strip of the kind."""
    if kind == VS:
        # at most one box per row: lam_i - mu_i <= 1
        padded = mu + (0,) * (len(lam) - len(mu))
        return contains(lam, mu) and all(x - y <= 1 for x, y in zip(lam, padded))
    if kind != HS:
        raise ValueError(f"kind must be 'HS' or 'VS', got {kind!r}")
    if not contains(lam, mu):
        return False
    # interleaving: lam_i >= mu_i >= lam_{i+1}
    for i in range(len(lam)):
        mu_i = mu[i] if i < len(mu) else 0
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if not (lam[i] >= mu_i >= nxt):
            return False
    return True


def vertical_strips(lam: Partition) -> list[tuple[tuple[int, ...], Partition]]:
    """Every vertical-strip removal from lam as a pair (c, mu): mu takes one
    box from each of the bottom c_k rows of the k-th block of equal parts
    (blocks by descending part, 0 <= c_k <= m_k), so |lam/mu| = sum(c).
    Ordered by sum(c), then mu descending, which is the product order of
    c within one size: a larger c_k at the first difference leaves mu smaller."""
    blocks = list(multiplicities(lam).items())  # (k, m_k), k descending
    out = []
    for c in product(*(range(m + 1) for _, m in blocks)):
        rows = [x for (k, m), ck in zip(blocks, c)
                for x in (k,) * (m - ck) + (k - 1,) * ck]
        out.append((c, tuple(x for x in rows if x)))
    return sorted(out, key=lambda cm: sum(cm[0]))


class InjResolution(NamedTuple):
    """Terms of the minimal injective resolution of a simple, with the sign
    on each single-box covering map between consecutive terms."""

    top: Partition
    terms: tuple[tuple[Partition, ...], ...]
    signs: dict[tuple[Partition, Partition], int]


def bgg_resolution(lam) -> InjResolution:
    """Term j collects the vertical-strip removals of size j; length equals
    the number of rows.  `vertical_strips` lists each removal with its
    row-block counts c, in term order.  The cover taking one more row from
    block k has sign (-1)^(rows already taken from smaller parts), which
    makes every covering square anticommute, so the induced complex of
    injectives is exact past degree zero."""
    lam = partition(lam)
    strips = vertical_strips(lam)
    shape = dict(strips)
    blocks = list(multiplicities(lam).values())
    terms: list[list[Partition]] = [[] for _ in range(len(lam) + 1)]
    signs: dict[tuple[Partition, Partition], int] = {}
    for c, mu in strips:
        terms[sum(c)].append(mu)
        # covers in term order: a row taken from a larger block is later
        for b in reversed(range(len(blocks))):
            if c[b] < blocks[b]:
                cover = c[:b] + (c[b] + 1,) + c[b + 1:]
                signs[(mu, shape[cover])] = (-1) ** sum(c[b + 1:])
    return InjResolution(lam, tuple(tuple(t) for t in terms), signs)


def down_set(lam: Partition) -> list[Partition]:
    """Every mu with lam/mu a horizontal strip, lexicographically descending
    but not grouped by size; lam must be canonical.  Such a mu is the
    interlacing mu_i in [lam_{i+1}, lam_i], where only the last row may drop
    to 0, so this is the product of those ranges, each descending."""
    rows = [range(hi, lo - 1, -1) for hi, lo in zip(lam, lam[1:] + (0,))]
    return [mu[:-1] if mu and not mu[-1] else mu for mu in product(*rows)]


def corner_removals(v: Partition) -> list[Partition]:
    """The partitions v with one corner box removed, lexicographically
    descending (bottom corner first): the one-box horizontal strips, the
    mu of `down_set(v)` with |mu| = |v| - 1."""
    out = []
    for i in range(len(v) - 1, -1, -1):
        if i + 1 == len(v) or v[i] > v[i + 1]:
            out.append(v[:i] + (v[i] - 1,) + v[i + 1:] if v[i] > 1 else v[:i])
    return out


# ---------------------------------------------------------------------------
# Hooks and dimensions


def hook_lengths(p: Partition) -> list[list[int]]:
    t = transpose(p)
    return [
        [p[i] - j + t[j] - i - 1 for j in range(p[i])]
        for i in range(len(p))
    ]


def hook_dimension(p: Partition) -> int:
    """Dimension of the symmetric group irreducible indexed by p."""
    if not p:
        return 1
    denom = 1
    for row in hook_lengths(p):
        for h in row:
            denom *= h
    return factorial(size(p)) // denom


# ---------------------------------------------------------------------------
# Prefixed shapes, aligned border strips, shifted normalization


def prefixed_to_partition(first: int, rest: Partition) -> Partition:
    if first < (rest[0] if rest else 0) or first < 0:
        raise PartitionError(f"({first}, {rest}) is not a partition")
    return partition((first,) + rest)


class BorderStripRemoval(NamedTuple):
    size: int
    height: int  # number of rows the strip occupies
    result: Partition


def _move_betas(parts, moves) -> Iterator[tuple[int, Partition] | None]:
    """For each (row, by) of moves, move the beta number parts[row] +
    (n-1-row) of the n-term sequence parts by `by` and sort again; the beta
    numbers are built once.  Yields (passed, partition), the count of other
    beta numbers passed and the partition of the sorted numbers, or None
    when the moved number goes below 0 or lands on another.  parts must be
    weakly decreasing, so its beta numbers strictly decrease."""
    n = len(parts)
    beta = [p + (n - 1 - r) for r, p in enumerate(parts)]
    for row, by in moves:
        moved = beta[row] + by
        if moved < 0 or (by and moved in beta):
            yield None
            continue
        # the numbers above the slot, the moved one too when it moves down
        slot = sum(1 for b in beta if b > moved) - (by < 0)
        others = beta[:row] + beta[row + 1:]
        others.insert(slot, moved)
        shape = (b - (n - 1 - r) for r, b in enumerate(others))
        yield abs(slot - row), tuple(x for x in shape if x)


def _move_beta(parts, row: int, by: int) -> tuple[int, Partition] | None:
    """The one move (row, by) of `_move_betas`."""
    return next(_move_betas(parts, ((row, by),)))


def aligned_border_strips(shape: Partition) -> list[BorderStripRemoval]:
    """All removable connected border strips containing the last box of the
    first row, one per realizable size, ordered by increasing size.

    These are the moves of the first (largest) beta number down by the
    strip size; the height is one more than the number of beta numbers
    passed.
    """
    if not shape:
        return []
    moves = _move_betas(shape, [(0, -s) for s in range(1, shape[0] + len(shape))])
    return [BorderStripRemoval(s, m[0] + 1, m[1]) for s, m in enumerate(moves, 1) if m]


def shifted_normalize(
    first: int, rest: Partition
) -> tuple[int, Partition] | None:
    """Sort alpha = (first, rest) under the shifted action w(alpha+rho)-rho
    with rho = (-1,-2,-3,...).

    Returns None when alpha is singular (alpha+rho has a repeated entry,
    including collisions with the infinite tail of the zero padding), else
    the pair (sign, normalized) with sign = (-1)^(inversions of w).  rest
    must be a partition (else PartitionError); then this is the move of the
    first beta number of (rest_1, rest) to first, and the inversions are
    the numbers it passes.
    """
    rest = partition(rest)
    top = rest[0] if rest else 0
    moved = _move_beta((top,) + rest, 0, first - top)
    if moved is None:
        return None
    return ((-1) ** moved[0], moved[1])
