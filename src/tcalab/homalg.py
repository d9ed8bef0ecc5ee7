"""Homological invariants: local cohomology of the tail submodules, depth,
resolution shapes, regularity, Poincare series, and the Fourier transform
on classes.  The injective resolutions of simples are vertical-strip
combinatorics and live in `partitions`.

Local cohomology of the tail module with first row at least D follows the
aligned-border-strip rule on the prefixed shape (D, lam): the strip height
gives the cohomological degree and the leftover partition the answer as a
plain object of the semisimple category; only the generator is recorded as
extra module data.  Depth is the multiplicity of D in (D, lam) and is
cross-checked against both the first nonvanishing cohomology row and the
stabilized row-count statistic of a resolution shape.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import InternalError
from .hilbert import enhanced_of_class, enhanced_sum
from .ktheory import AClass, signed_transpose
from .partitions import (
    Partition,
    aligned_border_strips,
    hook_dimension,
    partition,
    prefixed_to_partition,
    size,
)
from .polynomials import MPoly, exp_t0_truncated, mul_truncated
from .symchar import VClass


class InvalidDError(ValueError):
    """Truncation degree below the first part of the partition."""


class UnstableError(ValueError):
    """A stabilized value was requested but cannot be certified."""


class InsufficientShapeError(ValueError):
    """The resolution shape does not cover the requested degree range."""


# ---------------------------------------------------------------------------
# Local cohomology and depth of tail modules


class LocalCohomologyTable(NamedTuple):
    """Rows i >= 1 of local cohomology as objects of the semisimple
    category, plus the partition generating each row as a module."""

    shape: Partition  # the prefixed shape (D, lam)
    rows: dict[int, tuple[Partition, ...]]
    generator: dict[int, Partition]

    def min_nonzero(self) -> int | None:
        return min(self.rows) if self.rows else None

    def max_nonzero(self) -> int | None:
        return max(self.rows) if self.rows else None


def local_cohomology(lam, D: int) -> LocalCohomologyTable:
    """Aligned border strips of height i removed from (D, lam) populate row
    i; row 0 is empty because the tail module is torsion free."""
    lam = partition(lam)
    if D < (lam[0] if lam else 0):
        raise InvalidDError(f"need D >= {lam[0] if lam else 0}, got {D}")
    shape = prefixed_to_partition(D, lam)
    rows: dict[int, list[Partition]] = {}
    # one strip per size, ascending, so each row's leftovers arrive by
    # descending size; it lists them ascending and is generated by the
    # smallest (the largest strip)
    for strip in aligned_border_strips(shape):
        rows.setdefault(strip.height, []).append(strip.result)
    table = {i: tuple(reversed(entries)) for i, entries in rows.items()}
    generator = {i: entries[-1] for i, entries in rows.items()}
    return LocalCohomologyTable(shape, table, generator)


def depth(lam, D: int) -> int | float:
    """Multiplicity of D in the prefixed shape (D, lam).  The degenerate
    shape (0, empty) is the whole ring, which is projective: infinite."""
    lam = partition(lam)
    if D < (lam[0] if lam else 0):
        raise InvalidDError(f"need D >= {lam[0] if lam else 0}, got {D}")
    if D == 0 and not lam:
        return math.inf
    return 1 + sum(1 for x in lam if x == D)


def q_from_local_cohomology(lam, D: int) -> MPoly:
    """Alternating sum over rows of the enhanced series of their entries;
    the q-part of the enhanced series of the tail module."""
    table = local_cohomology(lam, D)
    return enhanced_sum(
        (nu, (-1) ** i) for i, entries in table.rows.items() for nu in entries
    )


# ---------------------------------------------------------------------------
# Resolution shapes


class TailRule(NamedTuple):
    """Past start, each generator gains one box at the bottom of the first
    column per homological step (so generator degree grows by exactly one)."""

    start: int
    shapes: tuple[Partition, ...]


class FreeResShape:
    """Homological-degree-indexed generator multisets of a minimal free
    resolution, with an optional eventually-linear tail rule."""

    __slots__ = ("explicit", "tail")

    def __init__(
        self, explicit: dict[int, tuple[Partition, ...]], tail: TailRule | None = None
    ):
        if not explicit:
            raise InsufficientShapeError("explicit range must be nonempty")
        idx = sorted(explicit)
        if idx != list(range(idx[0], idx[-1] + 1)) or idx[0] != 0:
            raise InsufficientShapeError("explicit indices must run 0..n")
        if tail is not None and tail.start != idx[-1] + 1:
            raise InsufficientShapeError("tail must start right after explicit range")
        self.explicit = explicit
        self.tail = tail

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeResShape)
            and self.explicit == other.explicit
            and self.tail == other.tail
        )

    def __repr__(self) -> str:
        return f"FreeResShape(explicit={self.explicit!r}, tail={self.tail!r})"

    def generators_at(self, i: int) -> tuple[Partition, ...]:
        if i in self.explicit:
            return self.explicit[i]
        if self.tail is None or i < self.tail.start:
            return ()
        steps = i - self.tail.start
        return tuple(p + (1,) * steps for p in self.tail.shapes)

    def is_finite(self) -> bool:
        return self.tail is None

    def max_explicit(self) -> int:
        return max(self.explicit)

    def to_json(self) -> dict:
        out = {
            "explicit": {
                str(i): [list(p) for p in gens]
                for i, gens in sorted(self.explicit.items())
            }
        }
        if self.tail is not None:
            out["tail"] = {
                "start": self.tail.start,
                "shapes": [list(p) for p in self.tail.shapes],
                "column": 1,  # every tail grows in the first column
            }
        return out


def efw_shape(alpha: Partition, e: int, i: int) -> Partition:
    """Generator partition in homological degree i of the standard
    resolution of the cokernel of the first-row Pieri map of jump e."""
    alpha = partition(alpha)
    if i == 0:
        return alpha
    parts = [alpha[0] + e if alpha else e]
    for j in range(2, i + 1):
        prev = alpha[j - 2] if j - 2 < len(alpha) else 0
        parts.append(prev + 1)
    parts.extend(alpha[i:])
    return partition(parts)


def efw_resolution(alpha, e: int, bound: int) -> FreeResShape:
    """Shape through homological degree bound, with the linear tail rule
    active past the row count of alpha plus one."""
    alpha = partition(alpha)
    if e < 1:
        raise ValueError("jump e must be a positive integer")
    cut = max(bound, len(alpha) + 1)
    explicit = {i: (efw_shape(alpha, e, i),) for i in range(cut + 1)}
    tail = TailRule(start=cut + 1, shapes=(efw_shape(alpha, e, cut + 1),))
    return FreeResShape(explicit, tail)


def syzygy_shape_ln(n: int, D: int, bound: int) -> FreeResShape:
    """Minimal free resolution shape of the tail module of the one-row
    partition (n) truncated at D > n: two generators per positive degree."""
    if not (D > n >= 1):
        raise InvalidDError(f"need D > n >= 1, got D={D}, n={n}")
    explicit: dict[int, tuple[Partition, ...]] = {0: (partition((D, n)),)}
    for i in range(1, bound + 1):
        explicit[i] = (
            partition((D, n) + (1,) * i),
            partition((D, n + 1) + (1,) * (i - 1)),
        )
    tail = TailRule(
        start=bound + 1,
        shapes=(
            partition((D, n) + (1,) * (bound + 1)),
            partition((D, n + 1) + (1,) * bound),
        ),
    )
    return FreeResShape(explicit, tail)


def regularity(shape: FreeResShape) -> int:
    """Largest (generator degree - homological degree) over the shape,
    certified stable: the tail keeps strands constant, and without a tail
    the last two explicit strand values must agree."""
    strands: dict[int, int] = {}
    for i in sorted(shape.explicit):
        gens = shape.explicit[i]
        if gens:
            strands[i] = max(size(g) for g in gens) - i
    if not strands:
        raise UnstableError("shape has no generators")
    if shape.tail is not None:
        first_tail = max(size(g) for g in shape.generators_at(shape.tail.start))
        strands[shape.tail.start] = first_tail - shape.tail.start
        last = shape.max_explicit()
        if shape.explicit[last] and strands[last] != strands[shape.tail.start]:
            raise UnstableError("strand value jumps at the tail boundary")
    else:
        idx = sorted(strands)
        if len(idx) >= 2 and strands[idx[-1]] != strands[idx[-2]]:
            raise UnstableError("no stabilization detectable in explicit range")
    return max(strands.values())


def depth_from_resolution(shape: FreeResShape) -> int | float:
    """Stabilized value of (rank cap m) - (largest homological degree whose
    generators fit in m rows); certified by two consecutive equal values
    past the explicit/tail boundary.  A bare degree-zero shape reports
    infinite depth."""
    if shape.is_finite():
        if shape.max_explicit() == 0 or all(
            not shape.explicit[i] for i in shape.explicit if i > 0
        ):
            return math.inf
        raise UnstableError("finite positive-length shapes cannot stabilize")

    def pdim_at(m: int) -> int | None:
        best = None
        i = 0
        while True:
            gens = shape.generators_at(i)
            if i > shape.tail.start and not gens:
                break
            if gens:
                if min(len(g) for g in gens) <= m:
                    best = i
                elif i > shape.tail.start:
                    break  # tail row counts only grow
            i += 1
        return best

    boundary = shape.tail.start
    prev = None
    m = 1
    while m < boundary + size(max(shape.tail.shapes, key=size)) + 4:
        p = pdim_at(m)
        if p is not None:
            d = m - p
            if prev == d and p > boundary:
                return d
            prev = d
        m += 1
    raise UnstableError("row statistic did not stabilize")


# ---------------------------------------------------------------------------
# Poincare series


class PoincareTruncation:
    """Exact coefficients of t^d q^n for d <= bound."""

    __slots__ = ("bound", "coeffs")

    def __init__(self, bound: int, coeffs: dict[tuple[int, int], Fraction]):
        self.bound = bound
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PoincareTruncation)
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"PoincareTruncation(bound={self.bound!r}, coeffs={self.coeffs!r})"

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def to_json(self) -> list[dict]:
        return [
            {"t": d, "q": n, "num": c.numerator, "den": c.denominator}
            for (d, n), c in self.sorted_items()
        ]


def poincare_truncated(shape: FreeResShape, bound: int) -> PoincareTruncation:
    """Coefficient of t^d q^n is (-1)^n (sum of dims of degree-d generators
    in homological degree n) / d!.  Past the tail start every generator
    gains one box per degree, so no degree after `last` reaches the bound."""
    last = shape.max_explicit()
    if shape.tail is not None:
        smallest = min((size(p) for p in shape.tail.shapes), default=bound + 1)
        last = max(last, shape.tail.start + bound - smallest)
    coeffs: dict[tuple[int, int], Fraction] = {}
    for n in range(last + 1):
        for g in shape.generators_at(n):
            d = size(g)
            if d <= bound:
                c = Fraction((-1) ** n * hook_dimension(g), factorial(d))
                coeffs[(d, n)] = coeffs.get((d, n), 0) + c
    return PoincareTruncation(bound, {k: c for k, c in coeffs.items() if c})


def closed_form_m0e(e: int, bound: int) -> PoincareTruncation:
    """Truncated expansion of the closed form for the quotient by the e-th
    power of the maximal ideal: an exponential part with Laurent prefactor
    plus a Laurent polynomial f with f(t, 1) = 0, which is reconstructed
    and asserted on the truncation."""
    if e < 1:
        raise ValueError("e must be a positive integer")
    coeffs: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    lead = Fraction((-1) ** (e - 1), factorial(e - 1))
    for n in range(e, bound + 1):
        ff = 1
        for k in range(1, e):
            ff *= n - k
        c = lead * Fraction((-1) ** n * ff, factorial(n))
        if c:
            coeffs[(n, n - e + 1)] = c
    series = PoincareTruncation(bound, coeffs)

    # exponential part: (sum_{i<e} t^{e-1-i} q^{-i}/(e-1-i)!) e^{-qt}
    expo: dict[tuple[int, int], Fraction] = {}
    for i in range(e):
        for k in range(bound + 1):
            d = e - 1 - i + k
            if d > bound:
                continue
            key = (d, k - i)
            c = Fraction((-1) ** k, factorial(e - 1 - i) * factorial(k))
            expo[key] = expo.get(key, Fraction(0)) + c
    f: dict[tuple[int, int], Fraction] = {}
    for key in set(coeffs) | set(expo):
        c = coeffs.get(key, Fraction(0)) - expo.get(key, Fraction(0))
        if c:
            f[key] = c
    if any(d >= e for (d, _) in f):
        raise InternalError("Laurent remainder exceeds its degree bound")
    collapse: dict[int, Fraction] = {}
    for (d, _), c in f.items():
        collapse[d] = collapse.get(d, Fraction(0)) + c
    if any(v != 0 for v in collapse.values()):
        raise InternalError("Laurent remainder does not vanish at q = 1")
    return series


# ---------------------------------------------------------------------------
# Fourier transform


def fourier_class(x: AClass) -> AClass:
    """Ungraded Euler shadow of the transform: homological shifts become
    signs (-1)^{|lam|}."""
    return AClass(
        VClass(signed_transpose(x.projective)), VClass(signed_transpose(x.torsion))
    )


def fourier_hilbert_check(x: AClass, bound: int) -> bool:
    """Verify that the transform swaps the p and q parts of the enhanced
    series up to t -> -t, exactly on the polynomial parts and under
    truncation for the assembled series identity."""
    s = enhanced_of_class(x)
    fs = enhanced_of_class(fourier_class(x))
    if fs.p != s.q.negate_variables() or fs.q != s.p.negate_variables():
        return False
    # assembled check: H(t) = exp(T0) H_F(-t) under truncation
    e = exp_t0_truncated(bound)
    lhs = mul_truncated(s.p, e, bound) + s.q.truncate(bound)
    fp = fs.p.negate_variables()
    fq = fs.q.negate_variables()
    # exp(T0(-t)) = exp(-T0), and exp(T0) exp(-T0) = 1
    rhs = fp.truncate(bound) + mul_truncated(fq, e, bound)
    return lhs == rhs
