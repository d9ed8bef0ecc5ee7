"""Homological invariants: local cohomology of the tail submodules, depth,
resolution shapes, regularity, Poincare series, and the Fourier transform
on classes.  The injective resolutions of simples are vertical-strip
combinatorics and live in `partitions`.

Local cohomology of the tail module with first row at least D follows the
aligned-border-strip rule on the prefixed shape (D, lam): the strip height
gives the cohomological degree and the leftover partition the answer as a
plain object of the semisimple category; each row lists its leftovers
ascending, and the first, the smallest, generates it as a module.  Depth
is the multiplicity of D in (D, lam) and is cross-checked against both the
first nonvanishing cohomology row and the stable row-count statistic,
which the linear tail of a resolution shape gives in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import InternalError
from .hilbert import enhanced_of_class, enhanced_sum, negate_variables
from .ktheory import AClass, signed_transpose
from .partitions import (
    Partition,
    aligned_border_strips,
    hook_dimension,
    partition,
    prefixed_to_partition,
    size,
)
from .symchar import Combination, VClass


class InvalidDError(ValueError):
    """Truncation degree below the first part of the partition."""


class UnstableError(ValueError):
    """A stabilized value was requested but cannot be certified."""


# ---------------------------------------------------------------------------
# Local cohomology and depth of tail modules


class LocalCohomologyTable(NamedTuple):
    """Rows i >= 1 of local cohomology as objects of the semisimple
    category, each listed ascending; its first entry generates the row as a
    module."""

    rows: dict[int, tuple[Partition, ...]]

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
    return LocalCohomologyTable({i: tuple(reversed(entries)) for i, entries in rows.items()})


def depth(lam, D: int) -> int | float:
    """Multiplicity of D in the prefixed shape (D, lam).  The degenerate
    shape (0, empty) is the whole ring, which is projective: infinite."""
    lam = partition(lam)
    if D < (lam[0] if lam else 0):
        raise InvalidDError(f"need D >= {lam[0] if lam else 0}, got {D}")
    if D == 0 and not lam:
        return math.inf
    return 1 + sum(1 for x in lam if x == D)


def q_from_local_cohomology(lam, D: int) -> Combination:
    """Alternating sum over rows of the enhanced series of their entries;
    the q-part of the enhanced series of the tail module, in the
    divided-power basis D."""
    table = local_cohomology(lam, D)
    return enhanced_sum(
        (nu, (-1) ** i) for i, entries in table.rows.items() for nu in entries
    )


# ---------------------------------------------------------------------------
# Resolution shapes


class FreeResShape(NamedTuple):
    """Generators of a minimal free resolution by homological degree:
    explicit[i] in degree i, then, unless tail is None, the eventually
    linear tail from degree len(explicit) on, where each generator gains one
    box at the bottom of the first column per step."""

    explicit: tuple[tuple[Partition, ...], ...]
    tail: tuple[Partition, ...] | None = None

    def generators_at(self, i: int) -> tuple[Partition, ...]:
        steps = i - len(self.explicit)
        if steps < 0:
            return self.explicit[i]
        if self.tail is None:
            return ()
        return tuple(p + (1,) * steps for p in self.tail)


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
    explicit = tuple((efw_shape(alpha, e, i),) for i in range(cut + 1))
    return FreeResShape(explicit, (efw_shape(alpha, e, cut + 1),))


def syzygy_shape_ln(n: int, D: int, bound: int) -> FreeResShape:
    """Minimal free resolution shape of the tail module of the one-row
    partition (n) truncated at D > n: two generators per positive degree."""
    if not (D > n >= 1):
        raise InvalidDError(f"need D > n >= 1, got D={D}, n={n}")

    def gens(i: int) -> tuple[Partition, ...]:
        if i == 0:
            return (partition((D, n)),)
        return (partition((D, n) + (1,) * i), partition((D, n + 1) + (1,) * (i - 1)))

    cut = max(bound, 0)
    return FreeResShape(tuple(gens(i) for i in range(cut + 1)), gens(cut + 1))


def regularity(shape: FreeResShape) -> int:
    """Largest (generator degree - homological degree) over the shape,
    certified stable: the tail keeps strands constant, and without a tail
    the last two explicit strand values must agree."""
    strands = [
        max(map(size, gens)) - i for i, gens in enumerate(shape.explicit) if gens
    ]
    if not strands:
        raise UnstableError("shape has no generators")
    if shape.tail is not None:
        if not shape.tail:
            raise UnstableError("a tail with no shapes never stabilizes")
        tail_strand = max(map(size, shape.tail)) - len(shape.explicit)
        if shape.explicit[-1] and strands[-1] != tail_strand:
            raise UnstableError("strand value jumps at the tail boundary")
        strands.append(tail_strand)
    elif len(strands) >= 2 and strands[-1] != strands[-2]:
        raise UnstableError("no stabilization detectable in explicit range")
    return max(strands)


def depth_from_resolution(shape: FreeResShape) -> int | float:
    """Stable value of the row statistic m - (largest homological degree
    whose generators fit in m rows).  In degree len(explicit) + k a tail
    shape s has len(s) + k rows, so once m reaches the fewest rows L of a
    tail shape that degree is m - L + len(explicit), and the statistic stays
    L - len(explicit).  A shape with no tail and no generators past degree
    zero is projective: infinite depth."""
    if shape.tail is None:
        if any(shape.explicit[1:]):
            raise UnstableError("finite positive-length shapes cannot stabilize")
        return math.inf
    if not shape.tail:
        raise UnstableError("a tail with no shapes never stabilizes")
    return min(map(len, shape.tail)) - len(shape.explicit)


# ---------------------------------------------------------------------------
# Poincare series


def poincare_truncated(shape: FreeResShape, bound: int) -> dict[tuple[int, int], int]:
    """The series for d <= bound, as the nonzero int coefficient on
    t^d q^n / d! at each key (d, n): (-1)^n times the sum of dims of the
    degree-d generators in homological degree n.  Past the tail start
    every generator gains one box per degree, so no degree after `last`
    reaches the bound."""
    last = len(shape.explicit) - 1
    if shape.tail is not None:
        smallest = min((size(p) for p in shape.tail), default=bound + 1)
        last = max(last, len(shape.explicit) + bound - smallest)
    coeffs: dict[tuple[int, int], int] = {}
    for n in range(last + 1):
        for g in shape.generators_at(n):
            d = size(g)
            if d <= bound:
                c = hook_dimension(g)
                coeffs[(d, n)] = coeffs.get((d, n), 0) + (-c if n & 1 else c)
    return {k: c for k, c in coeffs.items() if c}


def closed_form_m0e(e: int, bound: int) -> dict[tuple[int, int], int]:
    """Truncated expansion of the closed form for the quotient by the e-th
    power of the maximal ideal: an exponential part with Laurent prefactor
    plus a Laurent polynomial f with f(t, 1) = 0, which is reconstructed
    and asserted on the truncation.  Every coefficient is the int on
    t^d q^n / d!: the series has (-1)^{n+e-1} C(n-1, e-1) on t^n q^{n-e+1}
    for n >= e, besides the constant 1."""
    if e < 1:
        raise ValueError("e must be a positive integer")
    coeffs = {(0, 0): 1}
    for n in range(e, bound + 1):
        coeffs[(n, n - e + 1)] = (-1) ** (n + e - 1) * math.comb(n - 1, e - 1)

    # exponential part: (sum_{i<e} t^{e-1-i} q^{-i}/(e-1-i)!) e^{-qt}, whose
    # term at i and k is (-1)^k C(d, k) on t^d q^{k-i} / d!, d = e-1-i+k
    expo: dict[tuple[int, int], int] = {}
    for i in range(e):
        for k in range(bound + 1):
            d = e - 1 - i + k
            if d > bound:
                continue
            key = (d, k - i)
            expo[key] = expo.get(key, 0) + (-1) ** k * math.comb(d, k)
    f = {key: coeffs.get(key, 0) - expo.get(key, 0) for key in coeffs.keys() | expo}
    if any(c and d >= e for (d, _), c in f.items()):
        raise InternalError("Laurent remainder exceeds its degree bound")
    if any(sum(c for (d, _), c in f.items() if d == k) for k in range(e)):
        raise InternalError("Laurent remainder does not vanish at q = 1")
    return coeffs


# ---------------------------------------------------------------------------
# Fourier transform


def fourier_class(x: AClass) -> AClass:
    """Ungraded Euler shadow of the transform: homological shifts become
    signs (-1)^{|lam|}."""
    return AClass(
        VClass(signed_transpose(x.projective)), VClass(signed_transpose(x.torsion))
    )


def fourier_hilbert_check(x: AClass) -> bool:
    """Verify that the transform swaps the p and q parts of the enhanced
    series H = exp(T0) p + q up to t -> -t: p_F(t) = q(-t) and
    q_F(t) = p(-t), exactly.  The assembled identity
    H(t) = p_F(-t) + exp(T0) q_F(-t) follows from the swap by substituting
    it, so it is not checked again.  Both sides stay in the divided-power
    basis D, where t -> -t is the sign (-1)^len(mu) on the term at mu."""
    s = enhanced_of_class(x)
    fs = enhanced_of_class(fourier_class(x))
    return fs.p == negate_variables(s.q) and fs.q == negate_variables(s.p)
