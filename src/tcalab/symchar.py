"""Symmetric group characters and Littlewood-Richardson structure constants.

Character values come from the Murnaghan-Nakayama recursion over connected
border strips (rim hooks), run on one beta list per shape and memoized.  LR
coefficients are computed by direct enumeration of lattice-word skew
semistandard tableaux; this is deliberately the slow transparent algorithm,
because these numbers serve as the oracle for everything else.

The module also holds the one arithmetic core for everything indexed by
partitions: `Combination`, a finitely supported combination tagged with its
basis.  `VClass` (simples [S_lam]) is its S-basis constructor here;
`ktheory.KClassK` (the L and Q bases) and `ktheory.AClass` build on it, and
`ktheory.k_product` is the Littlewood-Richardson product for all of them.
`polynomials.MPoly` is a Combination too, the output form of the integer
bases B and D: its basis is the variable family 't' or 'a', its monomials
are partitions and its coefficients Fractions, and it is only built, summed
and printed.  exp(T_0) is the D combination with every coefficient 1.

Everything else here is an exact integer.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    Partition,
    _move_betas,
    _partitions_cached,
    contains,
    partition,
    size,
)


class SizeMismatchError(ValueError):
    """Cycle type and shape index representations of different groups."""


class BasisMismatchError(ValueError):
    """Arithmetic attempted across two bases without conversion."""


@lru_cache(maxsize=None)
def _rim_hook_removals(lam: Partition, s: int) -> tuple[tuple[Partition, int], ...]:
    """All (result, height) for removable rim hooks of size s from lam, by
    the row of their highest box: each moves that row's beta number down by
    s, and its height is one more than the beta numbers it passes.  The
    beta numbers of lam are built once for all the rows."""
    moves = _move_betas(lam, [(row, -s) for row in range(len(lam) if s > 0 else 0)])
    return tuple((m[1], m[0] + 1) for m in moves if m is not None)


@lru_cache(maxsize=None)
def _mn(mu: Partition, lam: Partition) -> int:
    if not mu:
        return 1
    total = 0
    for result, height in _rim_hook_removals(lam, mu[0]):
        total += (-1) ** (height - 1) * _mn(mu[1:], result)
    return total


def mn_trace(mu: Partition, lam: Partition) -> int:
    """Trace of the conjugacy class of cycle type mu on the irreducible
    indexed by lam.  Requires |mu| = |lam|."""
    if size(mu) != size(lam):
        raise SizeMismatchError(f"|mu|={size(mu)} but |lam|={size(lam)}")
    return _mn(mu, lam)


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


def _skew_cells(nu: Partition, lam: Partition) -> list[tuple[int, int]]:
    """Cells of nu/lam in reading order: rows top down, right to left."""
    cells = []
    for i, row in enumerate(nu):
        lo = lam[i] if i < len(lam) else 0
        for j in range(row - 1, lo - 1, -1):
            cells.append((i, j))
    return cells


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The multiplicity c^nu_{lam,mu} counting lattice-word semistandard
    skew tableaux of shape nu/lam and content mu."""
    if size(nu) != size(lam) + size(mu):
        return 0
    if not (contains(nu, lam) and contains(nu, mu)):
        return 0
    cells = _skew_cells(nu, lam)
    k = len(mu)
    filled: dict[tuple[int, int], int] = {}
    used = [0] * (k + 1)

    def count(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        total = 0
        for v in range(1, k + 1):
            if used[v] >= mu[v - 1]:
                continue
            if v > 1 and used[v] + 1 > used[v - 1]:
                continue  # reading-word prefix must stay a lattice word
            right = filled.get((i, j + 1))
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            above = filled.get((i - 1, j))
            if above is not None and v <= above:
                continue  # columns strictly increase downwards
            filled[(i, j)] = v
            used[v] += 1
            total += count(pos + 1)
            used[v] -= 1
            del filled[(i, j)]
        return total

    return count(0)


@lru_cache(maxsize=None)
def lr_expand(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """All (nu, c^nu_{lam,mu}) with nonzero coefficient."""
    out = []
    for nu in _partitions_cached(size(lam) + size(mu)):
        if not (contains(nu, lam) and contains(nu, mu)):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# Formal integer combinations of partitions


S_BASIS = "S"


def _term_order(p: Partition):
    return (size(p), tuple(-x for x in p))


class Combination:
    """Finitely supported combination of basis elements indexed by
    partitions, tagged with the name of the basis; coefficients are
    integers (Fractions for polynomials.MPoly, the output form).  Zero
    coefficients are never stored; arithmetic across two bases raises
    BasisMismatchError."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: dict[Partition, int] | None = None):
        self.basis = basis
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c != 0}

    def _new(self, coeffs: dict[Partition, int]) -> "Combination":
        """A combination of the same type and basis, zeros dropped."""
        out = object.__new__(type(self))
        Combination.__init__(out, self.basis, coeffs)
        return out

    def _check(self, other: "Combination") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"cannot combine {self.basis}-basis with {other.basis}-basis"
            )

    def items(self) -> list[tuple[Partition, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: _term_order(kv[0]))

    def __add__(self, other: "Combination") -> "Combination":
        self._check(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return self._new(out)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __neg__(self) -> "Combination":
        return self._new({p: -c for p, c in self.coeffs.items()})

    def __rmul__(self, n: int) -> "Combination":
        return self._new({p: n * c for p, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Combination)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def format_terms(self, name: str | None = None) -> str:
        """Signed terms such as '+2L[2,1]-L[0]', named by the basis unless
        another symbol is given."""
        name = name or self.basis
        return "".join(
            f"{'+' if c >= 0 else '-'}{'' if abs(c) == 1 else abs(c)}"
            f"{name}[{','.join(map(str, p)) or '0'}]"
            for p, c in self.items()
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0" if self.basis == S_BASIS else f"0_{self.basis}"
        return self.format_terms().lstrip("+")

    def max_size(self) -> int:
        return max((size(p) for p in self.coeffs), default=0)


class VClass(Combination):
    """Integer combination of simple objects [S_lam]."""

    __slots__ = ()

    def __init__(self, coeffs: dict[Partition, int] | None = None):
        super().__init__(S_BASIS, coeffs)

    @classmethod
    def simple(cls, lam) -> "VClass":
        return cls({partition(lam): 1})
