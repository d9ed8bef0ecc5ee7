"""Sparse exact multivariate polynomials over the rationals.

An MPoly holds terms over a countable variable family x_1, x_2, ... tagged
't' or 'a'.  A term key is a sorted tuple of (index, exponent) pairs with
positive exponents; the empty key is the constant term.  Coefficients are
Fraction and zero coefficients are never stored, so equality is dict
equality.

The weighted degree deg x_i = i matches the size grading on partitions:
the monomial attached to a partition mu is prod_i t_i^{m_i(mu)} and has
weighted degree |mu|.  exp(T_0) with T_0 = sum t_i is never materialized;
identities involving it are checked under truncation by weighted degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, aut_factor, multiplicities, partitions_up_to

TermKey = tuple[tuple[int, int], ...]


def _canon_key(exps: dict[int, int]) -> TermKey:
    return tuple(sorted((i, d) for i, d in exps.items() if d != 0))


def partition_key(mu: Partition) -> TermKey:
    """Key of the monomial prod_i x_i^{m_i(mu)}."""
    return tuple(sorted(multiplicities(mu).items()))


def weighted_degree(key: TermKey) -> int:
    return sum(i * d for i, d in key)


def total_exponent(key: TermKey) -> int:
    return sum(d for _, d in key)


class MPoly:
    """Immutable sparse polynomial; arithmetic requires matching families."""

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms: dict[TermKey, Fraction] | None = None):
        if family not in ("t", "a"):
            raise ValueError(f"unknown variable family {family!r}")
        self.family = family
        self.terms = {
            k: Fraction(c) for k, c in (terms or {}).items() if c != 0
        }

    # -- constructors

    @classmethod
    def zero(cls, family: str = "t") -> "MPoly":
        return cls(family)

    @classmethod
    def const(cls, value, family: str = "t") -> "MPoly":
        return cls(family, {(): Fraction(value)})

    @classmethod
    def variable(cls, index: int, family: str = "t") -> "MPoly":
        return cls(family, {((index, 1),): Fraction(1)})

    @classmethod
    def monomial(cls, exps: dict[int, int], coeff, family: str = "t") -> "MPoly":
        return cls(family, {_canon_key(exps): Fraction(coeff)})

    @classmethod
    def of_partition(cls, mu: Partition, coeff=1, family: str = "t") -> "MPoly":
        """coeff * prod_i x_i^{m_i(mu)}."""
        return cls(family, {partition_key(mu): Fraction(coeff)})

    # -- ring structure

    def _check(self, other: "MPoly") -> None:
        if self.family != other.family:
            raise ValueError(
                f"mixed variable families {self.family!r} and {other.family!r}"
            )

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return MPoly(self.family, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.family, {k: -c for k, c in self.terms.items()})

    def scale(self, value) -> "MPoly":
        v = Fraction(value)
        return MPoly(self.family, {k: c * v for k, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out: dict[TermKey, Fraction] = {}
        for k1, c1 in self.terms.items():
            e1 = dict(k1)
            for k2, c2 in other.terms.items():
                e = dict(e1)
                for i, d in k2:
                    e[i] = e.get(i, 0) + d
                k = _canon_key(e)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return MPoly(self.family, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.family == other.family
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.family, frozenset(self.terms.items())))

    # -- queries and transforms

    def degree(self) -> int:
        """Max weighted degree (deg x_i = i); zero polynomial has degree 0."""
        return max((weighted_degree(k) for k in self.terms), default=0)

    def coefficient(self, exps: dict[int, int]) -> Fraction:
        return self.terms.get(_canon_key(exps), Fraction(0))

    def truncate(self, bound: int) -> "MPoly":
        return MPoly(
            self.family,
            {k: c for k, c in self.terms.items() if weighted_degree(k) <= bound},
        )

    def negate_variables(self) -> "MPoly":
        """Substitute x_i -> -x_i for every i."""
        return MPoly(
            self.family,
            {k: c * (-1) ** total_exponent(k) for k, c in self.terms.items()},
        )

    def partial(self, index: int) -> "MPoly":
        """Formal partial derivative with respect to x_index."""
        out: dict[TermKey, Fraction] = {}
        for k, c in self.terms.items():
            e = dict(k)
            d = e.get(index, 0)
            if d == 0:
                continue
            if d == 1:
                del e[index]
            else:
                e[index] = d - 1
            nk = _canon_key(e)
            out[nk] = out.get(nk, Fraction(0)) + c * d
        return MPoly(self.family, out)

    def evaluate(self, values: dict[int, Fraction | int]) -> Fraction:
        """Evaluate with unlisted variables set to zero.  Each coefficient is
        multiplied by the product of its powers, an integer when the values
        are integers."""
        total = Fraction(0)
        for k, c in self.terms.items():
            v = 1
            for i, d in k:
                base = values.get(i, 0)
                if not base:
                    break
                v *= base**d
            else:
                total += c * v
        return total

    def restrict_to_first(self) -> tuple[Fraction, ...]:
        """Set x_i = 0 for i >= 2; coefficients of the univariate result,
        degree ascending."""
        coeffs: dict[int, Fraction] = {}
        for k, c in self.terms.items():
            if any(i >= 2 for i, _ in k):
                continue
            d = k[0][1] if k else 0
            coeffs[d] = coeffs.get(d, Fraction(0)) + c
        coeffs = {d: c for d, c in coeffs.items() if c != 0}
        if not coeffs:
            return ()
        top = max(coeffs)
        return tuple(coeffs.get(d, Fraction(0)) for d in range(top + 1))

    # -- presentation

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(
            self.terms.items(), key=lambda kv: (weighted_degree(kv[0]), kv[0])
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k, c in self.sorted_terms():
            mono = "*".join(
                f"{self.family}{i}" + (f"^{d}" if d > 1 else "") for i, d in k
            )
            coeff = str(c)
            bits.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> list[dict]:
        return [
            {
                "exponents": {str(i): d for i, d in k},
                "num": c.numerator,
                "den": c.denominator,
            }
            for k, c in self.sorted_terms()
        ]


@lru_cache(maxsize=None)
def exp_t0_truncated(bound: int) -> MPoly:
    """exp(T_0) truncated at weighted degree bound: sum over partitions mu
    of size <= bound of t^mu / mu!."""
    return MPoly("t", {
        partition_key(mu): Fraction(1, aut_factor(mu)) for mu in partitions_up_to(bound)
    })


def mul_truncated(a: MPoly, b: MPoly, bound: int) -> MPoly:
    return (a * b).truncate(bound)
