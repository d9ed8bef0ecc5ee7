"""Sparse exact multivariate polynomials over the rationals.

An MPoly is a `symchar.Combination` of monomials over a countable variable
family x_1, x_2, ..., tagged 't' or 'a' as its basis, with Fraction
coefficients: a Fraction is kept as given, an int (not a bool) coerced, any
other coefficient refused with a ValueError.  A monomial is a partition: mu
stands for prod_i x_i^{m_i(mu)}, where m_i(mu) counts the parts of mu equal
to i, and the empty partition is the constant term.  The weighted degree
deg x_i = i of a monomial is then |mu|, its total degree is len(mu), and
the product of two monomials is the merged partition.  This matches the
size grading on partitions: the enhanced series weighs t^mu by a trace at
the cycle type mu.  Sums, negation, integer multiples, equality and hashing
are Combination's; exponent pairs (i, m_i) appear only in the presentation.
Nothing here evaluates or differentiates a polynomial.  MPoly is the output
form of the two integer bases the computations keep: character polynomials
live in the binomial basis B (`hilbert.eval_char_poly`) and enhanced series
in the divided-power basis D (`hilbert.t1_derivative`), and their `Fraction`
monomials in a and t are made only for output (`hilbert.monomial_form`,
`hilbert.series_form`).

exp(T_0) with T_0 = sum t_i is never materialized; identities involving it
are checked under truncation by weighted degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import (
    Partition,
    aut_factor,
    multiplicities,
    partitions_up_to,
    size,
)
from .symchar import Combination


def _monomial(exps: dict[int, int]) -> Partition:
    """The partition of prod_i x_i^{exps[i]}."""
    if any(i < 1 or d < 0 for i, d in exps.items()):
        raise ValueError(f"not a monomial: {exps}")
    return tuple(i for i in sorted(exps, reverse=True) for _ in range(exps[i]))


class MPoly(Combination):
    """Immutable sparse polynomial; arithmetic requires matching families."""

    __slots__ = ()

    def __init__(self, family: str, terms: dict[Partition, Fraction] | None = None):
        if family not in ("t", "a"):
            raise ValueError(f"unknown variable family {family!r}")
        self.basis = family
        self.coeffs = coeffs = {}
        for mu, c in (terms or {}).items():
            if type(c) is not Fraction:
                if type(c) is not int:
                    raise ValueError(f"inexact coefficient {c!r} on {family}^{mu}")
                c = Fraction(c)
            if c:
                coeffs[mu] = c

    @property
    def terms(self) -> dict[Partition, Fraction]:
        # perfbench/spans.py meters the terms of every product through this name
        return self.coeffs

    # -- constructors

    @classmethod
    def zero(cls, family: str = "t") -> "MPoly":
        return cls(family)

    @classmethod
    def monomial(cls, exps: dict[int, int], coeff, family: str = "t") -> "MPoly":
        return cls(family, {_monomial(exps): coeff})

    # -- ring structure beyond Combination's

    def scale(self, value) -> "MPoly":
        return Fraction(value) * self

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out: dict[Partition, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(sorted(m1 + m2, reverse=True))
                out[m] = out.get(m, 0) + c1 * c2
        return self._new(out)

    # -- queries and transforms

    # max weighted degree (deg x_i = i); the zero polynomial has degree 0
    degree = Combination.max_size

    def truncate(self, bound: int) -> "MPoly":
        return self._new({mu: c for mu, c in self.coeffs.items() if size(mu) <= bound})

    # -- presentation

    def sorted_terms(self) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
        """(exponent pairs (i, m_i) ascending in i, coefficient), ordered by
        weighted degree and then by the pairs."""
        terms = [
            (size(mu), tuple(sorted(multiplicities(mu).items())), c)
            for mu, c in self.coeffs.items()
        ]
        return [(pairs, c) for _, pairs, c in sorted(terms)]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for k, c in self.sorted_terms():
            mono = "*".join(
                f"{self.basis}{i}" + (f"^{d}" if d > 1 else "") for i, d in k
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
        mu: Fraction(1, aut_factor(mu)) for mu in partitions_up_to(bound)
    })


def mul_truncated(a: MPoly, b: MPoly, bound: int) -> MPoly:
    return (a * b).truncate(bound)
