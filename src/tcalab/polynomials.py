"""Exact multivariate polynomials over the rationals, as output.

An MPoly is a `symchar.Combination` of monomials over a countable variable
family x_1, x_2, ..., tagged 't' or 'a' as its basis, with Fraction
coefficients: a Fraction is kept as given, an int (not a bool) coerced, any
other coefficient refused with a ValueError.  A monomial is a partition: mu
stands for prod_i x_i^{m_i(mu)}, where m_i(mu) counts the parts of mu equal
to i, and the empty partition is the constant term.  The weighted degree
deg x_i = i of a monomial is then |mu|.  Sums, negation, integer multiples,
equality and hashing are Combination's; exponent pairs (i, m_i) appear only
in the presentation.

MPoly is the output form of the two integer bases the computations keep:
character polynomials live in the binomial basis B
(`hilbert.eval_char_poly`) and enhanced series in the divided-power basis D
(`hilbert.t1_derivative`), and their `Fraction` monomials in a and t are
made only for output (`hilbert.monomial_form`, `hilbert.series_form`).
Nothing here multiplies, evaluates or differentiates a polynomial, and
nothing here writes JSON: `cli` encodes the `sorted_terms` of an MPoly.

exp(T_0) with T_0 = sum t_i is sum_mu t^mu / mu!, the D combination with
every coefficient 1.  Its product with a D combination p needs no
polynomial product: t^mu / mu! times t^nu / nu! is
prod_i C(m_i(rho), m_i(mu)) t^rho / rho! for rho = mu + nu, so

    (p exp(T_0))_rho = sum_mu p_mu prod_i C(m_i(rho), m_i(mu)),

which is p read as a B combination and evaluated at rho
(`hilbert.eval_char_poly`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, multiplicities, partitions_up_to, size
from .symchar import Combination


def _monomial(exps: dict[int, int]) -> Partition:
    """The partition of prod_i x_i^{exps[i]}."""
    if any(i < 1 or d < 0 for i, d in exps.items()):
        raise ValueError(f"not a monomial: {exps}")
    return tuple(i for i in sorted(exps, reverse=True) for _ in range(exps[i]))


class MPoly(Combination):
    """Immutable sparse polynomial, built and printed; sums require
    matching families."""

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
        # perfbench/spans.py meters an MPoly's terms through this name
        return self.coeffs

    @classmethod
    def monomial(cls, exps: dict[int, int], coeff, family: str = "t") -> "MPoly":
        return cls(family, {_monomial(exps): coeff})

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


@lru_cache(maxsize=None)
def exp_t0_truncated(bound: int) -> Combination:
    """exp(T_0) truncated at weighted degree bound, in the divided-power
    basis D: coefficient 1 on every partition mu of size <= bound, standing
    for t^mu / mu!."""
    return Combination("D", dict.fromkeys(partitions_up_to(bound), 1))
