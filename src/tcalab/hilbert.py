"""Enhanced Hilbert series, character polynomials, and the modification rule.

The enhanced series of a sequence of symmetric group representations
collects trace(c_mu | M) t^mu / mu! over all cycle types mu.  For a class
over the full ring this takes the closed form p(t) exp(T_0) + q(t) with p
and q honest polynomials; p carries the character polynomial through the
umbral substitution t^nu -> falling factorials in the variables a_i, and q
is the low-degree correction governed by local cohomology.

In the divided-power basis t^mu / mu! the coefficients of an enhanced
series are the integer traces themselves, so every series is kept as a
`Combination` tagged D (`enhanced_of_simple`, `enhanced_sum`,
`EnhancedSeries`) and summed in ints.  The derivative in t_1 is a re-key
there, since d/dt_1 (t^mu / mu!) is t^nu / nu! for mu = nu + (1,)
(`t1_derivative`), and t -> -t is the sign (-1)^len(mu)
(`negate_variables`).  The Fraction t-monomials c / mu! are made only for
output (`series_form`).

The umbral map sends t^nu / nu! to prod_i (a_i)_{m_i} / m_i! =
prod_i C(a_i, m_i), the binomial C(a, nu) with m_i = m_i(nu).  In that
basis a character polynomial has integer coefficients: the one of the
simple at lam carries sum (-1)^d chi^mu(nu) on C(a, nu), over the vertical
strips lam/mu of size d with |mu| = |nu|.  `char_poly_simple` keeps exactly
these sums, as a `Combination` tagged B (the binomial basis), with the
traces chi^mu(nu) read straight from the Murnaghan-Nakayama table, since
|mu| = |nu| holds by construction.  Evaluating at a class mu stays in that
basis and in ints: the value is sum c prod_i C(m_i(mu), m_i(nu)), one
`math.comb` per distinct part of nu (`eval_char_poly`).

The monomials in the a_i are made only for output (`monomial_form`), by
expanding each falling factorial (x)_d = sum_k s(d, k) x^k through the
signed Stirling numbers of the first kind.  No t-series is built: with den
the lcm of the nu!, the coefficient c on C(a, nu) enters the umbral
expansion as the integer c * den / nu!, and the only Fractions of the route
are its output monomials, one each.  The expansion of nu is its largest
run of equal parts times the expansion of the rest, and each such suffix
is expanded once per polynomial, so the many nu that end in the same shape
share it.

The modification rule evaluates a character polynomial below its stable
range by rho-shifted sorting of the prefixed sequence (N - |lam|, lam).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import TYPE_CHECKING, Iterable

from .partitions import (
    Partition,
    _partitions_cached,
    aut_factor,
    multiplicities,
    partition,
    shifted_normalize,
    size,
    vertical_strips,
)
from .polynomials import MPoly
from .symchar import Combination, _mn, mn_trace

if TYPE_CHECKING:
    from .ktheory import AClass


_REFUSAL = {"D": "enhanced series live in the divided-power basis D",
            "B": "character polynomials live in the binomial basis B"}


def _in_basis(X: Combination, basis: str) -> Combination:
    """X itself, refused with a ValueError unless it is a combination in
    the integer basis `basis`, D (divided powers) or B (binomials)."""
    if not isinstance(X, Combination) or X.basis != basis:
        raise ValueError(_REFUSAL[basis])
    return X


class EnhancedSeries:
    """The pair (p, q) of D combinations representing p * exp(T_0) + q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Combination, q: Combination):
        self.p = _in_basis(p, "D")
        self.q = _in_basis(q, "D")

    def __eq__(self, other) -> bool:
        return isinstance(other, EnhancedSeries) and self.p == other.p and self.q == other.q

    def __repr__(self) -> str:
        return f"({series_form(self.p)!r})*exp(T0) + ({series_form(self.q)!r})"


@lru_cache(maxsize=None)
def enhanced_of_simple(lam: Partition) -> Combination:
    """Enhanced series of a single simple in the divided-power basis D: the
    coefficient on mu, standing for t^mu / mu!, is the integer trace(c_mu)
    read from the MN table `_mn`, as mu runs over the partitions of |lam|.
    Homogeneous of weighted degree |lam|."""
    lam = partition(lam)
    return Combination("D", {mu: _mn(mu, lam) for mu in _partitions_cached(size(lam))})


def enhanced_sum(terms: Iterable[tuple[Partition, int]]) -> Combination:
    """Sum of c times the enhanced series of the simple at lam over the
    pairs (lam, c), accumulated in one dict of ints."""
    out: dict[Partition, int] = {}
    get = out.get
    for lam, c in terms:
        if c:
            for mu, v in enhanced_of_simple(lam).coeffs.items():
                out[mu] = get(mu, 0) + c * v
    return Combination("D", out)


def enhanced_of_class(x: AClass) -> EnhancedSeries:
    """p from the projective part, q from the torsion part."""
    return EnhancedSeries(
        enhanced_sum(x.projective.coeffs.items()), enhanced_sum(x.torsion.coeffs.items())
    )


def t1_derivative(s: Combination) -> Combination:
    """Formal partial derivative in t_1; the series-level shadow of the
    single-box branching operator.  In D it is a re-key: d/dt_1 of
    t^mu / mu! is t^nu / nu! with nu = mu less one part 1, so the
    coefficient on a mu that ends in a 1 moves unchanged to mu[:-1], and
    every other term vanishes."""
    return Combination("D", {
        mu[:-1]: c for mu, c in _in_basis(s, "D").coeffs.items() if mu and mu[-1] == 1
    })


def negate_variables(s: Combination) -> Combination:
    """The substitution t_i -> -t_i for every i, in D: the coefficient on
    mu picks up (-1)^len(mu)."""
    return Combination("D", {
        mu: -c if len(mu) & 1 else c for mu, c in _in_basis(s, "D").coeffs.items()
    })


def series_form(X: Combination) -> MPoly:
    """The t-monomials of a D combination, for output: c t^mu / mu! becomes
    the Fraction c / mu! on t^mu."""
    return MPoly("t", {
        mu: Fraction(c, aut_factor(mu)) for mu, c in _in_basis(X, "D").coeffs.items()
    })


def _stirling_rows(top: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind, row n holding s(n, k) for
    k = 0..n, so that (x)_n = sum_k s(n, k) x^k."""
    rows = [[1]]
    for n in range(top):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) - n * prev[k] for k in range(n + 2)])
    return rows


def _umbral_ints(terms: list[tuple[Partition, int]], den: int) -> MPoly:
    """Umbral image of sum (c / den) t^mu over the pairs (mu, c) of terms,
    c an int, in one pass: each (a_i)_{d_i} is expanded by the Stirling row
    s(d_i, .), every term lands in one dict of ints, and each nonzero
    output monomial gets one Fraction(v, den) at the end.  A term expands
    as its largest run (i^d) times the expansion of the rest mu[d:], and
    each such suffix is expanded once per call, the same way, so every term
    that ends in the same shape reuses it.  The run's monomial (i,) * e is
    mu[:e] and goes in front of the rest's, whose parts are smaller, so
    every key is a partition."""
    # no multiplicity exceeds the number of parts
    stirling = _stirling_rows(max((len(mu) for mu, _ in terms), default=0))
    # suffix -> its expansion [(monomial, coefficient)], for this call only
    expanded: dict[Partition, list[tuple[Partition, int]]] = {(): [((), 1)]}

    def expand(nu: Partition) -> list[tuple[Partition, int]]:
        ex = expanded.get(nu)
        if ex is None:
            d = nu.count(nu[0])
            rest = expand(nu[d:])
            ex = expanded[nu] = [(nu[:e] + k, s * v)
                                 for e, s in enumerate(stirling[d]) if s
                                 for k, v in rest]
        return ex

    out: dict[Partition, int] = {}
    get = out.get
    # a term's own expansion is summed into out as it is made, with c folded
    # into the run's Stirling numbers; only the suffixes mu[d:] are stored
    for mu, c in terms:
        d = mu.count(mu[0]) if mu else 0
        rest = expand(mu[d:])
        for e, s in enumerate(stirling[d]):
            if s:
                f, cs = mu[:e], c * s
                for k, v in rest:
                    k = f + k
                    out[k] = get(k, 0) + cs * v
    return MPoly("a", {k: Fraction(v, den) for k, v in out.items() if v})


@lru_cache(maxsize=None)
def char_poly_simple(lam: Partition) -> Combination:
    """Character polynomial of the simple at lam in the binomial basis B:
    the coefficient on nu, standing for C(a, nu) = prod_i C(a_i, m_i(nu)),
    is the integer sum of (-1)^d chi^mu(nu) over the strips lam/mu of size
    d with |mu| = |nu|, and zero sums are dropped.  The traces come from the
    MN table `_mn` directly, as nu runs over the partitions of |mu|."""
    lam = partition(lam)
    coeffs: dict[Partition, int] = {}
    for c, mu in vertical_strips(lam):
        d = sum(c)
        # nu runs over the partitions of |mu|, so the MN table is read directly
        for nu in _partitions_cached(size(mu)):
            t = _mn(nu, mu)
            coeffs[nu] = coeffs.get(nu, 0) + (-t if d & 1 else t)
    return Combination("B", coeffs)


def monomial_form(X: Combination) -> MPoly:
    """The monomials in the variables a_i of a B combination: the umbral
    image of sum c t^nu / nu!.  Over the lcm den of the nu!, the ints
    c * den / nu! go straight to the umbral expansion, which expands each
    suffix of the nu once and makes the Fractions of the output."""
    auts = {nu: aut_factor(nu) for nu in _in_basis(X, "B").coeffs}
    den = lcm(*auts.values())
    return _umbral_ints([(nu, c * (den // auts[nu])) for nu, c in X.coeffs.items()], den)


def eval_char_poly(X: Combination, mu: Partition) -> int:
    """Value of the B combination X at a_i = m_i(mu): the int sum of
    c * prod_i C(m_i(mu), m_i(nu)) over its terms c C(a, nu).  A term whose
    nu has more parts i than mu adds nothing."""
    get = multiplicities(partition(mu)).get
    total = 0
    for nu, c in _in_basis(X, "B").coeffs.items():
        for i, k in multiplicities(nu).items():
            c *= comb(get(i, 0), k)
            if not c:
                break
        else:
            total += c
    return total


def modification(lam: Partition, n_boxes: int) -> tuple[int, Partition] | None:
    """Below-threshold evaluation data for the character polynomial at
    classes of size n_boxes: None when the value is identically zero,
    otherwise (sign, target) with the trace taken on the target shape."""
    lam = partition(lam)
    return shifted_normalize(n_boxes - size(lam), lam)


def character_value(lam: Partition, mu: Partition) -> int:
    """Value of the character polynomial of the simple at lam on the class
    mu, computed through the modification rule (valid in all degrees)."""
    lam, mu = partition(lam), partition(mu)
    result = modification(lam, size(mu))
    if result is None:
        return 0
    sign, target = result
    return sign * mn_trace(mu, target)

