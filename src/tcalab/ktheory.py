"""Grothendieck groups: the L and Q bases, the Euler pairing, the Fourier
involution, classes of modules over the full ring, and the derivative
calculus on classes.

K(Mod_K) has two distinguished bases: classes of simples [L_lam] and classes
of indecomposable injectives [Q_lam].  The change of basis removes
horizontal strips in one direction and signed vertical strips in the other.
Products are computed with the Littlewood-Richardson rule in either basis.

Classes over the full polynomial ring are ungraded Euler classes spanned by
simples [S_lam] (torsion) and projectives [A x S_lam]; homological shifts
are absorbed into signs.

All of these classes share the arithmetic of `symchar.Combination`: KClassK
is its L/Q-basis constructor, AClass pairs two S-basis parts, and
`k_product` is the one Littlewood-Richardson product for every basis.
"""

from __future__ import annotations

from . import InternalError
from .partitions import (
    HS,
    VS,
    Partition,
    corner_removals,
    down_set,
    is_strip,
    partition,
    size,
    transpose,
    vertical_strips,
)
from .symchar import S_BASIS, BasisMismatchError, Combination, VClass, lr_expand


class ZeroClassError(ValueError):
    """Operation undefined on the zero class."""


L_BASIS = "L"
Q_BASIS = "Q"


class KClassK(Combination):
    """Integer combination of basis classes of K(Mod_K), tagged L or Q."""

    __slots__ = ()

    def __init__(self, basis: str, coeffs: dict[Partition, int] | None = None):
        if basis not in (L_BASIS, Q_BASIS):
            raise ValueError(f"basis must be 'L' or 'Q', got {basis!r}")
        super().__init__(basis, coeffs)


def l_class(lam) -> KClassK:
    return KClassK(L_BASIS, {partition(lam): 1})


def q_class(lam) -> KClassK:
    return KClassK(Q_BASIS, {partition(lam): 1})


def q_to_l(x: KClassK) -> KClassK:
    """[Q_lam] = sum over horizontal-strip removals mu of [L_mu]."""
    if x.basis != Q_BASIS:
        raise BasisMismatchError("q_to_l expects a Q-basis class")
    out: dict[Partition, int] = {}
    for lam, c in x.coeffs.items():
        for mu in down_set(lam):
            out[mu] = out.get(mu, 0) + c
    return KClassK(L_BASIS, out)


def l_to_q(x: KClassK) -> KClassK:
    """[L_mu] = sum over vertical-strip removals nu of (-1)^{|mu|-|nu|} [Q_nu]."""
    if x.basis != L_BASIS:
        raise BasisMismatchError("l_to_q expects an L-basis class")
    out: dict[Partition, int] = {}
    for mu, a in x.coeffs.items():
        for c, nu in vertical_strips(mu):
            out[nu] = out.get(nu, 0) + (-1) ** sum(c) * a
    return KClassK(Q_BASIS, out)


def k_product(x: Combination, y: Combination) -> Combination:
    """Bilinear extension of [lam][mu] = sum of c^nu_{lam,mu} [nu]: the
    product in K(Mod_K) in either basis, and of classes of simples."""
    x._check(y)
    out: dict[Partition, int] = {}
    for lam, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            for nu, c in lr_expand(lam, mu):
                out[nu] = out.get(nu, 0) + a * b * c
    return x._new(out)


def _pair_basis(b1: str, lam: Partition, b2: str, mu: Partition) -> int:
    if b1 == Q_BASIS and b2 == Q_BASIS:
        return 1 if is_strip(lam, mu, HS) else 0
    if b1 == L_BASIS and b2 == Q_BASIS:
        return 1 if lam == mu else 0
    if b1 == L_BASIS and b2 == L_BASIS:
        return (-1) ** (size(mu) - size(lam)) if is_strip(mu, lam, VS) else 0
    # Q against L: signed count over common removals
    total = 0
    for nu in down_set(lam):
        if is_strip(mu, nu, VS):
            total += (-1) ** (size(mu) - size(nu))
    return total


def pairing(x: KClassK, y: KClassK) -> int:
    """Euler pairing <[M],[N]> = alternating sum of Ext dimensions,
    extended bilinearly; any basis combination is accepted."""
    total = 0
    for lam, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            total += a * b * _pair_basis(x.basis, lam, y.basis, mu)
    return total


def signed_transpose(x: Combination) -> dict[Partition, int]:
    """Coefficients of the Fourier image: lam goes to its transpose with
    sign (-1)^{|lam|}."""
    return {transpose(lam): c * (-1) ** size(lam) for lam, c in x.coeffs.items()}


def fourier_K(x: KClassK) -> KClassK:
    """The involution swapping bases: basis class of lam goes to the other
    basis at the transpose with sign (-1)^{|lam|}."""
    other = L_BASIS if x.basis == Q_BASIS else Q_BASIS
    return KClassK(other, signed_transpose(x))


# ---------------------------------------------------------------------------
# Classes of modules over the full ring


class AClass:
    """Ungraded Euler class: torsion part over simples [S_lam] and
    projective part over [A x S_lam]."""

    __slots__ = ("torsion", "projective")

    def __init__(self, torsion: VClass | None = None, projective: VClass | None = None):
        self.torsion = VClass() if torsion is None else torsion
        self.projective = VClass() if projective is None else projective
        for part in (self.torsion, self.projective):
            if part.basis != S_BASIS:
                raise BasisMismatchError(
                    f"module class parts must be S-basis, got {part.basis}-basis"
                )

    @classmethod
    def simple(cls, lam) -> "AClass":
        return cls(torsion=VClass.simple(lam))

    @classmethod
    def free(cls, lam) -> "AClass":
        return cls(projective=VClass.simple(lam))

    def __add__(self, other: "AClass") -> "AClass":
        return AClass(self.torsion + other.torsion, self.projective + other.projective)

    def __sub__(self, other: "AClass") -> "AClass":
        return AClass(self.torsion - other.torsion, self.projective - other.projective)

    def __neg__(self) -> "AClass":
        return AClass(-self.torsion, -self.projective)

    def __rmul__(self, n: int) -> "AClass":
        return AClass(n * self.torsion, n * self.projective)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AClass)
            and self.torsion == other.torsion
            and self.projective == other.projective
        )

    def __bool__(self) -> bool:
        return bool(self.torsion) or bool(self.projective)

    def __hash__(self):
        return hash((self.torsion, self.projective))

    def __repr__(self) -> str:
        terms = self.torsion.format_terms() + self.projective.format_terms("P")
        return terms.lstrip("+") or "0"


def schur_derivative(x):
    """Single-box-removal branching on torsion classes and the Leibniz rule
    with D(A) = A on projective classes.  Accepts VClass or AClass."""
    if isinstance(x, VClass):
        out: dict[Partition, int] = {}
        for lam, c in x.coeffs.items():
            for mu in corner_removals(lam):
                out[mu] = out.get(mu, 0) + c
        return VClass(out)
    if isinstance(x, AClass):
        return AClass(
            schur_derivative(x.torsion), x.projective + schur_derivative(x.projective)
        )
    raise TypeError(f"expected VClass or AClass, got {type(x).__name__}")


def shift_operator(x: AClass) -> AClass:
    """Euler-characteristic shadow of the cone of M -> DM: [DM] - [M]."""
    return schur_derivative(x) - x


def diff_annihilator(x: AClass) -> tuple[int, int]:
    """Lexicographically minimal (n1, n2), n1 first, such that applying the
    shift operator n1 times and the derivative n2 times kills the class.

    A nonzero projective part survives the derivative (its largest term has
    a fixed coefficient), so n2 exists only once the shift operator has
    exhausted the projective part; that takes at most one step more than
    the largest projective partition size.
    """
    if not x:
        raise ZeroClassError("the zero class has no minimal annihilator")
    cap1 = x.projective.max_size() + 2
    z = x
    for n1 in range(cap1 + 1):
        if not z:
            return (n1, 0)
        if not z.projective:
            y = z
            for n2 in range(z.torsion.max_size() + 2):
                if not y:
                    return (n1, n2)
                y = schur_derivative(y)
            raise InternalError("torsion class survived past its size bound")
        z = shift_operator(z)
    raise InternalError("projective part survived past its size bound")
