"""Operation executors for the in-process workloads, each with its exact check.

Every executor returns None when the answer is right and a one-line reason
when it is not.  The library functions are imported by name into this
module, so the traced run can put a span around each call the benchmark
makes into a `tcalab` module (see spans.py).
"""

from __future__ import annotations

import math

from tcalab.hilbert import (
    char_poly_simple,
    character_value,
    enhanced_of_class,
    enhanced_of_simple,
    eval_char_poly,
    t1_derivative,
)
from tcalab.homalg import depth, local_cohomology
from tcalab.ktheory import (
    AClass,
    KClassK,
    fourier_K,
    k_product,
    l_class,
    l_to_q,
    pairing,
    q_class,
    q_to_l,
    schur_derivative,
)
from tcalab.quiver import (
    VertexSet,
    build_injective,
    complex_cohomology,
    hom_space,
    realize_bgg,
    socle,
)

from gen import expected_lr_dimension, hook_dimension, is_hs

# ---------------------------------------------------------------------------
# quiver-verify


def op_verify(lam):
    """The realized injective resolution of a simple has cohomology exactly
    the simple, in degree zero."""
    lam = tuple(lam)
    cohom = complex_cohomology(realize_bgg(lam))
    if cohom[0] != {lam: 1} or any(cohom[1:]):
        return f"cohomology of the resolution of {lam} is {cohom}"
    return None


def op_hom(lam, mu):
    """dim Hom(Q_lam, Q_mu) is 1 iff lam/mu is a horizontal strip, else 0."""
    lam, mu = tuple(lam), tuple(mu)
    vs = VertexSet.up_to_size(sum(lam))
    dim, _ = hom_space(build_injective(lam, vs), build_injective(mu, vs))
    want = 1 if is_hs(lam, mu) else 0
    if dim != want:
        return f"hom dimension {dim} for {lam}, {mu}; expected {want}"
    return None


def op_socle(lam):
    """The socle of the injective at lam is the simple at lam."""
    lam = tuple(lam)
    soc = socle(build_injective(lam, VertexSet.up_to_size(sum(lam))))
    if soc != {lam: 1}:
        return f"socle of Q{lam} is {soc}"
    return None


# ---------------------------------------------------------------------------
# character-sweep


def op_charpoly(lam, mus):
    """Character polynomial values equal the modification rule plus
    Murnaghan-Nakayama on every drawn class."""
    lam = tuple(lam)
    X = char_poly_simple(lam)
    for mu in mus:
        mu = tuple(mu)
        got, want = eval_char_poly(X, mu), character_value(lam, mu)
        if got != want:
            return f"charpoly of {lam} at {mu} is {got}; expected {want}"
    return None


def _kclass(spec) -> KClassK:
    basis, terms = spec
    coeffs: dict = {}
    for c, p in terms:
        coeffs[tuple(p)] = coeffs.get(tuple(p), 0) + c
    return KClassK(basis, coeffs)


def op_pairing(xs, ys):
    """<x, y> = <F y, F x> for the Fourier involution F."""
    x, y = _kclass(xs), _kclass(ys)
    a, b = pairing(x, y), pairing(fourier_K(y), fourier_K(x))
    if a != b:
        return f"pairing {x!r}, {y!r} is {a} but {b} after Fourier"
    return None


def op_roundtrip(lam):
    """L -> Q -> L and Q -> L -> Q are the identity."""
    lam = tuple(lam)
    if q_to_l(l_to_q(l_class(lam))) != l_class(lam):
        return f"L round trip fails at {lam}"
    if l_to_q(q_to_l(q_class(lam))) != q_class(lam):
        return f"Q round trip fails at {lam}"
    return None


def op_kproduct(lam, mu):
    """sum_nu c^nu f^nu = binom(|lam|+|mu|, |lam|) f^lam f^mu, the dimension
    of the induced representation, by the hook length formula."""
    lam, mu = tuple(lam), tuple(mu)
    prod = k_product(l_class(lam), l_class(mu))
    got = sum(c * hook_dimension(nu) for nu, c in prod.coeffs.items())
    want = expected_lr_dimension(lam, mu)
    if got != want:
        return f"LR dimension of {lam} * {mu} is {got}; expected {want}"
    return None


def op_derivative(lam):
    """The q-part of the series of the Schur derivative is the t_1
    derivative of the series of the simple."""
    lam = tuple(lam)
    lhs = enhanced_of_class(schur_derivative(AClass.simple(lam))).q
    rhs = t1_derivative(enhanced_of_simple(lam))
    if lhs != rhs:
        return f"derivative series mismatch at {lam}"
    return None


def op_depth(lam, D):
    """Depth is 1 + #{i : lam_i = D} (infinite for the whole ring) and is the
    lowest nonzero local cohomology row."""
    lam = tuple(lam)
    got = depth(lam, D)
    want = math.inf if (D == 0 and not lam) else 1 + sum(1 for x in lam if x == D)
    lowest = local_cohomology(lam, D).min_nonzero()
    if got != want or (math.inf if lowest is None else lowest) != got:
        return f"depth of {lam} at D={D} is {got}, lowest row {lowest}; expected {want}"
    return None


EXECUTORS = {
    "verify": op_verify,
    "hom": op_hom,
    "socle": op_socle,
    "charpoly": op_charpoly,
    "pairing": op_pairing,
    "roundtrip": op_roundtrip,
    "kproduct": op_kproduct,
    "derivative": op_derivative,
    "depth": op_depth,
}


def run_op(op) -> list | None:
    """Run one operation: None when its check passes, else [kind, reason]
    with kind "wrong_answer" or "error" (the call raised)."""
    try:
        reason = EXECUTORS[op[0]](*op[1:])
    except Exception as exc:  # the benchmark must record every failure and go on
        return ["error", f"{type(exc).__name__}: {exc}"]
    return ["wrong_answer", reason] if reason else None
