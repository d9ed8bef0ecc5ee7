"""The checks of `tcalab selftest` can fail: each one reports a failure
when the invariant it sweeps is broken by an injected fault."""

import pytest

from tcalab import hilbert, homalg, ktheory, quiver, selftest
from tcalab.ktheory import KClassK, signed_transpose
from tcalab.partitions import down_set, transpose

fourier_K = ktheory.fourier_K
q_to_l = ktheory.q_to_l
depth = homalg.depth
character_value = hilbert.character_value
t1_derivative = hilbert.t1_derivative
complex_cohomology = quiver.complex_cohomology


def _unsigned_fourier(x):
    """fourier_K without its sign (-1)^|lam|."""
    other = "L" if x.basis == "Q" else "Q"
    return KClassK(other, {transpose(lam): c for lam, c in x.coeffs.items()})


def _basis_keeping_fourier(x):
    """fourier_K that keeps the basis tag."""
    return KClassK(x.basis, signed_transpose(x))


# check name: (module, attribute, fault), where the check reads the attribute
FAULTS = {
    "transpose involution": (selftest, "transpose", lambda lam: transpose(lam)[:-1]),
    "strip identity": (selftest, "down_set", lambda lam: down_set(lam)[:-1]),
    "basis round trips": (selftest, "q_to_l", lambda x: 2 * q_to_l(x)),
    # an unsigned transform is still an involution; this one is not on L
    "K Fourier involution": (ktheory, "fourier_K",
                             lambda x: -fourier_K(x) if x.basis == "L" else fourier_K(x)),
    "pairing symmetry": (ktheory, "fourier_K", _unsigned_fourier),
    "depth coherence": (homalg, "depth", lambda lam, d: depth(lam, d) + 1),
    "character threshold": (hilbert, "character_value",
                            lambda lam, mu: character_value(lam, mu) + 1),
    "derivative series": (hilbert, "t1_derivative", lambda s: 2 * t1_derivative(s)),
    "resolution realization": (quiver, "complex_cohomology",
                               lambda cx: complex_cohomology(cx) + [{(): 1}]),
}


def test_every_check_has_a_fault():
    assert [name for name, _ in selftest.CHECKS] == list(FAULTS)


@pytest.mark.parametrize("name, check", selftest.CHECKS, ids=[n for n, _ in selftest.CHECKS])
def test_a_broken_invariant_is_reported(monkeypatch, name, check):
    assert check(3) is None, name
    module, attribute, fault = FAULTS[name]
    monkeypatch.setattr(module, attribute, fault)
    assert check(3) is not None, name


@pytest.mark.parametrize("fault, message", [
    (_unsigned_fourier, "K Fourier does not commute with the change of basis at Q[1]"),
    (_basis_keeping_fourier, "K Fourier keeps the basis of Q[0]"),
], ids=["unsigned", "basis kept"])
def test_the_fourier_check_sees_the_sign_and_the_basis(monkeypatch, fault, message):
    # both faults are still involutions
    monkeypatch.setattr(ktheory, "fourier_K", fault)
    assert selftest._check_fourier_involution(3) == message
