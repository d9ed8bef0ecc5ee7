"""Cross-module invariant battery behind `tcalab selftest`.

Each check sweeps an identity over all partitions up to a size cap and
returns a failure message instead of raising, so a single run reports
everything that broke.  The pytest suite covers the same ground (and more)
with finer granularity; this module exists so a deployed CLI can vouch for
itself without a test harness.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

from . import hilbert, homalg, ktheory, quiver
from .ktheory import AClass, l_class, l_to_q, q_class, q_to_l
from .partitions import (
    VS,
    _partitions_cached,
    contains,
    down_set,
    is_strip,
    partitions_up_to,
    size,
    transpose,
)

def _check_strip_identity(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        below = down_set(lam)
        for nu in partitions_up_to(size(lam)):
            if not contains(lam, nu):
                continue
            total = 0
            for mu in below:
                if is_strip(mu, nu, VS):
                    total += (-1) ** (size(mu) - size(nu))
            expected = 1 if lam == nu else 0
            if total != expected:
                return f"strip identity fails at lam={lam}, nu={nu}"
    return None


def _check_round_trip(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        if q_to_l(l_to_q(l_class(lam))) != l_class(lam):
            return f"L round trip fails at {lam}"
        if l_to_q(q_to_l(q_class(lam))) != q_class(lam):
            return f"Q round trip fails at {lam}"
    return None


def _check_transpose(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        if transpose(transpose(lam)) != lam:
            return f"transpose involution fails at {lam}"
        if size(transpose(lam)) != size(lam):
            return f"transpose size fails at {lam}"
    return None


def _check_fourier_involution(cap: int) -> str | None:
    """F swaps the L and Q tags, is an involution and commutes with the
    change of basis; the tags are compared first, since a basis change
    refuses a class in the wrong basis.  The last identity catches an F
    that drops its sign (-1)^|lam|, which is still an involution."""
    for lam in partitions_up_to(cap):
        for cls, there, back in ((q_class(lam), q_to_l, l_to_q), (l_class(lam), l_to_q, q_to_l)):
            image = ktheory.fourier_K(cls)
            if image.basis == cls.basis:
                return f"K Fourier keeps the basis of {cls!r}"
            if ktheory.fourier_K(image) != cls:
                return f"K Fourier involution fails at {cls!r}"
            if ktheory.fourier_K(there(cls)) != back(image):
                return f"K Fourier does not commute with the change of basis at {cls!r}"
    return None


def _check_pairing_symmetry(cap: int) -> str | None:
    classes = [q_class(p) for p in partitions_up_to(cap)]
    classes += [l_class(p) for p in partitions_up_to(cap)]
    for x in classes:
        for y in classes:
            if ktheory.pairing(x, y) != ktheory.pairing(
                ktheory.fourier_K(y), ktheory.fourier_K(x)
            ):
                return f"pairing symmetry fails at {x!r}, {y!r}"
    return None


def _check_depth_coherence(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        top = lam[0] if lam else 0
        for D in range(top, top + 3):
            table = homalg.local_cohomology(lam, D)
            d = homalg.depth(lam, D)
            lowest = table.min_nonzero()
            if (lowest if lowest is not None else float("inf")) != d:
                return f"depth mismatch at lam={lam}, D={D}"
    return None


def _check_character_threshold(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        X = hilbert.char_poly_simple(lam)
        top = lam[0] if lam else 0
        for n in range(0, top + size(lam) + 3):
            for mu in _partitions_cached(n):
                got = hilbert.eval_char_poly(X, mu)
                want = hilbert.character_value(lam, mu)
                if got != want:
                    return f"character value mismatch at lam={lam}, mu={mu}"
    return None


def _check_bgg_realization(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        cx = quiver.realize_bgg(lam)
        cohom = quiver.complex_cohomology(cx)
        if cohom[0] != {lam: 1} or any(h for h in cohom[1:]):
            return f"resolution cohomology wrong at {lam}"
    return None


def _check_derivative_series(cap: int) -> str | None:
    for lam in partitions_up_to(cap):
        lhs = hilbert.enhanced_of_class(
            ktheory.schur_derivative(AClass.simple(lam))
        ).q
        rhs = hilbert.t1_derivative(hilbert.enhanced_of_simple(lam))
        if lhs != rhs:
            return f"derivative series mismatch at {lam}"
    return None


CHECKS: list[tuple[str, Callable[[int], str | None]]] = [
    ("transpose involution", _check_transpose),
    ("strip identity", _check_strip_identity),
    ("basis round trips", _check_round_trip),
    ("K Fourier involution", _check_fourier_involution),
    ("pairing symmetry", _check_pairing_symmetry),
    ("depth coherence", _check_depth_coherence),
    ("character threshold", _check_character_threshold),
    ("derivative series", _check_derivative_series),
    ("resolution realization", _check_bgg_realization),
]


def run_selftest(cap: int, log: TextIO = sys.stderr) -> list[str]:
    """Run every check at the size cap, logging each result with its
    elapsed seconds; returns the failure messages."""
    failures = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        msg = fn(cap)
        elapsed = time.perf_counter() - start
        status = "ok" if msg is None else f"FAIL ({msg})"
        print(f"selftest: {name}: {status} ({elapsed:.2f} s)", file=log)
        if msg is not None:
            failures.append(msg)
    return failures
