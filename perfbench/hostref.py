"""The host reference: fixed stdlib work that tells the speed of the host.

The shared host runs Python at speeds up to 1.7x apart, for phases of
seconds to many minutes (NOTES.md, "Noise and bounds").  A run times this
work between its operations, every INTERVAL_S, and scales its times by
`REFERENCE_S / best reference time`: a time it reports is what the
measured work would take on a host that does the reference work in
REFERENCE_S.  The work is the kind the program does (products of sparse
polynomials with `Fraction` coefficients in dicts keyed by tuples), so
that a slow phase slows both much alike (NOTES.md says by how much they
differ), but none of the program's code, so that a change to the program
cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# best time of `work()` on the fast phase of the host the bounds were set on
REFERENCE_S = 0.0027


def work() -> dict:
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    b = {(i, j): Fraction(j - 2, i + 3) for i in range(5) for j in range(6)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


# between operations, time the reference once at least this often
INTERVAL_S = 0.05


class HostReference:
    """Collects times of `work()`; `scale()` is REFERENCE_S over the best."""

    def __init__(self, samples: list[float] | None = None):
        self.samples = list(samples or [])
        self.last = 0.0

    def tick(self) -> None:
        """Time the reference if INTERVAL_S has passed since the last time,
        so that its best comes from the same fast moments as the best
        times of the operations around it."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            t0 = time.perf_counter()
            work()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    def scale(self) -> float:
        return REFERENCE_S / min(self.samples)
