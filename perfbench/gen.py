"""Seeded input generators for the three workloads, plus the partition
helpers they and the exact checks need.

Standard library only, and independent of `tcalab`: the orchestrator makes
the inputs without importing the program, and the closed-form checks
(horizontal strips, hook dimensions) do not reuse the code they check.

One call of `generate(workload, seed)` returns one round: a fixed number
of operations in a seeded order.  The number of operations of each kind
is fixed, and where the partitions of a size are few enough a round sweeps
all of them; the seed picks the remaining inputs and the order.  A seed
thus changes which inputs a round holds much more than how much work it
is, so runs on different seeds can be compared.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from math import comb, factorial

# ---------------------------------------------------------------------------
# Partitions


def partitions_of(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, lexicographically descending."""
    if n == 0:
        return [()]
    cap = n if cap is None else cap
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return out


def transpose(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))


def is_hs(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam/mu is a horizontal strip: lam_i >= mu_i >= lam_{i+1} for all i."""
    if len(mu) > len(lam):
        return False
    for i, li in enumerate(lam):
        mi = mu[i] if i < len(mu) else 0
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if not li >= mi >= nxt:
            return False
    return True


def hook_dimension(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    cols = transpose(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(lam)) // prod


def vertex_count(n: int) -> int:
    """Vertices of the quiver truncation at size n: partitions of size <= n."""
    return sum(len(partitions_of(k)) for k in range(n + 1))


class _Draw:
    """Round-robin over all partitions of each size, so repeated draws of
    one size cover it evenly instead of by luck; in a seeded order, or in
    the fixed order of `partitions_of` when `rng` is None."""

    def __init__(self, rng: random.Random | None):
        self.rng = rng
        self.queues: dict[int, list[tuple[int, ...]]] = {}

    def __call__(self, n: int) -> tuple[int, ...]:
        queue = self.queues.setdefault(n, [])
        if not queue:
            queue.extend(reversed(partitions_of(n)))
            if self.rng:
                self.rng.shuffle(queue)
        return queue.pop()


def _spec(letter: str, p) -> str:
    return f"{letter}[{','.join(map(str, p))}]"


# ---------------------------------------------------------------------------
# quiver-verify: machine verification in the quiver model

QUIVER_SIZES = (5, 6, 7, 8)


def gen_quiver_verify(rng: random.Random) -> list[list]:
    """Every partition of size 5..8 once per kind: realize and verify its
    resolution, compute its socle, and one hom space from it to a smaller
    partition (alternately across a horizontal strip or not)."""
    ops: list[list] = []
    for n in QUIVER_SIZES:
        for k, lam in enumerate(partitions_of(n)):
            ops.append(["verify", list(lam)])
            ops.append(["socle", list(lam)])
            smaller = partitions_of(n - 1 - k % 2)
            strips = [m for m in smaller if is_hs(lam, m)]
            others = [m for m in smaller if not is_hs(lam, m)]
            pool = strips if (k % 4 < 2 and strips) or not others else others
            ops.append(["hom", list(lam), list(rng.choice(pool))])
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# character-sweep: algebraic queries with partly repeated inputs

REPEAT_EVERY = 3  # one request in three is sent twice


def gen_character_sweep(rng: random.Random) -> list[list]:
    """A sweep over partitions of size <= 8 for each kind of query.  The
    K-classes and LR factors are a fixed sweep; the seed picks the classes
    evaluated on, the depth bounds, which request of every three of a kind
    is sent a second time later in the round, and the order.  The inputs
    that set the cost of the cheap requests are thus the same for every
    seed, and seeds differ in order, repeats and characters evaluated."""
    draw = _Draw(rng)
    sweep = _Draw(None)

    def kclass(k: int, n: int, terms: int) -> list:
        sizes = [n] + [(n + 3 * j) % 8 for j in range(1, terms)]
        coeffs = [(1, -1, 2)[(k + j) % 3] for j in range(terms)]
        return ["LQ"[k % 2], [[c, list(sweep(m))] for c, m in zip(coeffs, sizes)]]

    ops: list[list] = []
    for n in range(3, 9):
        for lam in partitions_of(n):
            # below, at and above the size of lam, and at the stable range
            sizes = (n - 1, n, n + 1, min(n + lam[0], 12))
            ops.append(["charpoly", list(lam), [list(draw(m)) for m in sizes]])
    for k in range(80):
        ops.append(["pairing", kclass(k, k % 8, 1 + k % 2), kclass(k // 8, (k // 8) % 8, 1 + k // 40)])
    for n in range(9):
        for lam in partitions_of(n):
            ops.append(["roundtrip", list(lam)])
            ops.append(["depth", list(lam), (lam[0] if lam else 0) + rng.randint(0, 2)])
            if n >= 2:
                ops.append(["derivative", list(lam)])
    for k in range(48):
        ops.append(["kproduct", list(sweep(1 + k % 4)), list(sweep(1 + (k // 4) % 4))])
    repeats = []
    for kind in sorted({op[0] for op in ops}):
        same = [op for op in ops if op[0] == kind]
        repeats += [rng.choice(same[i:i + REPEAT_EVERY]) for i in range(0, len(same), REPEAT_EVERY)]
    ops += repeats
    rng.shuffle(ops)
    return ops


def repeated_share(ops: list[list]) -> float:
    """Share of operations that repeat an earlier request of the round: the
    same kind on the same partitions.  Such a request finds the caches its
    first occurrence filled, which is what the seven `lru_cache`s rely on."""
    seen: set = set()
    repeats = 0
    for op in ops:
        key = _key(op)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)


def _key(op: list) -> str:
    if op[0] == "charpoly":
        return repr(op[:2])  # the classes evaluated on vary; the polynomial is cached
    return repr(op)


# ---------------------------------------------------------------------------
# cli-oneshot: one subprocess per request


def _pstr(p) -> str:
    return ",".join(map(str, p)) or "0"


CLI_KINDS = (
    "charpoly", "hilbert", "modify", "localcoh", "depth", "bgg",
    "ktheory.conv", "ktheory.mult", "ktheory.pair", "fourier", "efw",
    "poincare", "quiver.hom", "quiver.socle", "quiver.verify-bgg",
)


# Requests the program is known to answer wrongly.  A workload must not
# fail, so the rounds never draw them; every cli-oneshot run sends each
# once before its rounds and lists the outcome in its detail document.
KNOWN_DEFECTS = (
    ["depth", "0", "0"],  # prints `"depth": Infinity`, which is not JSON
)


def gen_cli_oneshot(rng: random.Random) -> list[list]:
    """Requests as argv lists: four of every subcommand but `selftest` on
    partitions of size 0..6, plus four malformed requests of the kinds the
    tests pin to exit 2.  None of KNOWN_DEFECTS is drawn."""
    draw = _Draw(rng)

    def p(lo: int = 0, hi: int = 6) -> tuple[int, ...]:
        return draw(rng.randint(lo, hi))

    def at_least_first(kind: str, lam) -> str:
        d = (lam[0] if lam else 0) + rng.randint(0, 2)
        if kind == "depth" and not lam:
            d = max(d, 1)  # `depth 0 0` is KNOWN_DEFECTS[0], probed outside the rounds
        return str(d)

    def request(kind: str) -> list[str]:
        cmd, _, op = kind.partition(".")
        if kind == "charpoly":
            return [cmd, _pstr(p(0, 5))]
        if kind == "hilbert":
            return [cmd, f"{_spec('P', p(1))}-{_spec('S', p(0, 4))}"]
        if kind == "modify":
            lam = p()
            return [cmd, _pstr(lam), str(rng.randint(0, sum(lam) + 4))]
        if kind in ("localcoh", "depth"):
            lam = p()
            return [cmd, _pstr(lam), at_least_first(kind, lam)]
        if kind == "ktheory.mult":
            basis = rng.choice("LQ")
            return [cmd, op, _spec(basis, p(0, 3)), _spec(basis, p(0, 3))]
        if kind == "ktheory.pair":
            return [cmd, op, _spec(rng.choice("LQ"), p()), _spec(rng.choice("LQ"), p())]
        if kind in ("ktheory.conv", "quiver.socle"):
            return [cmd, op, _spec(rng.choice("LQ"), p())]
        if kind == "fourier":
            return [cmd, _spec(rng.choice("PQL"), p())]
        if kind in ("efw", "poincare"):
            flag = "--bound" if kind == "efw" else "--trunc"
            return [cmd, _pstr(p(0, 3)), str(rng.randint(1, 3)), flag, str(rng.randint(4, 8))]
        if kind == "quiver.hom":
            return [cmd, op, _pstr(p(1)), _pstr(p(0, 5))]
        return [cmd, op, _pstr(p())] if op else [cmd, _pstr(p())]  # bgg, verify-bgg

    def malformed(i: int) -> list[str]:
        if i % 3 == 0:  # D below the first part
            lam = p(2)
            lam = lam if lam[0] >= 2 else transpose(lam)
            return ["depth", _pstr(lam), str(lam[0] - 1)]
        if i % 3 == 1:
            return ["depth", "not-a-partition", "1"]
        return []  # no subcommand

    ops = [["cli", kind, request(kind)] for kind in CLI_KINDS for _ in range(4)]
    ops += [["cli", "malformed", malformed(i)] for i in range(4)]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "quiver-verify": gen_quiver_verify,
    "character-sweep": gen_character_sweep,
    "cli-oneshot": gen_cli_oneshot,
}


def generate(workload: str, seed: int) -> list[list]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _size_of(op: list) -> int:
    """Size of the operation's first partition input."""
    if op[0] == "cli":
        argv = op[2]
        skip = 2 if argv and argv[0] in ("ktheory", "quiver") else 1
        m = re.search(r"[0-9][0-9,]*", " ".join(argv[skip:skip + 1]))
        return sum(int(x) for x in m.group().split(",") if x) if m else 0
    if op[0] == "pairing":
        return max(sum(p) for cls in op[1:] for _, p in cls[1])
    if op[0] == "kproduct":
        return sum(op[1]) + sum(op[2])
    return sum(op[1])


def properties(workload: str, ops: list[list]) -> dict:
    """Recorded input properties: op count, mix and size histogram, plus the
    repeated-input share (character-sweep) or malformed share (cli-oneshot)."""
    mix = Counter(op[1] if op[0] == "cli" else op[0] for op in ops)
    sizes = Counter(_size_of(op) for op in ops)
    out = {
        "ops_per_round": len(ops),
        "mix": dict(sorted(mix.items())),
        "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
    }
    out["repeated_input_share"] = round(repeated_share(ops), 4)
    if workload == "quiver-verify":
        out["quiver_vertices_per_round"] = sum(vertex_count(sum(op[1])) for op in ops)
    if workload == "cli-oneshot":
        out["malformed_share"] = round(mix["malformed"] / len(ops), 4)
    return out


def expected_lr_dimension(lam, mu) -> int:
    """sum_nu c^nu_{lam,mu} f^nu = binom(|lam|+|mu|, |lam|) f^lam f^mu."""
    a, b = sum(lam), sum(mu)
    return comb(a + b, a) * hook_dimension(tuple(lam)) * hook_dimension(tuple(mu))
