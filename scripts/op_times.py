"""Time the operations of one benchmark round in one process.

    python scripts/op_times.py WORKLOAD [SEED] [ROUNDS]

WORKLOAD is an in-process workload of perfbench/gen.py (quiver-verify or
character-sweep); SEED (default 1) picks its round and ROUNDS (default 3)
says how often it runs.  Every round starts with the package's lru_caches
cleared, as in the benchmark worker, and every answer is checked by
perfbench/ops.py: a failed check stops the script with exit 1.  Each
operation is timed by its best round, and the times are scaled to the host
reference of perfbench/hostref.py, timed between the operations, as
perfbench/run.py scales them.  The script prints the scaled throughput,
median and tail latency of those best times; the eleven slowest operations,
the tail operation first and then the ten beyond it, each with its kind,
scaled best time and input; then each operation kind with its count and
the sum of its best times, largest sum first.  Standard
library only; perfbench/ is read, not changed.  To compare two commits,
run each checkout's own copy of this script alternately: a change that
claims a gain leaves perfbench/ as it is, so both time the same ops.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from hostref import HostReference  # noqa: E402

WORKLOADS = ("quiver-verify", "character-sweep")


def time_rounds(round_ops: list, rounds: int) -> tuple[list[float], float]:
    """Each operation's best time over cold rounds, and the host scale."""
    caches = spans.lru_caches().values()
    ref = HostReference()
    best = [float("inf")] * len(round_ops)
    for _ in range(rounds):
        for fn in caches:
            fn.cache_clear()
        for i, op in enumerate(round_ops):
            t0 = time.perf_counter()
            failure = ops.run_op(op)
            t = time.perf_counter() - t0
            if failure:
                sys.exit(f"operation {i} {op[0]} failed its check: {failure}")
            best[i] = min(best[i], t)
            ref.tick()
    return best, ref.scale()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Time the operations of a benchmark round.")
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int, nargs="?", default=1)
    ap.add_argument("rounds", type=int, nargs="?", default=3)
    args = ap.parse_args(argv)
    workload, seed, rounds = args.workload, args.seed, args.rounds
    if rounds < 1:
        ap.error("rounds must be at least 1")
    round_ops = gen.generate(workload, seed)
    best, k = time_rounds(round_ops, rounds)
    ordered = sorted(best)
    print(f"{workload} seed {seed}: {rounds} cold rounds of {len(best)} operations, "
          f"host scale {k:.3f}")
    print(f"throughput_ops_s {len(best) / sum(best) / k:.1f}")
    print(f"latency_p50_ms {statistics.median(best) * k * 1e3:.4f}")
    # as perfbench/run.py: the highest percentile with ten samples beyond it
    print(f"latency_tail_ms {ordered[-11] * k * 1e3:.4f} "
          f"(p{100 * (1 - 10 / len(best)):.1f})")
    print("kind best_ms input")
    for i in sorted(range(len(best)), key=best.__getitem__)[-11:]:
        op = round_ops[i]
        print(f"{op[0]} {best[i] * k * 1e3:.4f} {json.dumps(op[1:], separators=(',', ':'))}")
    by_kind: dict[str, list[float]] = defaultdict(list)
    for op, t in zip(round_ops, best):
        by_kind[op[0]].append(t)
    print("kind count best_ms_sum")
    for kind, times in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        print(f"{kind} {len(times)} {sum(times) * k * 1e3:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
