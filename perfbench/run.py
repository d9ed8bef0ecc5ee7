"""tcalab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quiver-verify --seed 1 --seconds 60 --trace 0

Run from the repository root; the program is imported from `src/`, so no
install or build step is needed.  The run

  1. makes one round of operations from the seed (gen.py),
  2. runs the workload process (worker.py) for `--seconds`, checking every
     answer exactly; between operations it times fresh interpreters
     importing what the workload calls (setup_s) and the host reference,
  3. scales the times to the reference speed of the host (hostref.py),
  4. prints a detail document and, as the last line, the result:
     {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from the traced run.  NOTES.md explains the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from hostref import REFERENCE_S, HostReference  # noqa: E402
from spans import LAYERS, LRU_CACHES  # noqa: E402

# what the workload process imports before its first request
IMPORTS = {
    "quiver-verify": "tcalab.quiver",
    "character-sweep": "tcalab.hilbert, tcalab.homalg, tcalab.ktheory",
    "cli-oneshot": "tcalab.cli",
}
CLI_PROBES = 7


def child_env() -> dict:
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([extra] if extra else [])))


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def interp_times() -> list[float]:
    """Wall time of a bare `python -c pass`."""
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "pass"])
        times.append(time.perf_counter() - t0)
    return times


def import_times() -> list[float]:
    """Cumulative import time of tcalab.cli from `-X importtime`."""
    times = []
    for _ in range(CLI_PROBES):
        err = _run([sys.executable, "-X", "importtime", "-c", "import tcalab.cli"]).stderr
        m = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*tcalab\.cli\s*$", err, re.M)
        times.append(int(m.group(1)) / 1e6)
    return times


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile that leaves ten samples beyond it (nearest
    rank): value, percentile and sample count."""
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (1 - 10 / len(ordered)), len(ordered)


def best_of_rounds(latency_s: list[list[float]]) -> list[float]:
    """Each operation's shortest time over the rounds of the run."""
    return [min(times) for times in zip(*latency_s)]


def end_to_end(workload: str, res: dict) -> tuple[dict, dict]:
    """The host runs Python at speeds up to 1.7x apart, in phases of
    seconds to many minutes (NOTES.md, "Noise and bounds").  Every
    operation is repeated once per round on the same cold caches, so each
    is timed by its best round, and every time is scaled to the reference
    speed of the host (hostref.py) by the reference timed between the
    operations.  Set-up is probed between the operations too, so it is
    scaled alike.  The unscaled values and the medians over rounds go
    into the detail document."""
    best = best_of_rounds(res["latency_s"])
    setup = res["setup_probe_s"]
    tail_s, pct, n = tail(best)
    pooled = [t for times in res["latency_s"] for t in times]
    rss_kb = res["rss_children_kb"] if workload == "cli-oneshot" else res["rss_self_kb"]
    raw = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }
    k = HostReference(res["reference_s"]).scale()
    metrics = {
        "setup_s": (raw["setup_s"] * k, "s"),
        "throughput_ops_s": (raw["throughput_ops_s"] / k, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * k, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] * k, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    detail = {
        "latency_tail": {"percentile": pct, "samples": n, "samples_beyond": 10},
        "host_reference": {
            "reference_s": REFERENCE_S,
            "scale": k,
            "samples": len(res["reference_s"]),
            "best_s": min(res["reference_s"]),
            "median_s": statistics.median(res["reference_s"]),
        },
        "unscaled": raw,
        "setup_s_probes_unscaled": setup,
        "over_rounds_median_unscaled": {
            "throughput_ops_s": len(best) / statistics.median(res["round_s"]),
            "latency_p50_ms": statistics.median(pooled) * 1e3,
        },
    }
    return metrics, detail


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(res: dict) -> tuple[dict, dict]:
    tr, cache = res["trace"], res["cache"]
    rounds = len(res["traced"]["round_s"])

    def calls(*names: str) -> float:
        return sum(tr["calls"].get(n, 0) for n in names) / rounds

    def per_round(value: float) -> float:
        return value / rounds

    def hit(key: str) -> float:
        return _ratio(cache["hits"].get(key, 0), cache["misses"].get(key, 0))

    layer = {k: per_round(v) for k, v in tr["layer_self_s"].items()}
    meters, self_s = tr["meters"], tr["self_s"]
    m = {f"{name}.self_s": (layer.get(name, 0.0), "s") for name in LAYERS if name != "cli"}
    m.update({
        "quiver.validate.calls": (calls("quiver.QuiverRep.validate"), "count"),
        "quiver.validate.self_s": (per_round(self_s.get("quiver.QuiverRep.validate", 0.0)), "s"),
        "quiver.hom_space.calls": (calls("quiver.hom_space"), "count"),
        "quiver.vertices": (per_round(meters.get("quiver.vertices", 0)), "count"),
        "linalg.rank.calls": (calls("linalg.rank"), "count"),
        "linalg.nullspace.calls": (calls("linalg.nullspace"), "count"),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), "count"),
        "linalg.entries": (per_round(meters.get("linalg.entries", 0)), "count"),
        "partitions.is_strip.calls": (calls("partitions.is_strip"), "count"),
        "partitions.remove_strips.calls": (calls("partitions.remove_strips"), "count"),
        "partitions.add_strips.calls": (calls("partitions.add_strips"), "count"),
        "partitions.cache_hit_ratio": (hit("partitions.cache"), "ratio"),
        "polynomials.mul.calls": (calls("polynomials.MPoly.__mul__"), "count"),
        "polynomials.add.calls": (calls("polynomials.MPoly.__add__"), "count"),
        "polynomials.terms_out": (per_round(meters.get("polynomials.terms_out", 0)), "count"),
        "symchar.mn.cache_hit_ratio": (hit("symchar.mn"), "ratio"),
        "symchar.rim_hook.cache_hit_ratio": (hit("symchar.rim_hook"), "ratio"),
        "symchar.lr_expand.cache_hit_ratio": (hit("symchar.lr_expand"), "ratio"),
        "symchar.lr_coefficient.calls": (calls("symchar.lr_coefficient"), "count"),
        "hilbert.char_poly.cache_hit_ratio": (hit("hilbert.char_poly"), "ratio"),
        "hilbert.enhanced.cache_hit_ratio": (hit("hilbert.enhanced"), "ratio"),
        "hilbert.umbral.calls": (calls("hilbert.umbral"), "count"),
        "ktheory.pairing.calls": (calls("ktheory.pairing"), "count"),
        "ktheory.basis_change.calls": (calls("ktheory.q_to_l", "ktheory.l_to_q"), "count"),
        "ktheory.k_product.calls": (calls("ktheory.k_product"), "count"),
        "homalg.bgg_resolution.calls": (calls("homalg.bgg_resolution"), "count"),
        "homalg.local_cohomology.calls": (calls("homalg.local_cohomology"), "count"),
        "cache.entries_total": (cache["entries_total"], "count"),
        "mem.tracemalloc_peak_mb": (res["tracemalloc_peak_bytes"] / 2**20, "MB"),
        "trace.overhead_ratio": (
            statistics.median(res["round_s"]) / statistics.median(res["traced"]["round_s"]),
            "ratio"),
    })
    detail = {
        "traced_rounds": rounds,
        "spans_total": tr["spans_total"],
        "layer_self_share": _shares(layer),
        "calls_per_round": {k: per_round(v) for k, v in sorted(tr["calls"].items()) if v},
        "cache_per_round": {
            k: {"hits": per_round(cache["hits"].get(k, 0)),
                "misses": per_round(cache["misses"].get(k, 0))}
            for k in LRU_CACHES
        },
    }
    return m, detail


def _shares(layer: dict) -> dict:
    total = sum(layer.values())
    return {k: (v / total if total else 0.0) for k, v in layer.items()}


def layer_share_check(workload: str, m: dict, detail: dict, p50_ms: float) -> dict:
    """Does the traced run show the design the workload exists for?"""
    share = detail["layer_self_share"]

    def none(*names: str) -> bool:
        return all(m[name][0] == 0 for name in names)

    if workload == "quiver-verify":
        core = share["quiver"] + share["linalg"] + share["partitions"]
        ok = core > 0.5 and none("polynomials.mul.calls", "polynomials.add.calls",
                                 "symchar.lr_coefficient.calls", "symchar.self_s")
        what = f"quiver+linalg+partitions self share {core:.3f} > 0.5; no polynomials or symchar calls"
    elif workload == "character-sweep":
        ok = none("quiver.validate.calls", "quiver.hom_space.calls", "quiver.self_s", "linalg.self_s")
        what = "no quiver or linalg calls"
    else:
        startup = (m["cli.interp_s"][0] + m["cli.import_s"][0]) * 1e3
        ok = startup > 0.5 * p50_ms
        what = f"interp+import {startup:.1f} ms > half of p50 {p50_ms:.1f} ms"
    return {"ok": ok, "rule": what}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tcalab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/tcalab; run from a checkout", file=sys.stderr)
        return 2

    ops = gen.generate(args.workload, args.seed)
    props = gen.properties(args.workload, ops)
    OUT.mkdir(exist_ok=True)
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": ops, "out_dir": str(OUT),
        "setup_imports": IMPORTS[args.workload],
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, env=child_env(), timeout=170,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"perfbench: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout)

    e2e, detail = end_to_end(args.workload, res)
    if args.trace:
        metrics, layer_detail = per_layer(res)
        interp, imp = statistics.median(interp_times()), statistics.median(import_times())
        p50_ms = detail["unscaled"]["latency_p50_ms"]
        cli_self = p50_ms / 1e3 - interp - imp if args.workload == "cli-oneshot" else 0.0
        metrics.update({
            "cli.interp_s": (interp, "s"),
            "cli.import_s": (imp, "s"),
            "cli.self_s": (cli_self, "s"),
        })
        detail.update(layer_detail)
        check = layer_share_check(args.workload, metrics, layer_detail, p50_ms)
        detail["layer_share_check"] = check
        if not check["ok"]:
            print(f"perfbench: layer-share check failed: {check['rule']}", file=sys.stderr)
        detail["spans_file"] = res.get("spans_file")
    else:
        metrics = e2e

    failures = res["failures"]
    wrong = [f for f in failures if f[1] == "wrong_answer"]
    failing_inputs: dict[str, dict] = {}
    for i, kind, reason in failures:
        entry = failing_inputs.setdefault(
            json.dumps(ops[i]), {"kind": kind, "reason": reason, "count": 0})
        entry["count"] += 1
    attempted = res["attempted"]
    for defect in res.get("known_defects", []):
        if defect["failure"]:
            print(f"perfbench: known defect, outside the rounds: tcalab {' '.join(defect['argv'])}: "
                  f"{defect['failure'][1]}", file=sys.stderr)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": props,
        "rounds": len(res["round_s"]),
        "round_s": res["round_s"],
        "failed_ratio": {
            "value": len(failures) / attempted, "failed": len(failures), "attempted": attempted},
        "failing_inputs": failing_inputs,
        "known_defects": res.get("known_defects", []),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    })
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
