"""The workload process.

Reads one job as JSON on stdin, runs the round of operations it holds
again and again for the given time, one operation at a time (a closed
loop with a single client), and writes the measurements as JSON on stdout.

Every round starts with all seven `lru_cache`s cleared, so each round
sees the same cold-cache stream and its within-round repeats.  The
`cli-oneshot` round runs each request as a fresh `python -m tcalab.cli`
subprocess; the answers it must print are computed in this process with
the library before the timed phase.

Between the operations of untraced rounds it times the host reference
(hostref.py) every 50 ms and spawns the set-up probes.  With tracing on, the time is split: untraced
rounds first, then one round under tracemalloc, then traced rounds (see
spans.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import gen
import spans
from hostref import HostReference

HERE = Path(__file__).resolve().parent
TRACE_MARK = "PERFBENCH-TRACE "


def run_rounds(ops, seconds, execute, reset, after_round=None, between_ops=None) -> dict:
    """Whole rounds until the next one would end past `seconds`; at least one.
    `latency_s[r][i]` is the time of operation i in round r; `between_ops`
    runs after each operation, outside its time and outside the round's."""
    round_s: list[float] = []
    latency_s: list[list[float]] = []
    failures: list[list] = []
    start = time.perf_counter()
    while True:
        reset()
        latency_s.append([])
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            s = time.perf_counter()
            failure = execute(i, op)
            latency_s[-1].append(time.perf_counter() - s)
            if failure:
                failures.append([i, *failure])
            if between_ops:
                p = time.perf_counter()
                between_ops()
                t0 += time.perf_counter() - p
        t1 = time.perf_counter()
        round_s.append(t1 - t0)
        if after_round:
            after_round()
        if t1 - start + (t1 - t0) > seconds:
            break
    return {
        "round_s": round_s,
        "latency_s": latency_s,
        "failures": failures,
        "attempted": len(round_s) * len(ops),
    }


class CacheStats:
    """Accumulates cache_info() of the seven caches over rounds."""

    def __init__(self):
        self.caches = spans.lru_caches()
        self.hits = {k: 0 for k in self.caches}
        self.misses = {k: 0 for k in self.caches}
        self.entries_total = 0

    def clear(self) -> None:
        for fn in self.caches.values():
            fn.cache_clear()

    def collect(self) -> None:
        infos = {key: fn.cache_info() for key, fn in self.caches.items()}
        self.add({key: [i.hits, i.misses] for key, i in infos.items()},
                 sum(i.currsize for i in infos.values()))

    def add(self, counts: dict, entries: int) -> None:
        for key, (hits, misses) in counts.items():
            self.hits[key] += hits
            self.misses[key] += misses
        self.entries_total = max(self.entries_total, entries)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries_total": self.entries_total}


SETUP_PROBES, SETUP_TRIES = 10, 3
SETUP_SPAWNS = SETUP_PROBES * SETUP_TRIES


class SetupProbes:
    """Fresh interpreters that import what the workload calls, spawned
    between operations at even intervals over the measured rounds, so that
    set-up is timed across the run as the operations are.  A time runs
    from the spawn to the end of the imports, on the shared monotonic
    clock.  Probe k is the best of spawns k, k + SETUP_PROBES, ..., which
    lie a third of the run apart."""

    def __init__(self, imports: str, seconds: float):
        self.code = f"import {imports}\nimport time\nprint(time.monotonic())"
        self.interval = seconds / (SETUP_SPAWNS + 1)
        self.times: list[float] = []
        self.spawn(record=False)  # warm-up

    def spawn(self, record: bool = True) -> None:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              text=True, timeout=120, check=True)
        if record:
            self.times.append(float(proc.stdout) - t0)
        self.last = time.perf_counter()

    def tick(self) -> None:
        if len(self.times) < SETUP_SPAWNS and time.perf_counter() - self.last >= self.interval:
            self.spawn()

    def probes(self) -> list[float]:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return [min(self.times[k::SETUP_PROBES]) for k in range(SETUP_PROBES)]


def measured_rounds(job: dict, execute, reset) -> dict:
    """The untraced rounds, with the host reference and the set-up probes
    taken between their operations."""
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    ref = HostReference()
    probes = SetupProbes(job["setup_imports"], seconds)

    def between_ops():
        ref.tick()
        probes.tick()

    out = run_rounds(job["ops"], seconds, execute, reset, between_ops=between_ops)
    out["setup_probe_s"] = probes.probes()
    out["reference_s"] = ref.samples
    return out


# ---------------------------------------------------------------------------
# In-process workloads


def run_in_process(job: dict) -> dict:
    import ops as ops_module

    ops = job["ops"]
    stats = CacheStats()

    def execute(i, op):
        return ops_module.run_op(op)

    seconds = job["seconds"]
    out = measured_rounds(job, execute, stats.clear)
    if not job["trace"]:
        return out

    tracemalloc.start()
    out["memory"] = run_rounds(ops, 0, execute, stats.clear)
    out["tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracer = spans.Tracer()
    tracer.install([vars(ops_module)])

    def traced(i, op):
        tracer.op = i
        return execute(i, op)

    stats = CacheStats()
    out["traced"] = run_rounds(ops, seconds / 2, traced, stats.clear, stats.collect)
    out["trace"] = tracer.summary()
    out["cache"] = stats.as_dict()
    spans_path = Path(job["out_dir"]) / f"spans-{job['workload']}-{job['seed']}.jsonl"
    tracer.write_spans(spans_path)
    out["spans_file"] = str(spans_path)
    return out


# ---------------------------------------------------------------------------
# cli-oneshot


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def library_answers(ops) -> list:
    """Exit code and document each request must produce, computed in this
    process by the library's own command functions."""
    from tcalab import cli

    answers = []
    for _, kind, argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        doc = json.loads(out.getvalue()) if rc == 0 else None
        # the documented contract: malformed input exits 2, valid input 0
        answers.append((2 if kind == "malformed" else 0, doc))
    return answers


def check_cli(proc, want_rc, want_doc):
    if proc.returncode != want_rc:
        return ["error", f"exit {proc.returncode}, expected {want_rc}"]
    if want_rc != 0:
        return ["error", "stdout not empty on a refused request"] if proc.stdout else None
    lines = proc.stdout.splitlines()
    if len(lines) != 1:
        return ["error", f"{len(lines)} stdout lines, expected one JSON document"]
    try:
        doc = json.loads(lines[0], parse_constant=_reject_constant)
    except ValueError as exc:
        return ["error", f"stdout is not strict JSON: {exc}"]
    if doc != want_doc:
        return ["wrong_answer", "answer differs from the library's"]
    return None


def run_cli(job: dict) -> dict:
    ops = job["ops"]
    answers = library_answers(ops)
    child_summaries: list[dict] = []

    def request(mode):
        def execute(i, op):
            argv = op[2]
            if mode is None:
                cmd = [sys.executable, "-m", "tcalab.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "clichild.py"), mode, *argv]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                return ["error", "timed out after 120 s"]
            if mode is not None:
                for line in proc.stderr.splitlines():
                    if line.startswith(TRACE_MARK):
                        child_summaries.append(json.loads(line[len(TRACE_MARK):]))
            return check_cli(proc, *answers[i])
        return execute

    defects = [["cli", "known-defect", argv] for argv in gen.KNOWN_DEFECTS]
    defect_answers = library_answers(defects)
    known = []
    for (_, _, argv), answer in zip(defects, defect_answers):
        proc = subprocess.run([sys.executable, "-m", "tcalab.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        known.append({"argv": argv, "failure": check_cli(proc, *answer)})

    seconds = job["seconds"]
    out = measured_rounds(job, request(None), lambda: None)
    out["known_defects"] = known
    # before any traced child: the largest plain request
    out["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not job["trace"]:
        return out
    out["memory"] = run_rounds(ops, 0, request("memory"), lambda: None)
    out["tracemalloc_peak_bytes"] = max(s["tracemalloc_peak_bytes"] for s in child_summaries)
    child_summaries.clear()
    out["traced"] = run_rounds(ops, seconds / 2, request("trace"), lambda: None)
    total = spans.empty_summary()
    stats = CacheStats()
    for s in child_summaries:
        spans.merge(total, s["trace"])
        stats.add(s["cache"]["counts"], s["cache"]["entries_total"])
    out["trace"] = total
    out["cache"] = stats.as_dict()
    return out


def main() -> int:
    job = json.load(sys.stdin)
    out = run_cli(job) if job["workload"] == "cli-oneshot" else run_in_process(job)
    for phase in ("memory", "traced"):
        if phase in out:
            out["attempted"] += out[phase]["attempted"]
            out["failures"] += out[phase]["failures"]
    out["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
