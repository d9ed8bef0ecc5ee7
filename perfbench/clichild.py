"""One traced or memory-measured CLI request, for the traced run of
`cli-oneshot`.

    python clichild.py trace|memory <tcalab arguments...>

Runs `tcalab.cli.main` on the arguments exactly as `python -m tcalab.cli`
would, then writes one line to stderr: the marker `PERFBENCH-TRACE ` and a
JSON summary of the spans (mode `trace`) or the tracemalloc peak (mode
`memory`), plus the cache counters of the request.
"""

import json
import sys
import tracemalloc

import spans

MODE = sys.argv[1]
if MODE == "memory":
    tracemalloc.start()

from tcalab import cli  # noqa: E402  (imported under tracemalloc on purpose)

tracer = spans.Tracer(retain=0)
if MODE == "trace":
    tracer.install([])
rc = cli.main(sys.argv[2:])
summary = {"trace": tracer.summary()}
if MODE == "memory":
    summary["tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
infos = {key: fn.cache_info() for key, fn in spans.lru_caches().items()}
summary["cache"] = {
    "counts": {key: [info.hits, info.misses] for key, info in infos.items()},
    "entries_total": sum(info.currsize for info in infos.values()),
}
sys.stdout.flush()
print("PERFBENCH-TRACE " + json.dumps(summary), file=sys.stderr)
sys.exit(rc)
