"""The names the benchmark tracer reads from the package still resolve,
and every cache in the package is among them.

`perfbench/spans.py` (standard library only) looks up every lru_cache by
module and name, meters `.terms` on each `MPoly` result and `len` of
each vertex set; a rename there would crash or silently zero every traced
benchmark run.  The per-operation timer `scripts/op_times.py` runs a round
of each in-process workload.
"""

import functools
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tcalab
from tcalab.polynomials import MPoly
from tcalab.quiver import VertexSet

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


def test_every_named_cache_is_an_lru_cache():
    caches = spans.lru_caches()
    assert set(caches) == set(spans.LRU_CACHES)
    for key, fn in caches.items():
        assert isinstance(fn, functools._lru_cache_wrapper), key


def test_every_package_cache_is_named():
    """An lru_cache missing from LRU_CACHES is not cleared between the
    benchmark's cold rounds, so it would stay warm and hide first-call cost."""
    defined = set()
    for info in pkgutil.iter_modules(tcalab.__path__):
        module = importlib.import_module(f"tcalab.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, functools._lru_cache_wrapper)
                    and obj.__module__ == module.__name__):
                defined.add((info.name, name))
    assert defined
    assert defined <= set(spans.LRU_CACHES.values())


def test_products_expose_their_terms():
    # the polynomials.terms_out meter reads `.terms` of each MPoly result
    x, y = MPoly.monomial({1: 1}, 1), MPoly.monomial({2: 1}, 1)
    assert spans._terms((x, y), x + y) == 2


def test_vertex_sets_expose_their_size():
    # the quiver.vertices meter reads len() of every up_to_size result
    assert spans._vertices((), VertexSet.up_to_size(3)) == 7


@pytest.mark.parametrize("workload", ["quiver-verify", "character-sweep"])
def test_op_times_runs_a_round(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_times.py"), workload, "1", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:4]] == [
        "throughput_ops_s", "latency_p50_ms", "latency_tail_ms"]
    kinds = lines[lines.index("kind count best_ms_sum") + 1:]
    printed = {kind: int(count) for kind, count, _ in map(str.split, kinds)}
    gen = _load("gen")
    mix = gen.properties(workload, gen.generate(workload, 1))["mix"]
    assert printed == mix
    # the tail operation and the ten beyond it, between the metrics and the kinds
    assert lines[4] == "kind best_ms input"
    slowest = [line.split(" ", 2) for line in lines[5:lines.index("kind count best_ms_sum")]]
    assert len(slowest) == 11
    assert all(kind in mix for kind, _, _ in slowest)
    assert slowest[0][1] == lines[3].split()[1]
    assert [float(ms) for _, ms, _ in slowest] == sorted(float(ms) for _, ms, _ in slowest)
