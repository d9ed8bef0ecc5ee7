"""The names the benchmark tracer reads from the package still resolve.

`perfbench/spans.py` (standard library only) looks up every lru_cache by
module and name and meters `.terms` on each `MPoly` product; a rename
there would crash or silently zero every traced benchmark run.
"""

import functools
import importlib.util
from pathlib import Path

from tcalab.polynomials import MPoly


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_named_cache_is_an_lru_cache():
    caches = spans.lru_caches()
    assert set(caches) == set(spans.LRU_CACHES)
    for key, fn in caches.items():
        assert isinstance(fn, functools._lru_cache_wrapper), key


def test_products_expose_their_terms():
    x, y = MPoly.variable(1), MPoly.variable(2)
    product = (x + y) * (x - y)
    assert spans._terms((x + y, x - y), product) == 2
