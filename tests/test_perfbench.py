"""The names the benchmark tracer reads from the package still resolve,
and every cache in the package is among them.

`perfbench/spans.py` (standard library only) looks up every lru_cache by
module and name and meters `.terms` on each `MPoly` product; a rename
there would crash or silently zero every traced benchmark run.
"""

import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import tcalab
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
    x, y = MPoly.variable(1), MPoly.variable(2)
    product = (x + y) * (x - y)
    assert spans._terms((x + y, x - y), product) == 2
