"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of each `tcalab` module, and
the public methods and arithmetic operators of its classes, in a span that
records (id, parent, operation, name, start, end).  A function imported by
name into another module (`quiver` and `ktheory` import `is_strip`,
`remove_strips` and `lr_expand` that way) is patched in every namespace
that holds it.  Functions under `functools.lru_cache` are left alone inside
the package, because a wrapper would sit between the cache and the
function's own recursion; their work is counted from `cache_info()`, and
only the benchmark's own calls into them get a span.

A layer is a module.  Its self time is the duration of its spans minus the
time covered by their child spans.  Spans are kept in memory up to
`retain` and written out at the end; counts and self times cover every
span.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = (
    "partitions",
    "symchar",
    "polynomials",
    "ktheory",
    "hilbert",
    "homalg",
    "quiver",
    "linalg",
    "cli",
)

# metric prefix -> (module, name) of every lru_cache in the package
LRU_CACHES = {
    "partitions.cache": ("partitions", "_partitions_cached"),
    "symchar.mn": ("symchar", "_mn"),
    "symchar.rim_hook": ("symchar", "_rim_hook_removals"),
    "symchar.lr_expand": ("symchar", "lr_expand"),
    "hilbert.char_poly": ("hilbert", "char_poly_simple"),
    "hilbert.enhanced": ("hilbert", "enhanced_of_simple"),
    "polynomials.exp_t0": ("polynomials", "exp_t0_truncated"),
}

_OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}


def lru_caches() -> dict:
    """The seven cached functions, by metric prefix."""
    return {
        key: getattr(importlib.import_module(f"tcalab.{mod}"), name)
        for key, (mod, name) in LRU_CACHES.items()
    }


def _entries(args, result) -> int:
    """Matrix entries handed to linalg.rank / linalg.nullspace."""
    a = args[0]
    cols = len(a[0]) if a else (args[1] if len(args) > 1 else 0)
    return len(a) * cols


def _terms(args, result) -> int:
    """Terms of an MPoly sum or product."""
    return len(result.terms)


def _vertices(args, result) -> int:
    """Vertices of a quiver truncation."""
    return len(result)


# wrapped name -> (meter, amount of work one call adds to it)
_METERS = {
    "quiver.VertexSet.up_to_size": ("quiver.vertices", _vertices),
    "linalg.rank": ("linalg.entries", _entries),
    "linalg.nullspace": ("linalg.entries", _entries),
    "polynomials.MPoly.__mul__": ("polynomials.terms_out", _terms),
    "polynomials.MPoly.__add__": ("polynomials.terms_out", _terms),
}


class Tracer:
    def __init__(self, retain: int = 50_000):
        self.retain = retain
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.meters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op = -1
        # each frame is [span id, time covered by child spans]
        self.stack: list[list] = [[-1, 0.0]]

    # -- wrapping

    def _wrap(self, name: str, layer: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        meter = _METERS.get(name)
        if meter:
            self.meters.setdefault(meter[0], 0)
        calls, self_s, stack, spans, meters = (
            self.calls, self.self_s, self.stack, self.spans, self.meters)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            sid = tracer.span_count
            tracer.span_count = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[fid] += dur - frame[1]
                parent[1] += dur
                if sid < tracer.retain:
                    spans.append((sid, parent[0], tracer.op, fid, start, end))
            if meter:
                meters[meter[0]] += meter[1](args, result)
            return result

        return traced

    def install(self, bench_namespaces: list[dict]) -> None:
        modules = {layer: importlib.import_module(f"tcalab.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        for ns in [vars(m) for m in modules.values()] + bench_namespaces:
            for name, obj in list(ns.items()):
                if id(obj) in replaced:
                    ns[name] = replaced[id(obj)]
        for ns in bench_namespaces:
            for name, obj in list(ns.items()):
                mod = getattr(obj, "__module__", "") or ""
                if isinstance(obj, functools._lru_cache_wrapper) and mod.startswith("tcalab."):
                    layer = mod.split(".", 1)[1]
                    ns[name] = self._wrap(f"{layer}.{name}", layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                setattr(cls, attr, self._wrap(name, layer, val))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, layer, val.__func__)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, layer, val.__func__)))

    # -- results

    def summary(self) -> dict:
        """Aggregates over every span: calls and self time per name, self
        time per layer, meters."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            layer_self[self.layer_of[fid]] += self.self_s[fid]
            calls[name] = calls.get(name, 0) + self.calls[fid]
            self_s[name] = self_s.get(name, 0.0) + self.self_s[fid]
        return {
            "calls": calls,
            "self_s": self_s,
            "layer_self_s": layer_self,
            "meters": dict(self.meters),
            "spans_total": self.span_count,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, operation, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, op, fid, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, self.names[fid], start, end]) + "\n")


def empty_summary() -> dict:
    return {"calls": {}, "self_s": {}, "layer_self_s": {}, "meters": {}, "spans_total": 0}


def merge(total: dict, part: dict) -> None:
    """Add one summary into another (for the per-request CLI children)."""
    for key in ("calls", "self_s", "layer_self_s", "meters"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["spans_total"] += part["spans_total"]
