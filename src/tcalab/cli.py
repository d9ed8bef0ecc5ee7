"""Command line frontend with stable JSON output.

Every subcommand validates its inputs, computes through the library, and
prints one JSON document (schema-tagged) to stdout; diagnostics go to
stderr.  Exit codes: 0 success, 2 input error or a request that runs out of
memory, 3 internal invariant violation (`tcalab.InternalError`) or any
other failure.

Each subcommand, and each `ktheory` and `quiver` operation, is one row of
`COMMANDS`, from which the parser and the operand-count check are derived.
A handler imports the layer that answers it, so a request loads only that
layer; the module itself loads only `tcalab` and `tcalab.partitions`.

Class specifications are signed sums of basis symbols:

    S[2,1]   simple (torsion) class
    P[2,1]   projective class (free module on the Schur functor)
    L[2,1]   simple class in the quotient category
    Q[2,1]   injective class in the quotient category

e.g. "P[2,1]-S[1]" or "2Q[1]+Q[2]".  S/P specs form module classes; L/Q
specs form K-classes of the quotient category and cannot be mixed with S/P.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import InternalError, __version__
from .partitions import Partition, bgg_resolution, parse_partition, size

SCHEMA = "tcalab/1"


class InputError(ValueError):
    pass


def _nonneg_int(text: str) -> int:
    """argparse type of every count and bound: a non-negative integer."""
    if not re.fullmatch(r"\s*\+?\d+\s*", text):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _default_trunc() -> int:
    try:
        return _nonneg_int(os.environ.get("TCALAB_TRUNC", "12"))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"TCALAB_TRUNC {exc}")


def _partition(text: str) -> Partition:
    """A partition operand or class-spec term, refused before any work when
    a part is sys.maxsize or more: a range over the boxes of its row would
    hold more items than an index can count."""
    lam = parse_partition(text)
    if lam and lam[0] >= sys.maxsize:
        raise InputError(f"part {lam[0]} is too large: parts must be below {sys.maxsize}")
    return lam


class _Parser(argparse.ArgumentParser):
    """Ends a usage error like any input error: exit 2, one-line JSON."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


_TERM_RE = re.compile(r"([+-]?)\s*(\d*)\s*([SPLQ])\[([0-9,\s]*)\]")


def _symbol_sums(spec: str) -> dict[str, dict[Partition, int]]:
    """The coefficient of each partition under each symbol letter of a
    signed sum of S/P/L/Q symbols, zero sums kept."""
    pos = 0
    terms: list[tuple[int, str, Partition]] = []
    for m in _TERM_RE.finditer(spec):
        if spec[pos : m.start()].strip():
            raise InputError(f"cannot parse class spec near {spec[pos:m.start()]!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        terms.append((sign * mag, m.group(3), _partition(m.group(4))))
        pos = m.end()
    if spec[pos:].strip() or not terms:
        raise InputError(f"cannot parse class spec {spec!r}")
    coeffs: dict[str, dict[Partition, int]] = {}
    for c, k, p in terms:
        kind = coeffs.setdefault(k, {})
        kind[p] = kind.get(p, 0) + c
    return coeffs


_MIXED_BASES = "class spec must use only S/P symbols or a single K-theory basis"


def parse_class_spec(spec: str):
    """Parse a signed sum of S/P (module class) or L/Q (K-class) symbols."""
    from .ktheory import AClass, KClassK, L_BASIS, Q_BASIS
    from .symchar import VClass

    coeffs = _symbol_sums(spec)
    if set(coeffs) <= {"S", "P"}:
        return AClass(VClass(coeffs.get("S")), VClass(coeffs.get("P")))
    if set(coeffs) in ({L_BASIS}, {Q_BASIS}):
        (basis,) = coeffs
        return KClassK(basis, coeffs[basis])
    raise InputError(_MIXED_BASES)


def _basis_sums(op: str, spec: str) -> tuple[str, dict[Partition, int]]:
    """The basis letter (L or Q) of spec and its nonzero coefficients,
    refused unless spec uses that one basis alone."""
    coeffs = _symbol_sums(spec)
    if set(coeffs) <= {"S", "P"}:
        raise InputError(f"{op} expects an L or Q class spec, got {spec!r}")
    if set(coeffs) not in ({"L"}, {"Q"}):
        raise InputError(_MIXED_BASES)
    ((basis, sums),) = coeffs.items()
    return basis, {p: c for p, c in sums.items() if c}


def _k_class(op: str, spec: str):
    """spec as an L or Q class, refused otherwise."""
    from .ktheory import KClassK

    return KClassK(*_basis_sums(op, spec))


def _terms_json(x) -> list[dict]:
    return [{"partition": list(p), "coeff": c} for p, c in x.items()]


def _kclass_json(x) -> dict:
    return {"basis": x.basis, "terms": _terms_json(x)}


def _emit(doc: dict, table: bool = False) -> None:
    doc = {"schema": SCHEMA, **doc}
    if table:
        for key, value in doc.items():
            print(f"{key}: {json.dumps(value, sort_keys=True, allow_nan=False)}")
    else:
        print(json.dumps(doc, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# Handlers: each takes its row's operands and options, in the row's order


def _charpoly(partition):
    from .hilbert import char_poly_simple, monomial_form

    lam = _partition(partition)
    return {
        "command": "charpoly",
        "partition": list(lam),
        "char_poly": monomial_form(char_poly_simple(lam)).to_json(),
    }


def _hilbert(class_spec):
    from .hilbert import enhanced_of_class, series_form
    from .ktheory import AClass

    cls = parse_class_spec(class_spec)
    if not isinstance(cls, AClass):
        raise InputError("hilbert expects an S/P class spec")
    series = enhanced_of_class(cls)
    return {"command": "hilbert", "p": series_form(series.p).to_json(),
            "q": series_form(series.q).to_json()}


def _modify(partition, n):
    from .hilbert import modification

    lam = _partition(partition)
    out = modification(lam, n)
    doc = {"command": "modify", "partition": list(lam), "n": n}
    if out is None:
        doc["result"] = "zero"
    else:
        sign, target = out
        doc.update(result="nonzero", sign=sign, target=list(target))
    return doc


def _localcoh(partition, d):
    from .homalg import local_cohomology

    lam = _partition(partition)
    table = local_cohomology(lam, d)
    return {
        "command": "localcoh",
        "partition": list(lam),
        "d": d,
        "rows": {
            str(i): {
                "partitions": [list(p) for p in table.rows[i]],
                "generator": list(table.generator[i]),
            }
            for i in sorted(table.rows)
        },
    }


def _depth(partition, d):
    from .homalg import depth

    lam = _partition(partition)
    doc = {"command": "depth", "partition": list(lam), "d": d, "depth": depth(lam, d)}
    if doc["depth"] == math.inf:
        doc.update(depth=None, infinite=True)
    return doc


def _bgg(partition):
    lam = _partition(partition)
    res = bgg_resolution(lam)
    return {
        "command": "bgg",
        "partition": list(lam),
        "terms": [[list(p) for p in term] for term in res.terms],
        "signs": [
            {"from": list(a), "to": list(b), "sign": s}
            for (a, b), s in sorted(res.signs.items())
        ],
    }


def _conv(spec):
    from .ktheory import Q_BASIS, l_to_q, q_to_l

    cls = _k_class("conv", spec)
    out = q_to_l(cls) if cls.basis == Q_BASIS else l_to_q(cls)
    return {"command": "ktheory.conv", "result": _kclass_json(out)}


def _mult(x, y):
    from .ktheory import k_product

    product = k_product(_k_class("mult", x), _k_class("mult", y))
    return {"command": "ktheory.mult", "result": _kclass_json(product)}


def _pair(x, y):
    from .ktheory import pairing

    return {"command": "ktheory.pair", "value": pairing(_k_class("pair", x), _k_class("pair", y))}


def _fourier(class_spec):
    from .ktheory import KClassK, fourier_K

    cls = parse_class_spec(class_spec)
    if isinstance(cls, KClassK):
        return {"command": "fourier", "result": _kclass_json(fourier_K(cls))}
    from .homalg import fourier_class

    out = fourier_class(cls)
    return {
        "command": "fourier",
        "result": {
            "torsion": _terms_json(out.torsion),
            "projective": _terms_json(out.projective),
        },
    }


def _efw(alpha, e, bound):
    from .homalg import efw_resolution

    alpha = _partition(alpha)
    shape = efw_resolution(alpha, e, bound)
    return {"command": "efw", "alpha": list(alpha), "e": e, "shape": shape.to_json()}


def _poincare(alpha, e, trunc):
    from .homalg import efw_resolution, poincare_truncated

    alpha = _partition(alpha)
    bound = trunc if trunc is not None else _default_trunc()
    shape = efw_resolution(alpha, e, bound + len(alpha) + 2)
    series = poincare_truncated(shape, bound)
    return {
        "command": "poincare",
        "alpha": list(alpha),
        "e": e,
        "trunc": bound,
        "coefficients": series.to_json(),
    }


def _hom(lam, mu):
    from .quiver import VertexSet, build_injective, hom_space

    lam, mu = _partition(lam), _partition(mu)
    # any truncation holding both injectives gives the same dimension
    vs = VertexSet.up_to_size(max(size(lam), size(mu)))
    dim, _ = hom_space(build_injective(lam, vs), build_injective(mu, vs))
    return {"command": "quiver.hom", "dimension": dim}


def _socle(spec):
    from .quiver import VertexSet, build_injective, build_simple, socle

    basis, sums = _basis_sums("socle", spec)
    items = list(sums.items())
    if len(items) != 1 or items[0][1] != 1:
        raise InputError("socle expects a single basis symbol")
    lam = items[0][0]
    build = build_injective if basis == "Q" else build_simple
    soc = socle(build(lam, VertexSet.up_to_size(size(lam))))
    return {
        "command": "quiver.socle",
        "socle": [
            {"partition": list(p), "multiplicity": m}
            for p, m in sorted(soc.items(), key=lambda kv: (size(kv[0]), kv[0]))
        ],
    }


def _verify_bgg(partition):
    from .quiver import complex_cohomology, realize_bgg

    lam = _partition(partition)
    cohom = complex_cohomology(realize_bgg(lam))
    if cohom[0] != {lam: 1} or any(cohom[1:]):
        raise InternalError(f"resolution of {lam} has wrong cohomology")
    return {
        "command": "quiver.verify-bgg",
        "partition": list(lam),
        "d2_zero": True,
        "cohomology": [
            [{"partition": list(p), "multiplicity": m} for p, m in sorted(h.items())]
            for h in cohom
        ],
    }


def _selftest(cap):
    from .selftest import run_selftest

    if cap < 1:
        raise InputError(f"selftest size must be at least 1, got {cap}")
    failures = run_selftest(cap, log=sys.stderr)
    if failures:
        raise InternalError("; ".join(failures))
    return {"command": "selftest", "size": cap, "ok": True}


# name: (help, arguments, handler).  An argument is an operand's name, an
# (operand, type) pair, or an (--option, default) pair whose value is a
# non-negative integer; the handler takes them in this order.  In place of a
# handler, `ktheory` and `quiver` map each operation to its operand count
# and its handler, which takes the operands.
COMMANDS = {
    "charpoly": ("character polynomial of a simple", ["partition"], _charpoly),
    "hilbert": ("enhanced Hilbert series of a class", ["class_spec"], _hilbert),
    "modify": ("below-threshold character data", ["partition", ("n", _nonneg_int)], _modify),
    "localcoh": ("local cohomology table of a tail module", ["partition", ("d", int)], _localcoh),
    "depth": ("depth of a tail module", ["partition", ("d", int)], _depth),
    "bgg": ("injective resolution data of a simple", ["partition"], _bgg),
    "ktheory": ("basis conversion, products, pairing", [], {
        "conv": (1, _conv),
        "mult": (2, _mult),
        "pair": (2, _pair),
    }),
    "fourier": ("Fourier transform of a class", ["class_spec"], _fourier),
    "efw": ("resolution shape of a Pieri cokernel", ["alpha", ("e", int), ("--bound", 8)], _efw),
    "poincare": ("truncated Poincare series", ["alpha", ("e", int), ("--trunc", None)], _poincare),
    "quiver": ("hom spaces, socles, resolution checks", [], {
        "hom": (2, _hom),
        "socle": (1, _socle),
        "verify-bgg": (1, _verify_bgg),
    }),
    "selftest": ("cross-module invariant suite", [("--size", 5)], _selftest),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tcalab",
        description="exact invariants of equivariant modules over Sym(C^inf)",
    )
    ap.add_argument("--version", action="version", version=f"tcalab {__version__}")
    ap.add_argument(
        "--format", choices=("json", "table"), default="json", dest="format"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if isinstance(handler, dict):
            p.add_argument("op", choices=tuple(handler))
            p.add_argument("args", nargs="*")
        for arg in arguments:
            flag, kind = (arg, None) if isinstance(arg, str) else arg
            if flag.startswith("--"):
                p.add_argument(flag, type=_nonneg_int, default=kind)
            else:
                p.add_argument(flag, type=kind)
    return ap


def _answer(args: argparse.Namespace) -> dict:
    """The document of the parsed request; an operation's operands are
    counted before any work."""
    _, arguments, handler = COMMANDS[args.command]
    if isinstance(handler, dict):
        want, run = handler[args.op]
        if len(args.args) != want:
            raise InputError(f"{args.op} takes {want} operand(s), got {len(args.args)}")
        return run(*args.args)
    names = (arg if isinstance(arg, str) else arg[0] for arg in arguments)
    return handler(*(getattr(args, name.lstrip("-")) for name in names))


def _fail(code: int, **doc) -> int:
    """Report a failed request as one JSON line on stderr; returns code."""
    print(json.dumps({"schema": SCHEMA, **doc}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version
            return exc.code if isinstance(exc.code, int) else 2
        _emit(_answer(args), table=(args.format == "table"))
    except InternalError as exc:
        return _fail(3, invariant_violation=str(exc))
    except ValueError as exc:
        return _fail(2, error=str(exc))
    except MemoryError:  # input too large for this machine; no invariant failed
        return _fail(2, error="not enough memory for this request")
    except Exception as exc:  # any other failure is reported, never a traceback
        return _fail(3, internal_error=type(exc).__name__, message=str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
