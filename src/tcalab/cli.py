"""Command line frontend with stable JSON output.

Every subcommand validates its inputs, computes through the library, and
prints one JSON document (schema-tagged) to stdout; diagnostics go to
stderr.  Exit codes: 0 success, 2 input error, 3 internal invariant
violation.

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

from . import __version__, homalg, hilbert, ktheory, quiver
from .ktheory import AClass, KClassK, L_BASIS, Q_BASIS
from .partitions import Partition, bgg_resolution, parse_partition, size
from .symchar import Combination, VClass

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


class _Parser(argparse.ArgumentParser):
    """Ends a usage error like any input error: exit 2, one-line JSON."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


_TERM_RE = re.compile(r"([+-]?)\s*(\d*)\s*([SPLQ])\[([0-9,\s]*)\]")


def parse_class_spec(spec: str) -> AClass | KClassK:
    """Parse a signed sum of S/P (module class) or L/Q (K-class) symbols."""
    pos = 0
    terms: list[tuple[int, str, Partition]] = []
    for m in _TERM_RE.finditer(spec):
        if spec[pos : m.start()].strip():
            raise InputError(f"cannot parse class spec near {spec[pos:m.start()]!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        terms.append((sign * mag, m.group(3), parse_partition(m.group(4))))
        pos = m.end()
    if spec[pos:].strip() or not terms:
        raise InputError(f"cannot parse class spec {spec!r}")
    coeffs: dict[str, dict[Partition, int]] = {}
    for c, k, p in terms:
        kind = coeffs.setdefault(k, {})
        kind[p] = kind.get(p, 0) + c
    if set(coeffs) <= {"S", "P"}:
        return AClass(VClass(coeffs.get("S")), VClass(coeffs.get("P")))
    if set(coeffs) in ({L_BASIS}, {Q_BASIS}):
        (basis,) = coeffs
        return KClassK(basis, coeffs[basis])
    raise InputError(
        "class spec must use only S/P symbols or a single K-theory basis"
    )


# ---------------------------------------------------------------------------
# Serialization helpers


def _terms_json(x: Combination) -> list[dict]:
    return [{"partition": list(p), "coeff": c} for p, c in x.items()]


def _kclass_json(x: KClassK) -> dict:
    return {"basis": x.basis, "terms": _terms_json(x)}


def _aclass_json(x: AClass) -> dict:
    return {
        "torsion": _terms_json(x.torsion),
        "projective": _terms_json(x.projective),
    }


def _emit(doc: dict, table: bool = False) -> None:
    doc = {"schema": SCHEMA, **doc}
    if table:
        for key, value in doc.items():
            print(f"{key}: {json.dumps(value, sort_keys=True, allow_nan=False)}")
    else:
        print(json.dumps(doc, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# Subcommands

# operand count of each `ktheory` and `quiver` operation
_ARITY = {"conv": 1, "mult": 2, "pair": 2, "hom": 2, "socle": 1, "verify-bgg": 1}


def _operands(args) -> list[str]:
    """The operands of args.op, refused before any work if miscounted."""
    want = _ARITY[args.op]
    if len(args.args) != want:
        raise InputError(f"{args.op} takes {want} operand(s), got {len(args.args)}")
    return args.args


def _cmd_charpoly(args) -> dict:
    lam = parse_partition(args.partition)
    return {
        "command": "charpoly",
        "partition": list(lam),
        "char_poly": hilbert.char_poly_simple(lam).to_json(),
    }


def _cmd_hilbert(args) -> dict:
    cls = parse_class_spec(args.class_spec)
    if not isinstance(cls, AClass):
        raise InputError("hilbert expects an S/P class spec")
    series = hilbert.enhanced_of_class(cls)
    return {
        "command": "hilbert",
        "p": series.p.to_json(),
        "q": series.q.to_json(),
    }


def _cmd_modify(args) -> dict:
    lam = parse_partition(args.partition)
    out = hilbert.modification(lam, args.n)
    doc = {"command": "modify", "partition": list(lam), "n": args.n}
    if out is None:
        doc["result"] = "zero"
    else:
        sign, target = out
        doc.update(result="nonzero", sign=sign, target=list(target))
    return doc


def _cmd_localcoh(args) -> dict:
    lam = parse_partition(args.partition)
    table = homalg.local_cohomology(lam, args.d)
    return {
        "command": "localcoh",
        "partition": list(lam),
        "d": args.d,
        "rows": {
            str(i): {
                "partitions": [list(p) for p in table.rows[i]],
                "generator": list(table.generator[i]),
            }
            for i in sorted(table.rows)
        },
    }


def _cmd_depth(args) -> dict:
    lam = parse_partition(args.partition)
    depth = homalg.depth(lam, args.d)
    doc = {"command": "depth", "partition": list(lam), "d": args.d, "depth": depth}
    if depth == math.inf:
        doc.update(depth=None, infinite=True)
    return doc


def _cmd_bgg(args) -> dict:
    lam = parse_partition(args.partition)
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


def _cmd_ktheory(args) -> dict:
    operands = _operands(args)
    if args.op == "conv":
        cls = parse_class_spec(operands[0])
        if not isinstance(cls, KClassK):
            raise InputError("conv expects an L or Q class spec")
        out = ktheory.q_to_l(cls) if cls.basis == Q_BASIS else ktheory.l_to_q(cls)
        return {"command": "ktheory.conv", "result": _kclass_json(out)}
    if args.op == "mult":
        x, y = (parse_class_spec(a) for a in operands)
        if not (isinstance(x, KClassK) and isinstance(y, KClassK)):
            raise InputError("mult expects two K-class specs")
        return {"command": "ktheory.mult", "result": _kclass_json(ktheory.k_product(x, y))}
    if args.op == "pair":
        x, y = (parse_class_spec(a) for a in operands)
        if not (isinstance(x, KClassK) and isinstance(y, KClassK)):
            raise InputError("pair expects two K-class specs")
        return {"command": "ktheory.pair", "value": ktheory.pairing(x, y)}
    raise InputError(f"unknown ktheory operation {args.op!r}")


def _cmd_fourier(args) -> dict:
    cls = parse_class_spec(args.class_spec)
    if isinstance(cls, KClassK):
        return {
            "command": "fourier",
            "result": _kclass_json(ktheory.fourier_K(cls)),
        }
    return {
        "command": "fourier",
        "result": _aclass_json(homalg.fourier_class(cls)),
    }


def _cmd_efw(args) -> dict:
    alpha = parse_partition(args.alpha)
    shape = homalg.efw_resolution(alpha, args.e, args.bound)
    return {
        "command": "efw",
        "alpha": list(alpha),
        "e": args.e,
        "shape": shape.to_json(),
    }


def _cmd_poincare(args) -> dict:
    alpha = parse_partition(args.alpha)
    bound = args.trunc if args.trunc is not None else _default_trunc()
    shape = homalg.efw_resolution(alpha, args.e, bound + len(alpha) + 2)
    series = homalg.poincare_truncated(shape, bound)
    return {
        "command": "poincare",
        "alpha": list(alpha),
        "e": args.e,
        "trunc": bound,
        "coefficients": series.to_json(),
    }


def _cmd_quiver(args) -> dict:
    operands = _operands(args)
    if args.op == "hom":
        lam, mu = (parse_partition(a) for a in operands)
        # any truncation holding both injectives gives the same dimension
        vs = quiver.VertexSet.up_to_size(max(size(lam), size(mu)))
        dim, _ = quiver.hom_space(
            quiver.build_injective(lam, vs), quiver.build_injective(mu, vs)
        )
        return {"command": "quiver.hom", "dimension": dim}
    if args.op == "socle":
        cls = parse_class_spec(operands[0])
        if not isinstance(cls, KClassK):
            raise InputError("socle expects an L or Q basis symbol")
        items = cls.items()
        if len(items) != 1 or items[0][1] != 1:
            raise InputError("socle expects a single basis symbol")
        lam = items[0][0]
        vs = quiver.VertexSet.up_to_size(size(lam))
        rep = (
            quiver.build_injective(lam, vs)
            if cls.basis == Q_BASIS
            else quiver.build_simple(lam, vs)
        )
        soc = quiver.socle(rep)
        return {
            "command": "quiver.socle",
            "socle": [
                {"partition": list(p), "multiplicity": m}
                for p, m in sorted(soc.items(), key=lambda kv: (size(kv[0]), kv[0]))
            ],
        }
    if args.op == "verify-bgg":
        lam = parse_partition(operands[0])
        cx = quiver.realize_bgg(lam)
        cohom = quiver.complex_cohomology(cx)
        ok = cohom[0] == {lam: 1} and all(not h for h in cohom[1:])
        if not ok:
            raise AssertionError(f"resolution of {lam} has wrong cohomology")
        return {
            "command": "quiver.verify-bgg",
            "partition": list(lam),
            "d2_zero": True,
            "cohomology": [
                [
                    {"partition": list(p), "multiplicity": m}
                    for p, m in sorted(h.items())
                ]
                for h in cohom
            ],
        }
    raise InputError(f"unknown quiver operation {args.op!r}")


def _cmd_selftest(args) -> dict:
    from .selftest import run_selftest

    if args.size < 1:
        raise InputError(f"selftest size must be at least 1, got {args.size}")
    failures = run_selftest(args.size, log=sys.stderr)
    if failures:
        raise AssertionError("; ".join(failures))
    return {"command": "selftest", "size": args.size, "ok": True}


# ---------------------------------------------------------------------------


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

    p = sub.add_parser("charpoly", help="character polynomial of a simple")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_charpoly)

    p = sub.add_parser("hilbert", help="enhanced Hilbert series of a class")
    p.add_argument("class_spec")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("modify", help="below-threshold character data")
    p.add_argument("partition")
    p.add_argument("n", type=_nonneg_int)
    p.set_defaults(fn=_cmd_modify)

    p = sub.add_parser("localcoh", help="local cohomology table of a tail module")
    p.add_argument("partition")
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_localcoh)

    p = sub.add_parser("depth", help="depth of a tail module")
    p.add_argument("partition")
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("bgg", help="injective resolution data of a simple")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_bgg)

    p = sub.add_parser("ktheory", help="basis conversion, products, pairing")
    p.add_argument("op", choices=("conv", "mult", "pair"))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_cmd_ktheory)

    p = sub.add_parser("fourier", help="Fourier transform of a class")
    p.add_argument("class_spec")
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("efw", help="resolution shape of a Pieri cokernel")
    p.add_argument("alpha")
    p.add_argument("e", type=int)
    p.add_argument("--bound", type=_nonneg_int, default=8)
    p.set_defaults(fn=_cmd_efw)

    p = sub.add_parser("poincare", help="truncated Poincare series")
    p.add_argument("alpha")
    p.add_argument("e", type=int)
    p.add_argument("--trunc", type=_nonneg_int, default=None)
    p.set_defaults(fn=_cmd_poincare)

    p = sub.add_parser("quiver", help="hom spaces, socles, resolution checks")
    p.add_argument("op", choices=("hom", "socle", "verify-bgg"))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_cmd_quiver)

    p = sub.add_parser("selftest", help="cross-module invariant suite")
    p.add_argument("--size", type=_nonneg_int, default=5)
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv: list[str] | None = None) -> int:
    internal = (AssertionError, quiver.RelationError, quiver.NotAComplexError)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version
            return exc.code if isinstance(exc.code, int) else 2
        _emit(args.fn(args), table=(args.format == "table"))
    except internal as exc:
        print(
            json.dumps({"schema": SCHEMA, "invariant_violation": str(exc)}),
            file=sys.stderr,
        )
        return 3
    except (InputError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is reported, never a traceback
        fault = {"schema": SCHEMA, "internal_error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(fault), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
