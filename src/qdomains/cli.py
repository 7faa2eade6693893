"""Command-line surface.

Subcommands: mul, normal-order, norm, radius, fock-norm, star, scan, and
verify.  Output goes to stdout as indent-2 JSON unless --out is given;
element results are written by serialize.element_text.  Exit codes are 0
(success), 1 (check failure), 2 (usage, resource or float overflow error).
numpy loads only in fock-norm, star, scan and verify, products of 256 pairs
or more, and word batches of 20 words or more (50 for profiles alone).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from functools import cache

from qdomains import spectral
from qdomains.deform_types import HSeriesElement
from qdomains.elements import (
    FreeElement,
    LaurentElement,
    QPolynomial,
    free_mul,
    laurent_mul,
    normal_order,
    qpoly_mul,
)
from qdomains.norms import FAMILIES, POLYDISK_L1, NormSpec, norm
from qdomains.qcombinat import EnumerationCapExceeded
from qdomains.serialize import (
    SchemaError,
    document_q,
    document_to_element,
    element_text,
)

FAMILY_ALIASES = {"polydisk": POLYDISK_L1, **{family: family for family in FAMILIES}}


class UsageError(Exception):
    pass


def _parse_q(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"cannot parse q from {text!r} (use RE or RE,IM)")


def _load_element(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return document_to_element(doc), doc


@contextmanager
def _writing(path: str, **kwargs):
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _emit_text(text: str, out_path: str | None):
    # print writes the text and then "\n", with no joined copy of a large text
    if out_path:
        with _writing(out_path) as handle:
            print(text, file=handle)
    else:
        print(text)


def _emit(payload, out_path: str | None):
    _emit_text(json.dumps(payload, indent=2), out_path)


def _family(name: str) -> str:
    if name not in FAMILY_ALIASES:
        raise UsageError(f"unknown norm family {name!r}")
    return FAMILY_ALIASES[name]


def _cmd_mul(args) -> int:
    if len(args.inputs) != 2:
        raise UsageError("mul needs exactly two --in documents")
    a, _ = _load_element(args.inputs[0])
    b, _ = _load_element(args.inputs[1])
    if type(a) is not type(b):
        raise UsageError("mul operands must share a kind")
    if isinstance(a, QPolynomial):
        result = qpoly_mul(a, b, degree_cap=args.degree_cap)
    elif isinstance(a, FreeElement):
        result = free_mul(a, b, length_cap=args.degree_cap)
    elif isinstance(a, LaurentElement):
        result = laurent_mul(a, b, degree_cap=args.degree_cap)
    else:
        raise UsageError("mul supports qpoly, free, and laurent documents")
    _emit_text(element_text(result), args.out)
    return 0


def _cmd_normal_order(args) -> int:
    element, doc = _load_element(args.input)
    if not isinstance(element, FreeElement):
        raise UsageError("normal-order expects a free document")
    q = _parse_q(args.q) if args.q else document_q(doc)
    if q is None:
        raise UsageError("normal-order needs q (document field or --q)")
    _emit_text(element_text(normal_order(element, q)), args.out)
    return 0


def _cmd_norm(args) -> int:
    element, _ = _load_element(args.input)
    spec = NormSpec(_family(args.family), args.rho, tau=args.tau, order=args.bign)
    try:
        value = norm(element, spec)
    except OverflowError:   # math.fsum's, where finite terms add up past the float range
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"the {spec.family} norm at rho = {spec.rho!r} leaves the float range")
    _emit({"family": spec.family, "rho": spec.rho, "norm": value}, args.out)
    return 0


def _cmd_radius(args) -> int:
    if args.tuple != "coords":
        raise UsageError("only the coordinate tuple is available from the CLI")
    family = _family(args.family)
    spec = NormSpec(family, args.rho, tau=args.tau)
    p = math.inf if args.p == "inf" else int(args.p)
    q = _parse_q(args.q)
    ts = spectral.coordinate_tuple(args.n, spec, p, max_depth=args.depth, q=q)
    values = spectral.radius_sequence(ts)
    _emit({"family": family, "rho": args.rho, "p": args.p,
           "depths": list(range(1, args.depth + 1)), "values": values}, args.out)
    return 0


def _cmd_fock_norm(args) -> int:
    element, _ = _load_element(args.input)
    if not isinstance(element, QPolynomial):
        raise UsageError("fock-norm expects a qpoly document")
    q = _parse_q(args.q)
    if q.imag != 0.0:
        raise UsageError(f"fock-norm needs a real q, got {args.q!r}")
    from qdomains import fock
    bounds = fock.op_norm_bounds(element, q.real, args.rho, args.depth)
    _emit({"lower": bounds.lower, "upper": bounds.upper, "vacuum": bounds.vacuum},
          args.out)
    return 0


def _cmd_star(args) -> int:
    if len(args.inputs) != 2:
        raise UsageError("star needs exactly two --in documents")
    f, _ = _load_element(args.inputs[0])
    g, _ = _load_element(args.inputs[1])
    if not isinstance(f, HSeriesElement) or not isinstance(g, HSeriesElement):
        raise UsageError("star expects hseries documents")
    from qdomains import deform
    result = deform.star_product(f, g, order=args.order)
    _emit_text(element_text(result), args.out)
    return 0


def _parse_path(text: str, samples: int):
    from qdomains import deform
    kind, *parts = text.split(":")
    try:
        numbers = list(map(float, parts))
    except ValueError:
        numbers = []
    if kind == "circle" and len(numbers) == 1:
        return deform.circle_path(numbers[0], samples)
    if kind == "ray" and len(numbers) in (1, 3):
        return deform.ray_path(numbers[0], samples, *numbers[1:])
    raise UsageError(f"cannot parse path {text!r} (use circle:C or ray:THETA[:RMIN:RMAX])")


def _cmd_scan(args) -> int:
    element, _ = _load_element(args.input)
    if not isinstance(element, LaurentElement):
        raise UsageError("scan expects a laurent document")
    family = _family(args.family)
    samples = _parse_path(args.path, args.samples)
    from qdomains import deform
    result = deform.bundle_scan(element, family, args.rho, samples)
    # a diagnostic past the float range (a slope between tiny samples) is
    # written as null, as JSON has no infinity
    diagnostic = {key: value if math.isfinite(value) else None
                  for key, value in (("max_jump", result.max_jump),
                                     ("max_slope", result.max_slope),
                                     ("spacing", result.spacing))}
    if args.out:
        with _writing(args.out, newline="") as handle:
            handle.write("q_re,q_im,norm\n")
            for q, value in result.rows:
                handle.write(f"{q.real:.17g},{q.imag:.17g},{value:.17g}\n")
        _emit({"rows": len(result.rows), "out": args.out, "diagnostic": diagnostic}, None)
    else:
        _emit({"rows": [[q.real, q.imag, value] for q, value in result.rows],
               "diagnostic": diagnostic}, None)
    return 0


def _cmd_verify(args) -> int:
    from qdomains import suites
    if args.suite == "all":
        reports = suites.run_all(seed=args.seed)
    else:
        try:
            reports = [suites.run_suite(args.suite, seed=args.seed)]
        except KeyError:
            print(f"error: unknown suite {args.suite!r}; known suites: "
                  + ", ".join(suites.SUITE_NAMES), file=sys.stderr)
            return 2
    if args.json:
        payload = {"seed": args.seed, "suites": [r.to_dict() for r in reports],
                   "status": "pass" if all(r.status == "pass" for r in reports) else "fail"}
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            if report.status == "error":
                print(f"[ERROR] {report.suite}: {report.error}")
                continue
            print(f"[{report.status.upper():4s}] {report.suite}  "
                  f"worst={report.worst_violation:.3e}  ({report.wall_time:.2f}s)")
            if args.verbose:
                for check in report.checks:
                    print(f"         {check.status:4s} {check.key} "
                          f"worst={check.worst:.3e} thr={check.threshold:.1e}")
    if any(r.status == "error" for r in reports):
        return 2
    return 0 if all(r.status == "pass" for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdomains",
        description="computer algebra and verification kit for q-deformed "
                    "polydisk and ball function algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("mul", help="multiply two elements of the same kind")
    mul.add_argument("--in", dest="inputs", action="append", required=True)
    mul.add_argument("--degree-cap", type=int, default=None)
    mul.add_argument("--out")
    mul.set_defaults(fn=_cmd_mul)

    no = sub.add_parser("normal-order", help="push a free element onto the q-plane")
    no.add_argument("--in", dest="input", required=True)
    no.add_argument("--q", default=None, help="overrides the document's q field")
    no.add_argument("--out")
    no.set_defaults(fn=_cmd_normal_order)

    nrm = sub.add_parser("norm", help="evaluate a norm")
    nrm.add_argument("--in", dest="input", required=True)
    nrm.add_argument("--family", required=True, choices=sorted(FAMILY_ALIASES))
    nrm.add_argument("--rho", type=float, required=True)
    nrm.add_argument("--tau", type=float, default=1.0)
    nrm.add_argument("--bign", type=int, default=0)
    nrm.add_argument("--out")
    nrm.set_defaults(fn=_cmd_norm)

    rad = sub.add_parser("radius", help="finite-depth joint spectral radius")
    rad.add_argument("--tuple", default="coords")
    rad.add_argument("--family", required=True, choices=sorted(FAMILY_ALIASES))
    rad.add_argument("--rho", type=float, required=True)
    rad.add_argument("--depth", type=int, required=True)
    rad.add_argument("--p", choices=("1", "2", "inf"), required=True)
    rad.add_argument("--n", type=int, required=True)
    rad.add_argument("--q", default="1")
    rad.add_argument("--tau", type=float, default=1.0)
    rad.add_argument("--out")
    rad.set_defaults(fn=_cmd_radius)

    fn = sub.add_parser("fock-norm", help="operator-norm bounds from the truncated "
                                          "twisted-CCR representation")
    fn.add_argument("--in", dest="input", required=True)
    fn.add_argument("--q", required=True)
    fn.add_argument("--rho", type=float, required=True)
    fn.add_argument("--depth", type=int, required=True)
    fn.add_argument("--out")
    fn.set_defaults(fn=_cmd_fock_norm)

    star = sub.add_parser("star", help="truncated star product of two h-series")
    star.add_argument("--in", dest="inputs", action="append", required=True)
    star.add_argument("--order", type=int, required=True)
    star.add_argument("--out")
    star.set_defaults(fn=_cmd_star)

    scan = sub.add_parser(
        "scan", help="fiber-norm field along a parameter path",
        description="Fiber-norm field along a parameter path, with a continuity "
                    "diagnostic (max_jump, max_slope, spacing); a diagnostic past the "
                    "float range is written as null.")
    scan.add_argument("--in", dest="input", required=True)
    scan.add_argument("--path", required=True)
    scan.add_argument("--samples", type=int, default=256)
    scan.add_argument("--family", required=True,
                      choices=("polydisk", "polydisk-l1", "ball"))
    scan.add_argument("--rho", type=float, required=True)
    scan.add_argument("--out")
    scan.set_defaults(fn=_cmd_scan)

    ver = sub.add_parser("verify", help="run a named verification suite, or all")
    ver.add_argument("suite")
    ver.add_argument("--seed", type=int, default=1234)
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--verbose", action="store_true")
    ver.set_defaults(fn=_cmd_verify)

    return parser


def _glue_q_values(argv: list) -> list:
    # argparse takes "--q -0.5,0.8" for two options; "--q=-0.5,0.8" parses
    out = []
    for arg in argv:
        if out and out[-1] == "--q" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--q={arg}"
        else:
            out.append(arg)
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it found it, so one per process serves
    # every main call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_glue_q_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: invalid document: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapExceeded as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
