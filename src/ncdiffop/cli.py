"""Command-line interface: validate bundles, run verification suites, apply
operators to module elements, and print Sobolev Gram matrices.

Exit codes: 0 on success, 1 when a check fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundle import BUILTIN_NAMES, ParseError, resolve_bundle
from .exprs import DegreeExceeded, ExprError, UnknownName, parse_element, parse_operator
from .linalg import Mat
from .report import ValidationError, _jsonable
from .sobolev import PositivityFailure, SobolevPairings, sobolev_gram
from .verify import SUITE_NAMES, UnknownSuite, verify_all

PASS, FAIL, USAGE = 0, 1, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncdiffop",
        description="Exact verification kernel for noncommutative differential operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="load a bundle and run every load-time invariant")
    p_validate.add_argument("bundle", help=f"path to a bundle JSON file or one of: {', '.join(BUILTIN_NAMES)}")

    p_verify = sub.add_parser("verify", help="run verification suites over a bundle")
    p_verify.add_argument("bundle")
    p_verify.add_argument("--suites", help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument(
        "--degree",
        type=int,
        default=None,
        help="maximum operator degree (default: the bundle's truncation); the action suite "
        "and the centre suite's operator algebra stop at degree 2",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="picks only which failing trial is the associativity witness")
    p_verify.add_argument("--json", action="store_true", help="emit the canonical JSON report body")

    p_apply = sub.add_parser("apply", help="apply an operator expression to a module element")
    p_apply.add_argument("bundle")
    p_apply.add_argument("module")
    p_apply.add_argument("expr", help="e.g. '2*v1@v2 + 1/3*v1 - 1'")
    p_apply.add_argument("element", help="comma-separated coordinates, e.g. '1,0'")
    p_apply.add_argument("--trace", action="store_true", help="print iterated derivative coordinates")
    p_apply.add_argument("--json", action="store_true")

    p_gram = sub.add_parser("gram", help="Sobolev Gram matrix of a module for a state")
    p_gram.add_argument("bundle")
    p_gram.add_argument("module")
    p_gram.add_argument("state")
    p_gram.add_argument("order", type=int)
    p_gram.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    for name in ("degree", "order"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            print(f"error: {name} must be non-negative, got {value}", file=sys.stderr)
            return USAGE
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "apply":
            return cmd_apply(args)
        if args.command == "gram":
            return cmd_gram(args)
    except (ParseError, UnknownSuite, ExprError, UnknownName, DegreeExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except ValidationError as err:
        print(f"validation failed: {err.name}", file=sys.stderr)
        if err.witness is not None:
            print(f"  witness: {_jsonable(err.witness)}", file=sys.stderr)
        if err.detail:
            print(f"  detail: {err.detail}", file=sys.stderr)
        return FAIL
    return USAGE


def cmd_validate(args) -> int:
    bundle = resolve_bundle(args.bundle)
    print(f"bundle {bundle.name}: valid")
    print(f"  field {bundle.field}, truncation degree {bundle.truncation}")
    print(f"  dim A = {bundle.algebra.dim}, dim Omega1 = {bundle.geometry.omega.dim}, dim Vec = {bundle.geometry.vec.dim}")
    print(f"  modules: {', '.join(bundle.module_names())}")
    print(f"  states: {', '.join(sorted(bundle.states))}")
    print(f"  digest {bundle.digest()}")
    return PASS


def cmd_verify(args) -> int:
    bundle = resolve_bundle(args.bundle)
    # an empty --suites names one empty suite, an input error like "theta,", not every suite
    suites = None if args.suites is None else [s.strip() for s in args.suites.split(",")]
    report = verify_all(bundle, suites=suites, degree=args.degree, seed=args.seed)
    if args.json:
        print(report.body_json())
        print(json.dumps({"timing_ms": report.timing_dict()}), file=sys.stderr)
    else:
        print(report.human_text())
    return PASS if report.ok else FAIL


def cmd_apply(args) -> int:
    bundle = resolve_bundle(args.bundle)
    module = bundle.modules.get(args.module)
    if module is None:
        raise ExprError(f"unknown module {args.module!r}; available: {', '.join(bundle.module_names())}")
    op = parse_operator(bundle.geometry, args.expr, bundle.truncation)
    element = parse_element(module.space.dim, args.element)
    if bundle.field == "Q":
        for x, text in zip(element, args.element.split(",")):
            if not x.is_real():
                raise ExprError(f"field Q cannot carry the scalar {text.strip()!r}")
    result = op.act_on(module, element)
    trace = {}
    if args.trace:
        e = Mat.from_cols([element], module.space.dim)
        for n in sorted(op.components):
            if n == 0:
                continue
            trace[n] = [str(x) for x in (module.nabla_pow(n) @ e).column(0)]
    if args.json:
        doc = {
            "module": args.module,
            "expression": args.expr,
            "element": [str(x) for x in element],
            "result": [str(x) for x in result],
        }
        if trace:
            doc["derivatives"] = trace
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"result: {', '.join(str(x) for x in result)}")
        if args.trace:
            for n, coords in trace.items():
                print(f"  nabla^({n}) e = {', '.join(coords)}")
    return PASS


def cmd_gram(args) -> int:
    bundle = resolve_bundle(args.bundle)
    module = bundle.modules.get(args.module)
    if module is None:
        raise ExprError(f"unknown module {args.module!r}; available: {', '.join(bundle.module_names())}")
    state = bundle.states.get(args.state)
    if state is None:
        raise ExprError(f"unknown state {args.state!r}; available: {', '.join(sorted(bundle.states))}")
    ip_e = bundle.inner_products.get(args.module)
    if ip_e is None:
        raise ExprError(f"no inner product declared for module {args.module!r}")
    ip_om = bundle.form_pairing()
    if ip_om is None:
        raise ExprError("no inner product declared for omega1")
    pairings = SobolevPairings(module, ip_om, ip_e)
    try:
        gram = sobolev_gram(pairings, state, args.order)
    except PositivityFailure as err:
        print(f"positivity failure: witness {_jsonable(err.witness)}", file=sys.stderr)
        return FAIL
    rows = [[str(x) for x in row] for row in gram.matrix.data]
    if args.json:
        print(
            json.dumps(
                {
                    "module": args.module,
                    "state": args.state,
                    "order": args.order,
                    "gram": rows,
                    "positive_semidefinite": gram.is_positive,
                    "strictly_positive": gram.strictly_positive(),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"W^({args.order},2) Gram matrix of {args.module} under state {args.state}:")
        for row in rows:
            print("  [" + ", ".join(row) + "]")
        print(f"  PSD: yes; strictly positive: {'yes' if gram.strictly_positive() else 'no'}")
    return PASS


if __name__ == "__main__":
    sys.exit(main())
