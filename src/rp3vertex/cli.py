"""Batch front end: compute amplitude series, expand coefficients, run the
check suite, and print comparison tables.

Every command is deterministic: identical flags produce byte-identical
output.  The check command exits nonzero when any check misses its expected
verdict.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .amplitude import AmplitudeSpec, normalized_amplitude, open_amplitude
from .analysis import SuiteRunner, summary_table
from .partitions import parse_partition
from .ring import ExpansionError, expand, rf_equal

DEFAULT_CUTOFF_CEILING = 4


def emit_text(series):
    """Aligned text for a bidegree series: graded-lex rows '(r,s): value'."""
    rows = series.support()
    if not rows:
        return "0"
    if rows == [(0, 0)] and series.coeffs[(0, 0)].is_one():
        return "1"
    lines = []
    for rs in rows:
        lines.append(f"({rs[0]},{rs[1]}): {series.coeffs[rs].text()}")
    return "\n".join(lines)


def _spec_from_args(args):
    alpha = parse_partition(args.alpha)
    gamma = parse_partition(args.gamma)
    geometry = args.geometry.replace("-", "_")
    return AmplitudeSpec(geometry=geometry, alpha=alpha, gamma=gamma,
                         refined=args.refined, cutoff=args.cutoff)


def _series(spec, raw):
    """(series, normalized): the normalized invariant, or the open amplitude
    itself with --raw or without colors."""
    if raw or not (spec.alpha or spec.gamma):
        return open_amplitude(spec), False
    return normalized_amplitude(spec), True


def _check_cutoff(args, parser):
    if args.cutoff > args.max_cutoff:
        parser.error(f"cutoff {args.cutoff} above ceiling {args.max_cutoff} "
                     f"(raise with --max-cutoff)")


def _check_q_order(args, parser):
    if args.q_order < 0:
        parser.error(f"q-order must be nonnegative, got {args.q_order}")


def cmd_compute(args, parser):
    _check_cutoff(args, parser)
    spec = _spec_from_args(args)
    series, normalized = _series(spec, args.raw)
    if args.output == "json":
        doc = {
            "command": "compute",
            "geometry": spec.geometry,
            "alpha": str(spec.alpha), "gamma": str(spec.gamma),
            "refined": spec.refined, "cutoff": spec.cutoff,
            "normalized": normalized,
            "series": series.to_json(),
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(emit_text(series))
    return 0


def cmd_expand(args, parser):
    _check_cutoff(args, parser)
    _check_q_order(args, parser)
    spec = _spec_from_args(args)
    try:
        r, s = (int(x) for x in args.coeff.split(","))
    except ValueError:
        parser.error(f"--coeff must look like 'r,s', got {args.coeff!r}")
    if r < 0 or s < 0:
        parser.error(f"coefficient ({r},{s}) has a negative index")
    if r + s > spec.cutoff:
        parser.error(f"coefficient ({r},{s}) beyond cutoff {spec.cutoff}")
    series = _series(spec, args.raw)[0]
    if not series.is_determined(r, s):
        parser.error(f"coefficient ({r},{s}) is not determined by the "
                     f"{args.geometry} series at cutoff {spec.cutoff}")
    rf = series.coeff(r, s)
    try:
        ser = expand(rf, args.q_order)
    except ExpansionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.output == "json":
        doc = {
            "command": "expand", "coeff": [r, s], "q_order": args.q_order,
            "series": ser.to_json(),
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(ser.text())
    return 0


def cmd_check(args, parser):
    _check_q_order(args, parser)
    try:
        runner = SuiteRunner(fixtures_dir=args.fixtures_dir, q_order=args.q_order)
    except OSError as err:
        parser.error(f"cannot read the fixtures: {err}")
    pattern = None if args.suite in ("all", "*") else args.suite
    entries = runner.run(pattern)
    if not entries:
        parser.error(f"no checks match {args.suite!r}")
    if args.output == "json":
        doc = [dict(e.report.to_json(), expected=e.expected, ok=e.ok)
               for e in entries]
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(summary_table(entries))
    return 0 if all(e.ok for e in entries) else 1


def cmd_compare(args, parser):
    _check_cutoff(args, parser)
    spec = _spec_from_args(args)
    if args.mode == "reduction":
        if args.refined:
            parser.error("--mode reduction compares both modes; "
                         "--refined does not apply")
        regular = _series(replace(spec, refined=False), args.raw)[0]
        refined = _series(replace(spec, refined=True), args.raw)[0]
        reduced = refined.substitute_t_eq_q()
        lines = []
        for rs in sorted(regular.determined, key=lambda rs: (rs[0] + rs[1], rs)):
            a = regular.coeffs.get(rs)
            b = reduced.coeffs.get(rs)
            if a is None and b is None:
                continue
            same = (a is None) == (b is None) and (a is None or rf_equal(a, b))
            lines.append(f"({rs[0]},{rs[1]}): {'equal' if same else 'DIFFER'}  "
                         f"{(a or b).text()}")
        print("\n".join(lines))
        return 0

    # geometries: the square graph against the single-edge one
    if args.geometry != "local-p1xp1":
        parser.error("--mode geometries compares both geometries; "
                     "--geometry does not apply")
    if args.raw:
        parser.error("--mode geometries compares normalized series; "
                     "--raw does not apply")
    local = normalized_amplitude(spec)
    con = normalized_amplitude(replace(spec, geometry="resolved_conifold"))
    lines = []
    for r in range(args.cutoff + 1):
        a = local.coeffs.get((r, 0))
        b = con.coeffs.get((r, 0))
        if a is None and b is None:
            relation = "both zero"
        elif a is None or b is None:
            relation = "one zero"
        elif rf_equal(a, b):
            relation = "equal"
        elif rf_equal(a, -b):
            relation = "opposite"
        else:
            relation = "differ"
        lines.append(f"({r},0): {relation}")
        lines.append(f"    square graph: {a.text() if a else '0'}")
        lines.append(f"    single edge : {b.text() if b else '0'}")
    print("\n".join(lines))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rp3vertex",
        description="Exact vertex partition-function series on the square "
                    "toric geometry, with fixture and conjecture checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--geometry", default="local-p1xp1",
                       choices=["local-p1xp1", "resolved-conifold"])
        p.add_argument("--alpha", default="[]",
                       help="first color, bracket form like [1,1]")
        p.add_argument("--gamma", default="[]", help="second color")
        p.add_argument("--refined", action="store_true",
                       help="two-parameter mode")
        p.add_argument("--cutoff", type=int, default=3,
                       help="total degree cutoff in the gluing weights")
        p.add_argument("--raw", action="store_true",
                       help="skip the closed-string normalization")
        p.add_argument("--max-cutoff", type=int, default=DEFAULT_CUTOFF_CEILING)

    p = sub.add_parser("compute", help="emit one amplitude series")
    common(p)
    p.add_argument("--output", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("expand", help="q-expand one coefficient")
    common(p)
    p.add_argument("--output", choices=["json", "text"], default="text")
    p.add_argument("--q-order", dest="q_order", type=int, default=20)
    p.add_argument("--coeff", required=True, metavar="r,s",
                   help="bidegree to expand")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("check", help="run the fixture and conjecture suite")
    p.add_argument("--suite", default="all",
                   help="check id glob, e.g. 'fixture:*' (default: all)")
    p.add_argument("--fixtures-dir", default=None)
    p.add_argument("--q-order", dest="q_order", type=int, default=20)
    p.add_argument("--output", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", help="side-by-side tables")
    common(p)
    p.add_argument("--mode", choices=["reduction", "geometries"],
                   default="reduction")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except ValueError as err:
        parser.error(str(err))
    except BrokenPipeError:
        # the reader closed early; stdout goes to devnull so the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
