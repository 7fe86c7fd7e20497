"""Batch command line: hulls, faces, profiles, transforms, identity suites.

Subcommands: hull, faces, profile, moment, body, eval, check.  Outputs are
deterministic for fixed inputs, seed, and flags: rationals print as "p/q",
floats as their shortest round-trip repr.  CSV columns are fixed: direction
components first, then value(s), then an error estimate when a float path
was used (for moments this is the observed gap between the divided-
difference value and an independent profile quadrature, plus the
quadrature's own estimate).  Bad input exits with code 2 and one line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .geometry.linalg import as_scalar, as_vector, format_scalar, json_shape
from .geometry.polytope import Polytope, polytope_from_json
from .harness.config import FuzzConfig
from .harness.suites import SUITES, run_suite
from .slicing.moments import measure_transform, moment_transform
from .slicing.profile import quadrature_against_profile, section_profile
from .slicing.weights import weight_from_dict, measure_from_dict
from .valuations import BODY_KINDS, BODY_KINDS_WITH_P, classified_evaluate, expr_from_dict
from . import __version__


def _load_json_arg(text: str) -> dict:
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_polytope(path: str) -> Polytope:
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_json(fh.read())


def _parse_direction(text: str, n: int):
    if text.lstrip().startswith("["):
        x = as_vector(json.loads(text))
    else:
        x = as_vector([as_scalar(part) for part in text.split(",")])
    if len(x) != n:
        raise ValueError(f"direction has {len(x)} components, polytope has n={n}")
    return x


def _fibonacci_sphere(count: int):
    """Deterministic quasi-uniform directions on the 2-sphere (n = 3 only)."""
    golden = (1 + math.sqrt(5)) / 2
    out = []
    for i in range(count):
        z = 1 - (2 * i + 1) / count
        r = math.sqrt(max(0.0, 1 - z * z))
        theta = 2 * math.pi * i / golden
        # float coordinates are dyadic rationals: the grid stays exact
        out.append(as_vector((r * math.cos(theta), r * math.sin(theta), z)))
    return out


def _parse_grid(spec: str, n: int, radii: str | None):
    if spec == "axes":
        dirs = []
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            dirs.append(tuple(e))
            dirs.append(tuple(-c for c in e))
    elif spec.startswith("fib:"):
        if n != 3:
            raise ValueError("fibonacci grids are defined for n = 3 only")
        dirs = _fibonacci_sphere(int(spec.split(":", 1)[1]))
    else:
        payload = _load_json_arg(spec)
        with json_shape("--grid"):
            dirs = [as_vector(d) for d in payload["directions"]]
        if any(len(d) != n for d in dirs):
            raise ValueError(f"grid directions must have {n} components")
    if radii:
        rs = [as_scalar(r) for r in radii.split(",")]
        dirs = [tuple(r * c for c in d) for d in dirs for r in rs]
    if any(not any(d) for d in dirs):
        raise ValueError("grid directions must be nonzero")
    return dirs


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return format_scalar(v)
    return repr(float(v))


def _emit_rows(header, rows, fmt, out):
    if fmt == "json":
        out.write(json.dumps([dict(zip(header, r)) for r in rows]) + "\n")
    else:
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(r) + "\n")


# -- subcommands --------------------------------------------------------------


def cmd_hull(args, out) -> int:
    P = _load_polytope(args.input)
    payload = {
        "n": P.n,
        "dim": P.dim,
        "vertices": [[format_scalar(c) for c in v] for v in P.vertices],
        "facets": [{"normal": [format_scalar(c) for c in normal],
                    "offset": format_scalar(offset)}
                   for normal, offset in P.facets_ambient()],
    }
    out.write(json.dumps(payload) + "\n")
    return 0


def cmd_faces(args, out) -> int:
    P = _load_polytope(args.input)
    lattice = P.face_lattice()
    payload = {
        "n": P.n,
        "dim": P.dim,
        "f_vector": list(lattice.f_vector()),
        "euler_alternating_sum": lattice.euler_alternating_sum(),
        "faces": [{
            "dim": f.dim,
            "vertices": list(f.vertex_ids),
            "in_minus_class": f.in_minus_class,
            "in_plus_class": f.in_plus_class,
        } for f in lattice.faces],
    }
    out.write(json.dumps(payload) + "\n")
    return 0


def cmd_profile(args, out) -> int:
    P = _load_polytope(args.input)
    x = _parse_direction(args.direction, P.n)
    prof = section_profile(P, x)
    rows = []
    for b in prof.breakpoints:
        rows.append(("breakpoint", format_scalar(b), "", ""))
    for k, piece in enumerate(prof.pieces):
        coeffs = ";".join(format_scalar(c) for c in piece) or "0"
        rows.append(("piece", format_scalar(prof.breakpoints[k]),
                     format_scalar(prof.breakpoints[k + 1]), coeffs))
    for k in range(len(prof.pieces)):
        lo, hi = prof.breakpoints[k], prof.breakpoints[k + 1]
        for j in range(args.samples_per_piece):
            t = lo + (hi - lo) * Fraction(2 * j + 1, 2 * args.samples_per_piece)
            rows.append(("sample", format_scalar(t), "",
                         format_scalar(prof.section_value(t))))
    _emit_rows(("row", "a", "b", "value"), rows, args.format, out)
    return 0


def cmd_moment(args, out) -> int:
    P = _load_polytope(args.input)
    if (args.weight is None) == (args.measure is None):
        raise ValueError("moment needs exactly one of --weight / --measure")
    dirs = _parse_grid(args.grid, P.n, args.radii)

    if args.measure is not None:
        mu = measure_from_dict(_load_json_arg(args.measure))
        exact = mu.density is None or mu.density.is_exact

        def one(x):
            val = measure_transform(P, x, mu)
            return [_format_value(c) for c in x] + [_format_value(val), ""]
    else:
        weight = weight_from_dict(_load_json_arg(args.weight))
        exact = weight.is_exact

        def one(x):
            val = moment_transform(P, x, weight)
            if exact:
                return [_format_value(c) for c in x] + [_format_value(val), ""]
            err = ""
            if P.is_full_dimensional:
                prof = section_profile(P, x)
                qval, qerr = quadrature_against_profile(prof, weight)
                err = repr(abs(float(val) - qval) + qerr)
            return [_format_value(c) for c in x] + [_format_value(val), err]

    rows = [one(x) for x in dirs]
    header = tuple(f"x{i+1}" for i in range(P.n)) + ("value", "error")
    _emit_rows(header, rows, args.format, out)
    return 0


def cmd_body(args, out) -> int:
    P = _load_polytope(args.input)
    kind = args.kind or args.kind_pos
    args.kind = kind
    if kind not in BODY_KINDS:
        raise ValueError(f"unknown body kind {kind!r}; "
                         f"choose from {sorted(BODY_KINDS)}")
    if kind in BODY_KINDS_WITH_P and args.p is None:
        raise ValueError(f"body {kind} needs --p")
    dirs = _parse_grid(args.grid, P.n, args.radii)
    p = as_scalar(args.p) if args.p is not None else None

    def one(x):
        val = BODY_KINDS[args.kind](P, x, p)
        return [_format_value(c) for c in x] + [_format_value(val)]

    rows = [one(x) for x in dirs]
    header = tuple(f"x{i+1}" for i in range(P.n)) + ("value",)
    _emit_rows(header, rows, args.format, out)
    return 0


def cmd_eval(args, out) -> int:
    P = _load_polytope(args.input)
    expr = expr_from_dict(_load_json_arg(args.expr))
    dirs = _parse_grid(args.grid, P.n, args.radii)

    def one(x):
        val = classified_evaluate(P, x, expr)
        return [_format_value(c) for c in x] + [_format_value(val)]

    rows = [one(x) for x in dirs]
    header = tuple(f"x{i+1}" for i in range(P.n)) + ("value",)
    _emit_rows(header, rows, args.format, out)
    return 0


def cmd_check(args, out) -> int:
    suite = args.suite or args.suite_pos or "all"
    names = sorted(SUITES) if suite == "all" else [suite]
    cfg = FuzzConfig(seed=args.seed, trials=args.trials,
                     n_range=(args.n, args.n),
                     tolerance_float=args.tol)
    all_passed = True
    for name in names:
        result = run_suite(name, cfg)
        all_passed &= result.passed
        for row in result.rows:
            if not row["ok"] or args.verbose:
                out.write(json.dumps(row, sort_keys=True) + "\n")
        out.write(json.dumps({"suite": name, "passed": result.passed,
                              **result.summary}, sort_keys=True) + "\n")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valgeo",
        description="Exact convex-geometry valuations: transforms, derived "
                    "bodies, and identity suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid=True):
        p.add_argument("--input", required=True, help="polytope JSON file")
        if grid:
            p.add_argument("--grid", default="axes",
                           help="axes | fib:N | JSON with {'directions': [...]}")
            p.add_argument("--radii", default=None,
                           help="comma-separated rational radii multipliers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("hull", help="vertices and facets of the hull")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_hull)

    p = sub.add_parser("faces", help="face lattice with sign classes")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_faces)

    p = sub.add_parser("profile", help="exact section-volume profile")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", required=True,
                   help="comma-separated rationals or a JSON list")
    p.add_argument("--samples-per-piece", type=int, default=4)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("moment", help="weighted moment / measure transform on a grid")
    add_common(p)
    p.add_argument("--weight", default=None, help="WeightSpec JSON (file or inline)")
    p.add_argument("--measure", default=None, help="MeasureSpec JSON (file or inline)")
    p.set_defaults(fn=cmd_moment)

    p = sub.add_parser("body", help="derived-body support/gauge values")
    add_common(p)
    p.add_argument("kind_pos", nargs="?", default=None, metavar="KIND")
    p.add_argument("--kind", default=None)
    p.add_argument("--p", default=None, help="body exponent; required for moment, "
                        "polar_moment and difference")
    p.set_defaults(fn=cmd_body)

    p = sub.add_parser("eval", help="evaluate a valuation expression")
    add_common(p)
    p.add_argument("--expr", required=True, help="ValuationExpr JSON (file or inline)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run an identity suite (JSON lines)")
    p.add_argument("suite_pos", nargs="?", default=None, metavar="SUITE")
    p.add_argument("--suite", default=None,
                   help=f"one of {sorted(SUITES)} or 'all'")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--verbose", action="store_true",
                   help="emit every row, not only failures")
    p.set_defaults(fn=cmd_check)
    return parser


_PARSER = build_parser()


# argparse reads a value such as "-3,1,2" or "-1/2" after a space as an option
SIGNED_VALUE_OPTIONS = ("--direction", "--p")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--direction -3,1,2" as "--direction=-3,1,2" (and --p alike)."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and re.match(r"-[0-9.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(_attach_signed_values(argv))
    try:
        return args.fn(args, sys.stdout)
    except (ValueError, OSError) as exc:
        # bad input (a file, its JSON, an argument, a body an operator
        # rejects): one line, in argparse's format and with its exit code
        print(f"valgeo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
