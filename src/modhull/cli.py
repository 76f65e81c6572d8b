"""Command-line front end.

Subcommands: hull, sweep, verify, count, census, conic fit, conic count.
Run `modhull <subcommand> -h` for flags.
"""

import argparse
import sys

from .conics import CONIC_MONOMIALS, count_conic_points_in_box, find_vanishing_form
from .experiments import (
    APolicy,
    default_cache_file,
    exponent_summary,
    lower_bound_census,
    render_exponent_summary,
    run_sweep,
    write_csv,
)
from .geometry import twice_area
from .hullfast import fast_hull, hull_method, verify_against_naive
from .hyperbola import ENUMERATION_CEILING, HyperbolaSpec, count_in_box, predicted_count, read_points_file

__all__ = ["main"]

# hull --json's line: the bytes json.dumps gives for a dict of these keys,
# spelled out so that no command loads json; vertices are "[x, y]" items
# joined by ", "
_HULL_JSON = '{"m": %d, "a": %d, "method": "%s", "v": %d, "twice_area": %d, "vertices": [%s]}'


def _cmd_hull(args) -> int:
    spec = HyperbolaSpec(args.m, args.a)
    poly = fast_hull(spec)
    if args.json:
        vertices = ", ".join(["[%d, %d]" % p for p in poly.vertices])
        print(_HULL_JSON % (spec.m, spec.a, hull_method(spec.m), poly.vertex_count, twice_area(poly), vertices))
    else:
        print(f"m={spec.m} a={spec.a} method={hull_method(spec.m)} v={poly.vertex_count}")
        for x, y in poly.vertices:
            print(f"{x} {y}")
    return 0


def _cmd_sweep(args) -> int:
    policy = APolicy.parse(args.a_policy, seed=args.seed)
    records = run_sweep(
        args.m_min,
        args.m_max,
        policy,
        workers=args.workers,
        cache_file=None if args.no_cache else default_cache_file(),
    )
    write_csv(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    print(render_exponent_summary(exponent_summary(records)))
    return 0


def _cmd_verify(args) -> int:
    tasks = APolicy.parse(args.a_policy, seed=args.seed).tasks(args.m_min, args.m_max)
    if args.m_max > ENUMERATION_CEILING:  # before any residue list is built
        raise ValueError(f"verify enumerates every point: m <= {ENUMERATION_CEILING}, got --m-max {args.m_max}")
    mismatches = 0
    checked = 0
    for m, a in tasks:
        report = verify_against_naive(HyperbolaSpec(m, a))
        checked += 1
        if not report.equal:
            mismatches += 1
            print(
                f"MISMATCH m={m} a={a}: "
                f"fast v={len(report.fast_vertices)} naive v={len(report.naive_vertices)} "
                f"missing={list(report.missing)} extra={list(report.extra)}"
            )
    if mismatches:
        print(f"{mismatches} mismatches out of {checked} hulls")
        return 1
    print(f"all {checked} hulls match")
    return 0


def _cmd_count(args) -> int:
    spec = HyperbolaSpec(args.m, args.a)
    exact = count_in_box(spec, args.U, args.V)
    main_term = predicted_count(spec, args.U, args.V)
    diff = exact - main_term
    print(f"count: {exact}")
    print(f"main term: {main_term} (~{float(main_term):.6g})")
    print(f"difference: {diff} (~{float(diff):.6g})")
    return 0


def _cmd_census(args) -> int:
    violations, equality = lower_bound_census(args.m_min, args.m_max)
    total = args.m_max - args.m_min + 1
    print(f"moduli checked: {total}")
    print(f"equality cases v = 2*(tau(m-1)-1): {equality}")
    if violations:
        for m, v, bound in violations:
            print(f"VIOLATION m={m}: v={v} < {bound}")
        return 1
    print("violations: none")
    return 0


def _cmd_conic_fit(args) -> int:
    points = read_points_file(args.points)
    vec = find_vanishing_form(points, CONIC_MONOMIALS)
    if vec is None:
        print("no vanishing form (evaluation matrix has full rank)")
    else:
        print(" ".join(str(c) for c in vec))
    return 0


def _cmd_conic_count(args) -> int:
    count, sols = count_conic_points_in_box(args.coeffs, args.H)
    print(f"count: {count}")
    for x, y in sols:
        print(f"{x} {y}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modhull", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="hull of one H_a(m): vertex count and vertices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("sweep", help="vertex counts over a modulus range, CSV out")
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--a-policy", required=True, help="one | all | sample:K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="compare certified hulls against brute force")
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--a-policy", required=True, help="one | all | sample:K")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="box count vs the expected main term")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("census", help="check v_1(m) >= 2*(tau(m-1)-1) over a range")
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("conic", help="conic fitting and integral point counting")
    csub = p.add_subparsers(dest="conic_command", required=True)
    pf = csub.add_parser("fit", help="vanishing quadratic form through a point file")
    pf.add_argument("--points", required=True, help="file with one 'x y' pair per line")
    pf.set_defaults(func=_cmd_conic_fit)
    pc = csub.add_parser("count", help="integral solutions of a conic in [0,H]^2")
    pc.add_argument("--coeffs", type=int, nargs=6, required=True, metavar=("A", "B", "C", "D", "E", "F"))
    pc.add_argument("--H", type=int, required=True)
    pc.set_defaults(func=_cmd_conic_count)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
