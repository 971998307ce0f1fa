"""Command-line front end: enumeration, statistics, maps, polynomials, series, checks."""

from __future__ import annotations

import argparse
import json
import sys

from catschett import config
from catschett.checks import CHECK_NAMES, run_check
from catschett.maps import ALIASES, transport_map, transport_maps
from catschett.objects.paths import (
    DYCK_STEPS,
    dyck_paths,
    is_dyck_path,
    laguerre_histories,
    motzkin2_paths,
    serialize_laguerre_history,
    serialize_walk_pair,
    walk_pairs,
)
from catschett.objects.permutations import (
    CLASSICAL_PATTERNS,
    avoiders,
    parse_permutation,
    serialize_permutation,
)
from catschett.objects.trees import (
    binary_trees,
    parse_binary_tree,
    parse_plane_tree,
    plane_node_count,
    plane_trees,
    serialize_binary_tree,
    serialize_plane_tree,
)
from catschett.schett import ROUTES, catalan_schett
from catschett.serieslab import families
from catschett.statistics import (
    dyck_profile,
    mark_count,
    permutation_profile,
    tree_chain_profile,
)

_PATTERNS = tuple("".join(map(str, p)) for p in CLASSICAL_PATTERNS)

# family name -> (generator of the objects of size n, text form of one object)
_FAMILIES = {
    "avoiders": (avoiders, serialize_permutation),
    "btree": (binary_trees, serialize_binary_tree),
    "ptree": (plane_trees, serialize_plane_tree),
    "dyck": (dyck_paths, str),
    "motzkin2": (motzkin2_paths, str),
    "walkpair": (walk_pairs, serialize_walk_pair),
    "laguerre": (laguerre_histories, serialize_laguerre_history),
}


def _bounded_size(n: int) -> int:
    bound = config.enumeration_bound()
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if n > bound:
        raise ValueError(f"size {n} exceeds the configured enumeration bound {bound}")
    return n


def _enumerate_lines(family: str, n: int, pattern: tuple[int, ...]) -> list[str]:
    generate, render = _FAMILIES[family]
    if family == "avoiders":  # already lexicographic
        return [render(p) for p in generate(n, pattern)]
    return sorted(map(render, generate(n)))


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = _bounded_size(args.n)
    pattern = None
    if args.family == "avoiders":
        pattern = tuple(int(ch) for ch in args.pattern)
    elif args.pattern != "231":
        raise ValueError("--pattern applies only to the avoiders family")
    for line in _enumerate_lines(args.family, n, pattern):
        print(line)
    return 0


def _stats_record(line: str) -> dict:
    s = line.strip()
    if s == "" or s[0].isdigit():
        return permutation_profile(parse_permutation(s))
    if set(s) <= DYCK_STEPS.keys():
        if not is_dyck_path(s):
            raise ValueError(f"not a balanced east-north word: {s!r}")
        return dyck_profile(s)
    if s == "." or (s.startswith("(") and "." in s):
        return tree_chain_profile(parse_binary_tree(s))
    if s.startswith("("):
        t = parse_plane_tree(s)
        return {"nodes": plane_node_count(t), "edges": plane_node_count(t) - 1,
                "marks": mark_count(t)}
    raise ValueError(f"unrecognized object at column 0: {line!r}")


def cmd_stats(args: argparse.Namespace) -> int:
    for raw in sys.stdin:
        print(json.dumps(_stats_record(raw.rstrip("\n"))))
    return 0


MAP_NAMES = tuple(transport_maps()) + tuple(ALIASES)


def cmd_map(args: argparse.Namespace) -> int:
    tmap = transport_map(args.name)
    if args.dir == "fwd":
        parse, apply_fn, render = tmap.parse_domain, tmap.forward, tmap.render_image
    else:
        parse, apply_fn, render = tmap.parse_image, tmap.inverse, tmap.render_domain
    for raw in sys.stdin:
        print(render(apply_fn(parse(raw.rstrip("\n")))))
    return 0


def cmd_schett(args: argparse.Namespace) -> int:
    n = _bounded_size(args.n)
    routes = ROUTES if args.route == "all" else (args.route,)
    polys = {route: catalan_schett(n, route) for route in routes}
    if args.format == "json":
        body = {"n": n,
                "routes": {route: [list(t) for t in poly.sorted_terms()]
                           for route, poly in polys.items()}}
        print(json.dumps(body, indent=2))
    else:
        for route, poly in polys.items():
            print(f"{route}: {poly}")
    return 0


def _emit_mna_table(nmax: int, fmt: str) -> None:
    rows = families.mna_distribution(nmax)
    kmax = max((k for row in rows.values() for k in row), default=0)
    if fmt == "json":
        body = {"table": "mna", "nmax": nmax,
                "rows": {str(n): {str(k): rows[n].get(k, 0) for k in range(kmax + 1)}
                         for n in sorted(rows)}}
        print(json.dumps(body, indent=2))
        return
    if fmt == "csv":
        print("n," + ",".join(str(k) for k in range(kmax + 1)))
        for n in sorted(rows):
            print(f"{n}," + ",".join(str(rows[n].get(k, 0)) for k in range(kmax + 1)))
        return
    header = "n " + " ".join(f"{k:>8d}" for k in range(kmax + 1))
    print(header)
    for n in sorted(rows):
        print(f"{n} " + " ".join(f"{rows[n].get(k, 0):>8d}" for k in range(kmax + 1)))


def cmd_series(args: argparse.Namespace) -> int:
    if args.table is not None:
        _emit_mna_table(_bounded_size(args.n), args.format)
        return 0
    if args.name is None:
        raise ValueError("choose a series name or --table mna")
    if args.order < 0:
        raise ValueError(f"order must be nonnegative, got {args.order}")
    series = families.series(args.name, args.order)
    if args.format == "json":
        body = {"series": args.name, "order": series.order,
                "coefficients": {f"t^{k}": [list(t) for t in series.coefficient(k).sorted_terms()]
                                 for k in range(1, series.order + 1)}}
        print(json.dumps(body, indent=2))
    elif args.format == "csv":
        print("t,x,y,coeff")
        for k in range(1, series.order + 1):
            for a, b, c in series.coefficient(k).sorted_terms():
                print(f"{k},{a},{b},{c}")
    else:
        for k in range(1, series.order + 1):
            print(f"[t^{k}] {series.coefficient(k)}")
    return 0


def _print_report(result, prefix: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    ptxt = " ".join(f"{k}={v}" for k, v in sorted(result.params.items()))
    suffix = f" ({ptxt})" if ptxt else ""
    print(f"{prefix}{status} {result.check}{suffix}: {result.detail} "
          f"[{result.wall_time_ms:.1f} ms]")
    if result.readings:
        for row in result.readings:
            if row["pass"]:
                print(f"{prefix}  reading {row['reading']}: pass")
            else:
                ff = row["first_failure"]
                print(f"{prefix}  reading {row['reading']}: fails {ff['equation']} at "
                      f"t^{ff['t_order']} {ff['monomial']} (lhs {ff['lhs']}, rhs {ff['rhs']})")
    if result.counterexample is not None:
        print(f"{prefix}  counterexample: {result.counterexample}")
    if result.subresults is not None:
        for sub in result.subresults:
            _print_report(sub, prefix + "  ")


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(args.checks) + list(args.check or [])
    if not names:
        raise ValueError("choose at least one check (or 'all')")
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check: {name!r} (see 'catschett verify --list')")
    results = [run_check(name, n=args.n, order=args.order, jobs=args.jobs)
               for name in names]
    if args.format == "json":
        body = [r.to_json() for r in results]
        print(json.dumps(body[0] if len(body) == 1 else body, indent=2))
    else:
        for r in results:
            _print_report(r)
    return 0 if all(r.passed for r in results) else 1


def cmd_verify_list(args: argparse.Namespace) -> int:
    for name in CHECK_NAMES:
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catschett",
        description="Exact enumeration, statistics, and verification for "
                    "pattern-restricted permutations and Catalan-Schett polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list a combinatorial family, one object per line")
    p_enum.add_argument("family", choices=_FAMILIES)
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--pattern", choices=_PATTERNS, default="231",
                        help="pattern for the avoiders family (default 231)")
    p_enum.set_defaults(func=cmd_enumerate)

    p_stats = sub.add_parser("stats", help="read objects on stdin, emit JSON statistics records")
    p_stats.set_defaults(func=cmd_stats)

    p_map = sub.add_parser("map", help="apply a named bijection to objects on stdin")
    p_map.add_argument("name", choices=MAP_NAMES, metavar="name",
                       help="one of: " + ", ".join(transport_maps()))
    p_map.add_argument("--dir", choices=("fwd", "inv"), default="fwd")
    p_map.set_defaults(func=cmd_map)

    p_schett = sub.add_parser("schett", help="print a Catalan-Schett polynomial")
    p_schett.add_argument("n", type=int)
    p_schett.add_argument("--route", choices=ROUTES + ("all",), default="trees")
    p_schett.add_argument("--format", choices=("text", "json"), default="text")
    p_schett.set_defaults(func=cmd_schett)

    p_series = sub.add_parser("series", help="print a truncated generating series or table")
    p_series.add_argument("name", nargs="?", choices=families.SERIES)
    p_series.add_argument("--order", type=int, default=8)
    p_series.add_argument("--table", choices=("mna",),
                          help="print a distribution table instead of a series")
    p_series.add_argument("--n", type=int, default=12,
                          help="largest size for --table output")
    p_series.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run named checks and report")
    p_verify.add_argument("checks", nargs="*", metavar="check",
                          help="check names; see 'catschett verify --list'")
    p_verify.add_argument("--check", action="append", metavar="name",
                          help="additional check name (repeatable)")
    p_verify.add_argument("--list", action="store_true", dest="list_checks",
                          help="list the known check names and exit")
    p_verify.add_argument("--n", type=int, help="override the size bound")
    p_verify.add_argument("--order", type=int, help="override the series truncation order")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--jobs", type=int, help="worker processes for 'all'")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.list_checks:
        return cmd_verify_list(args)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
