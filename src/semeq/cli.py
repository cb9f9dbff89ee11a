"""Command-line interface.

Subcommands:
  classify   admissible (n, type) pairs for a given Euler characteristic
  enumerate  all maps of one type up to isomorphism
  verify     validate a map file and report its invariants
  aut        automorphism group of a map file
  iso        test two map files for isomorphism
  gi         same-link-intersection graph of a map file
  truncate   corner-cut a map file
  rectify    edge-midpoint a map file
  census     classify + enumerate + analyze for a whole surface

Exit codes: 0 success, 1 validation failure or a file that cannot be read
or written, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import LONG_RUN_VERTEX_COUNT, analyze_map, census, census_report_json
from .enumerator import EnumOptions, enumerate_maps
from .mapcore import (
    build_from_faces,
    euler_characteristic,
    semi_equivelar_type,
    surface_signature,
    validate_polyhedral,
)
from .mapfile import dumps as dump_map, read_map_file
from .symmetry import _group_summary, gi_graph, isomorphic
from .typecalc import FilterOptions, admissible_types, parse_type
from .transforms import rectify as rectify_map, truncate as truncate_map


def _integer(low: int | None = None):
    """An argparse type: ASCII digits with an optional leading minus, read
    as an integer no smaller than low when low is given.  int() alone also
    reads other scripts' digits, a plus sign, underscores and spaces."""
    def integer(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _path(text: str) -> str:
    """An argparse type: a file path, which may not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _filters(args) -> FilterOptions:
    return FilterOptions(
        min_face_count=1 if args.no_x3_filter else 3,
        closed_star=not args.no_closed_star_filter,
        min_vertices=args.min_vertices,
    )


def _enum_opts(args) -> EnumOptions:
    return EnumOptions(
        threads=args.threads,
        checkpoint_path=args.checkpoint,
        node_budget=args.budget,
    )


def _load_map(path):
    try:
        return build_from_faces(read_map_file(path))
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_classify(args) -> int:
    pairs = admissible_types(args.chi, _filters(args))
    if args.json:
        doc = [
            {
                "n": p.n,
                "type": str(p.type),
                "cycle": list(p.type.cycle),
                "face_counts": {str(q): x for q, x in sorted(p.face_counts.items())},
            }
            for p in pairs
        ]
        print(json.dumps(doc, indent=2))
    else:
        print(f"admissible (n, type) pairs for Euler characteristic {args.chi}:")
        for p in pairs:
            xs = ", ".join(f"x_{q}={x}" for q, x in sorted(p.face_counts.items()))
            print(f"  n={p.n:>3}  {str(p.type):<22} {xs}")
        print(f"total: {len(pairs)}")
    return 0


def _cmd_enumerate(args) -> int:
    t = parse_type(args.type)
    if args.n >= LONG_RUN_VERTEX_COUNT and not args.long:
        print(
            f"error: n={args.n} runs can take hours; pass --long to confirm",
            file=sys.stderr,
        )
        return 2
    result = enumerate_maps(t, args.n, args.chi, _enum_opts(args))
    infos = [analyze_map(m) for m in result.maps]
    if args.json:
        doc = {
            "type": str(t),
            "n": args.n,
            "chi": args.chi,
            "complete": result.complete,
            "diagnostic": result.diagnostic,
            "count": len(result.maps),
            "stats": result.stats.to_dict(),
            "maps": infos,
        }
        print(json.dumps(doc, indent=2))
    else:
        if result.diagnostic:
            print(f"no maps possible: {result.diagnostic}")
        print(
            f"{len(result.maps)} isomorphism class(es) of type {t} with n={args.n} "
            f"(complete={result.complete}, nodes={result.stats.nodes})"
        )
    # in JSON mode stdout stays one document, so the file notes go to stderr
    note = sys.stderr if args.json else sys.stdout
    for i, (m, info) in enumerate(zip(result.maps, infos), 1):
        if not args.json:
            print(
                f"  map {i}: |Aut|={info['aut_order']} ({info['aut_structure']}), "
                f"orbits={info['orbit_count']}, digest={info['canonical_digest'][:16]}"
            )
        if args.emit:
            path = f"{args.emit}-{i}.map"
            with open(path, "w") as fh:
                fh.write(dump_map(m, comment=f"type {t} n={args.n} chi={args.chi}"))
            print(f"    wrote {path}", file=note)
    return 0


def _cmd_verify(args) -> int:
    m = _load_map(args.mapfile)
    report = validate_polyhedral(m)
    chi, orientable, genus = surface_signature(m)
    t = semi_equivelar_type(m)
    print(f"vertices={m.f0} edges={m.f1} faces={m.f2}")
    print(f"euler_characteristic={chi} orientable={orientable} euler_genus={genus}")
    print(f"semi_equivelar_type={t if t else 'none'}")
    print(f"polyhedral={report.ok}")
    for kind, witness in report.violations:
        print(f"  violation: {kind} {witness}")
    return 0 if report.ok else 1


def _cmd_aut(args) -> int:
    m = _load_map(args.mapfile)
    order, structure, orbits = _group_summary(m)
    if args.json:
        print(
            json.dumps(
                {
                    "order": order,
                    "structure": structure,
                    "orbits": [list(o) for o in orbits],
                    "vertex_transitive": len(orbits) == 1,
                },
                indent=2,
            )
        )
    else:
        print(f"|Aut| = {order} ({structure})")
        print(f"vertex orbits ({len(orbits)}): {orbits}")
        print(f"vertex_transitive={len(orbits) == 1}")
    return 0


def _cmd_iso(args) -> int:
    m1 = _load_map(args.mapfile_a)
    m2 = _load_map(args.mapfile_b)
    bijection = isomorphic(m1, m2)
    if bijection is None:
        print("not isomorphic")
        return 1
    print("isomorphic; vertex bijection:")
    print("  " + " ".join(f"{a}->{b}" for a, b in sorted(bijection.items())))
    return 0


def _cmd_gi(args) -> int:
    m = _load_map(args.mapfile)
    g = gi_graph(m, args.i)
    if args.json:
        print(json.dumps({"i": args.i, "edges": [list(e) for e in g.edges]}, indent=2))
    else:
        print(f"G_{args.i}: {len(g.edges)} edge(s)")
        print("  " + " ".join(f"[{a},{b}]" for a, b in g.edges))
    return 0


def _cmd_transform(args, op) -> int:
    out = op(_load_map(args.mapfile))
    t = semi_equivelar_type(out)
    print(f"# result: vertices={out.f0} type={t if t else 'none'} chi={euler_characteristic(out)}")
    sys.stdout.write(dump_map(out))
    return 0


def _cmd_census(args) -> int:
    rows = census(
        args.chi,
        filters=_filters(args),
        enum_opts=_enum_opts(args),
        include_long=args.long,
    )
    if args.json:
        print(census_report_json(args.chi, rows, _filters(args)))
    else:
        print(f"census for Euler characteristic {args.chi}:")
        for row in rows:
            print(f"  n={row.pair.n:>3}  {str(row.pair.type):<22} {row.status}")
            for info in row.analyses:
                print(
                    f"      |Aut|={info['aut_order']} ({info['aut_structure']}), "
                    f"orbits={info['orbit_count']}, vt={info['vertex_transitive']}"
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semeq",
        description="Census tools for semi-equivelar maps on closed surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, enum=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if enum:
            p.add_argument("--threads", type=_integer(1), default=1,
                           help="worker processes")
            p.add_argument("--checkpoint", type=_path, default=None,
                           help="checkpoint file path (census: PATH.<type>.n<n> per row)")
            p.add_argument("--budget", type=_integer(0), default=None, help="node budget")
            p.add_argument("--long", action="store_true",
                           help="allow long runs (n >= 40)")

    def filter_flags(p):
        p.add_argument("--no-x3-filter", action="store_true",
                       help="keep types with fewer than 3 faces of some size")
        p.add_argument("--no-closed-star-filter", action="store_true",
                       help="keep types whose closed star exceeds the vertex count")
        p.add_argument("--min-vertices", type=_integer(1), default=7,
                       help="minimum vertex count (default 7)")

    p = sub.add_parser("classify", help="admissible (n, type) pairs")
    p.add_argument("--chi", type=_integer(), required=True)
    filter_flags(p)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="all maps of one type up to isomorphism")
    p.add_argument("--type", required=True)
    p.add_argument("--n", type=_integer(1), required=True)
    p.add_argument("--chi", type=_integer(), required=True)
    p.add_argument("--emit", type=_path, default=None, help="write maps to EMIT-<i>.map")
    common(p, enum=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="validate a map file")
    p.add_argument("mapfile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("aut", help="automorphism group of a map file")
    p.add_argument("mapfile")
    common(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test between two map files")
    p.add_argument("mapfile_a")
    p.add_argument("mapfile_b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("gi", help="same-link-intersection graph")
    p.add_argument("mapfile")
    p.add_argument("--i", type=_integer(0), required=True)
    common(p)
    p.set_defaults(func=_cmd_gi)

    p = sub.add_parser("truncate", help="corner-cut a map")
    p.add_argument("mapfile")
    p.set_defaults(func=lambda a: _cmd_transform(a, truncate_map))

    p = sub.add_parser("rectify", help="edge-midpoint a map")
    p.add_argument("mapfile")
    p.set_defaults(func=lambda a: _cmd_transform(a, rectify_map))

    p = sub.add_parser("census", help="full census for one Euler characteristic")
    p.add_argument("--chi", type=_integer(), required=True)
    filter_flags(p)
    common(p, enum=True)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
