"""Command line front end.

Subcommands: gen (write instance families), stats (invariants of a graph
file), transform (build a reconfiguration sequence), verify (check a
sequence file), oracle (exact reconfiguration-graph queries). oracle --k
answers on the 2**n-bit subset lattice while 2**n <= the subset cap (n <= 22
by default; about (n + log2 n + 4) * 2**n bits); --diameter, --scan and
larger n list R_k's nodes and edges instead.

Exit codes: 0 success/valid, 1 invalid input, 2 verification failure,
3 resource limit, 4 assumption violated (density witness, impossible
budget, inconsistent sweep inputs). The DOMRECON_LIMIT environment
variable overrides the default brute-force vertex limits; an explicit
--limit flag wins over both. stats, oracle and every transform that
runs exact_invariants (general, or minor-sparse / treewidth without
--gamma-upper) check the header's n against their limit before reading
the rest of the file, so a valid header over the limit exits 3 even when
malformed lines follow (oracle --scan with KMAX above n, and transform's
flag and vertex-list errors, still exit 1 first).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import warnings

from . import instances, oracle
from .general import general_transform
from .graphs import (
    DEFAULT_INVARIANTS_LIMIT,
    LimitError,
    check_invariants_limit,
    content_lines,
    exact_invariants,
    format_graph,
    format_vertex_list,
    header_n,
    is_connected,
    parse_graph,
    parse_vertex_list,
)
from .minor_sparse import DensityWitness, NotMinorSparseError, minor_sparse_transform
from .sequences import format_sequence, parse_sequence, verify_sequence
from .treewidth import format_td, parse_td, treewidth_transform

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_LIMIT = 3
EXIT_ASSUMPTION = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken by
    # verification failures, so route bad usage to the invalid-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _env_limit(default: int) -> int:
    raw = os.environ.get("DOMRECON_LIMIT")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DOMRECON_LIMIT must be an integer, got {raw!r}") from None


def _limit(args, default: int) -> int:
    return args.limit if args.limit is not None else _env_limit(default)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_vertices(g, vertices, what: str):
    for v in vertices:
        if v >= g.n:
            raise ValueError(
                f"{what} mentions vertex {v + 1} but the graph has {g.n} vertices"
            )


def _bool(flag) -> str:
    return "true" if flag else "false"


def _witness_lines(witness: DensityWitness) -> list[str]:
    lines = [f"dense minor certificate, average degree >= {witness.d}:"]
    for entry in witness.entries:
        pairs = "; ".join(
            f"b {b + 1} via x {x + 1}" for b, x in zip(entry.bs, entry.xs)
        )
        lines.append(f"  a {entry.a + 1}: {pairs}")
    return lines


def cmd_gen(args) -> int:
    family = args.family
    params = args.param or []

    def need(count: int):
        if len(params) != count:
            raise ValueError(
                f"family {family} takes {count} parameter(s), got {len(params)}"
            )

    if (args.td or args.pd) and family != "mynhardt":
        raise ValueError("--td and --pd apply only to the mynhardt family")
    label = " ".join([f"gen {family}"] + [str(p) for p in params])
    if family == "mynhardt":
        need(1)
        if args.td:
            text = format_td(instances.gen_mynhardt_td(params[0]), [label + " --td"])
        elif args.pd:
            text = format_td(instances.gen_mynhardt_pd(params[0]), [label + " --pd"])
        else:
            text = format_graph(instances.gen_mynhardt(params[0]), [label])
        _emit(text, args.output)
        return EXIT_OK
    if family == "star":
        need(1)
        g = instances.gen_star(params[0])
    elif family == "path":
        need(1)
        g = instances.gen_path(params[0])
    elif family == "grid":
        need(2)
        g = instances.gen_grid(params[0], params[1])
    elif family == "rtree":
        need(2)
        g = instances.gen_random_tree(params[0], params[1])
    else:
        need(0)
        g = instances.gen_suzuki_planar()
    _emit(format_graph(g, [label]), args.output)
    return EXIT_OK


def cmd_stats(args) -> int:
    text = _read(args.graph)
    limit = _limit(args, DEFAULT_INVARIANTS_LIMIT)
    # an over-limit header exits 3 before the rest of the file is read
    n = header_n(text)
    if n is not None:
        check_invariants_limit(n, limit)
    g = parse_graph(text)
    inv = exact_invariants(g, limit=limit)
    fields = [
        ("n", g.n),
        ("m", g.m),
        ("connected", _bool(is_connected(g))),
        ("gamma", inv.gamma_min),
        ("gamma-upper", inv.gamma_upper),
        ("alpha", inv.alpha),
        ("min-dominating", format_vertex_list(inv.witness_min_ds)),
        ("max-minimal-dominating", format_vertex_list(inv.witness_upper_ds)),
        ("max-independent", format_vertex_list(inv.witness_max_is)),
    ]
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow([name for name, _ in fields])
        writer.writerow([value for _, value in fields])
    else:
        for name, value in fields:
            print(name, value)
    return EXIT_OK


def _reject_flags(given: dict[str, bool], allowed: set[str], context: str):
    for flag, present in given.items():
        if present and flag not in allowed:
            raise ValueError(f"{flag} does not apply to {context}")


def cmd_transform(args) -> int:
    text = _read(args.graph)
    ds = parse_vertex_list(args.from_set)
    dt = parse_vertex_list(args.to_set)
    limit = _limit(args, DEFAULT_INVARIANTS_LIMIT)
    given = {
        "--k": args.k is not None,
        "--d": args.d is not None,
        "--planar": args.planar,
        "--td": args.td is not None,
        "--root": args.root is not None,
        "--min-ds": args.min_ds is not None,
        "--gamma-upper": args.gamma_upper is not None,
    }
    if args.method == "general":
        _reject_flags(given, {"--k"}, "method general")
    elif args.method == "minor-sparse":
        _reject_flags(given, {"--d", "--planar", "--gamma-upper"}, "method minor-sparse")
        if args.planar and args.d is not None:
            raise ValueError("--planar fixes d = 4; passing --d too is ambiguous")
        if not args.planar and args.d is None:
            raise ValueError("method minor-sparse needs --d D or --planar")
    else:
        _reject_flags(
            given, {"--td", "--root", "--min-ds", "--gamma-upper"}, "method treewidth"
        )
        if args.td is None:
            raise ValueError("method treewidth needs --td FILE")
    if args.gamma_upper is None:
        # every method then runs exact_invariants (general takes no
        # --gamma-upper), so an over-limit header exits 3 before the rest
        # of the file is read
        n = header_n(text)
        if n is not None:
            check_invariants_limit(n, limit)
    g = parse_graph(text)
    _check_vertices(g, ds, "--from")
    _check_vertices(g, dt, "--to")
    comments = [f"transform --method {args.method}"]
    if not is_connected(g):
        comments.append("warning: input graph is disconnected")

    if args.method == "general":
        inv = exact_invariants(g, limit=limit)
        seq = general_transform(g, ds, dt, inv, k=args.k)
        bound = 10 * g.n
        comments.append(
            f"k {seq.k} (Gamma {inv.gamma_upper} + alpha {inv.alpha} - 1"
            + (" <= override)" if args.k is not None else ")")
        )
    elif args.method == "minor-sparse":
        d = 4 if args.planar else args.d
        gamma_upper = args.gamma_upper
        if gamma_upper is None:
            gamma_upper = exact_invariants(g, limit=limit).gamma_upper
        seq = minor_sparse_transform(g, ds, dt, d, gamma_upper, limit=limit)
        if d > gamma_upper:  # minor_sparse_transform ran general_transform
            bound = 10 * g.n
        else:
            bound = 2 * gamma_upper * (d - 1) + 2 * (gamma_upper - 1)
        comments.append(f"k {seq.k} (Gamma {gamma_upper} + d {d} - 1)")
    else:
        td = parse_td(_read(args.td))
        gamma_upper = args.gamma_upper
        if gamma_upper is None:
            gamma_upper = exact_invariants(g, limit=limit).gamma_upper
        min_ds = None
        if args.min_ds is not None:
            min_ds = _read_set_file(args.min_ds)
            _check_vertices(g, min_ds, "--min-ds")
        root = None
        if args.root is not None:
            if not 1 <= args.root <= td.num_bags:
                raise ValueError(
                    f"--root {args.root} is not a bag id (1..{td.num_bags})"
                )
            root = args.root - 1
        # the library warns through the warnings module, whose text names
        # this file and line; the CLI prints one stable line instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                seq = treewidth_transform(
                    g, td, ds, dt, gamma_upper, min_ds=min_ds, root=root, limit=limit
                )
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
        tw = td.width
        bound = 4 * (g.n + 1) * (tw + 1)
        comments.append(f"k {seq.k} (Gamma {gamma_upper} + tw {tw} + 1)")

    report = verify_sequence(g, seq, expected_end=dt)
    if not (report.valid and report.end_matches):
        print(report.describe(), file=sys.stderr)
        return EXIT_VERIFICATION
    comments.append(f"length {report.length} (bound {bound})")
    comments.append(f"max-size {report.max_size}")
    _emit(format_sequence(seq, comments=comments), args.output)
    if args.output not in (None, "-"):
        print(
            f"wrote {args.output}: k={seq.k} length={report.length}"
            f" max-size={report.max_size}"
        )
    return EXIT_OK


def _read_set_file(path: str) -> frozenset[int]:
    for _, fields in content_lines(_read(path)):
        return parse_vertex_list(" ".join(fields))
    raise ValueError(f"{path} contains no vertex list")


def cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    seq = parse_sequence(_read(args.sequence))
    used = set(seq.start)
    for mv in seq.moves:
        used.add(mv.vertex)
    _check_vertices(g, used, "sequence")
    report = verify_sequence(g, seq, k=args.k)
    print(report.describe())
    return EXIT_OK if report.valid else EXIT_VERIFICATION


def cmd_oracle(args) -> int:
    given = {
        "--distance": args.distance is not None,
        "--frozen": args.frozen,
        "--diameter": args.diameter,
        "--csv": args.csv,
    }
    if args.scan is not None:
        _reject_flags(given, {"--csv"}, "--scan")
    else:
        _reject_flags(given, {"--distance", "--frozen", "--diameter"}, "--k")
    text = _read(args.graph)
    limit = _limit(args, oracle.DEFAULT_VERTEX_LIMIT)
    # an over-limit header exits 3 before the rest of the file is read, by
    # the oracle's own checks in their order (kmax > n first)
    n = header_n(text)
    if n is not None and n > limit:
        if args.scan is not None:
            oracle.check_scan(n, args.scan, limit)
        else:
            oracle.check_request(n, args.k, limit)
    g = parse_graph(text)
    if args.scan is not None:
        report = oracle.threshold_scan(g, args.scan, limit=limit)
        table = [["k", "nodes", "edges", "components", "connected", "diameter"]]
        table += [
            [
                rec.k,
                rec.num_nodes,
                rec.num_edges,
                rec.num_components,
                _bool(rec.connected),
                rec.diameter,
            ]
            for rec in report.records
        ]
        if args.csv:
            csv.writer(sys.stdout).writerows(table)
        else:
            print(f"gamma {report.gamma}")
            print(f"gamma-upper {report.gamma_upper}")
            for row in table:
                print(*row)
            d0 = report.d0_empirical
            print(f"d0-empirical {'none' if d0 is None else d0}")
        return EXIT_OK
    if args.distance is not None:
        a, b = map(parse_vertex_list, args.distance)
        _check_vertices(g, a | b, "--distance")
    # --diameter needs R_k listed; the rest is read off the subset lattice
    # while its 2**n subsets fit the cap
    listed = args.diameter or g.n > oracle.LATTICE_MAX_N
    build = oracle.build_reconfig_graph if listed else oracle.SubsetLattice
    rg = build(g, args.k, limit=limit)
    # before any output, so that a set that is not a node prints nothing
    hops = None if args.distance is None else oracle.distance(rg, a, b)
    print(f"k {args.k}")
    print(f"nodes {rg.num_nodes}")
    print(f"edges {rg.num_edges}")
    print(f"components {rg.num_components}")
    print(f"connected {_bool(oracle.is_connected(rg))}")
    if args.diameter:
        print(f"diameter {oracle.diameter(rg)}")
        if rg.num_components > 1:
            print(f"max-component-diameter {oracle.max_component_diameter(rg)}")
    if args.frozen:
        frozen = oracle.frozen_sets(rg)
        if not frozen:
            print("frozen none")
        for s in frozen:
            print(f"frozen {format_vertex_list(s)}")
    if hops is not None:
        print(f"distance {hops}")
    return EXIT_OK


# built once per process: parse_args fills a fresh Namespace on every call,
# so no option value outlives its call
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="domrecon",
        description="Dominating-set reconfiguration under token addition/removal.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="write an instance family to a graph/td file")
    p.add_argument(
        "--family",
        required=True,
        choices=["star", "mynhardt", "suzuki", "grid", "path", "rtree"],
    )
    p.add_argument("--param", type=int, nargs="*", help="family parameters")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument(
        "--td", action="store_true", help="emit the tree decomposition instead"
    )
    shape.add_argument(
        "--pd", action="store_true", help="emit the path decomposition instead"
    )
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="exact invariants of a graph file")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, help="brute-force vertex limit")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("transform", help="construct a reconfiguration sequence")
    p.add_argument("graph")
    p.add_argument("--from", dest="from_set", required=True, metavar="SET")
    p.add_argument("--to", dest="to_set", required=True, metavar="SET")
    p.add_argument(
        "--method", required=True, choices=["general", "minor-sparse", "treewidth"]
    )
    p.add_argument("--k", type=int, help="budget override (general method)")
    p.add_argument("--d", type=int, help="excluded minor density (minor-sparse)")
    p.add_argument("--planar", action="store_true", help="shortcut for --d 4")
    p.add_argument("--td", metavar="FILE", help="tree decomposition file (treewidth)")
    p.add_argument("--root", type=int, metavar="BAG", help="1-based root bag id")
    p.add_argument("--min-ds", dest="min_ds", metavar="SETFILE")
    p.add_argument("--gamma-upper", dest="gamma_upper", type=int)
    p.add_argument("--limit", type=int, help="brute-force vertex limit")
    p.add_argument("--output", "-o", help="sequence file (default stdout)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="check a sequence file against a graph")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("--k", type=int, help="re-verify at this budget instead")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact reconfiguration-graph queries")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int, help="build R_k")
    mode.add_argument("--scan", type=int, metavar="KMAX", help="scan k = gamma..KMAX")
    p.add_argument("--distance", nargs=2, metavar=("FROM", "TO"))
    p.add_argument("--frozen", action="store_true", help="list isolated nodes")
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV rows for --scan")
    p.add_argument("--limit", type=int, help="brute-force vertex limit")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except NotMinorSparseError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        for line in _witness_lines(exc.witness):
            print(line, file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except RuntimeError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
