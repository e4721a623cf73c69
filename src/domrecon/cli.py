"""Command line front end.

Subcommands: gen (write instance families), stats (invariants of a graph
file), transform (build a reconfiguration sequence), verify (check a
sequence file), oracle (exact reconfiguration-graph queries). oracle --k
answers on the 2**n-bit subset lattice while 2**n <= the subset cap (n <= 22
by default; about (n + log2 n + 4) * 2**n bits); --diameter, --scan and
larger n list R_k's nodes and edges instead.

Exit codes: 0 success/valid, 1 invalid input, 2 verification failure
(an invalid sequence, or a transform longer than its length bound),
3 resource limit, 4 assumption violated (density witness, impossible
budget, inconsistent sweep inputs). The DOMRECON_LIMIT environment
variable overrides the default brute-force vertex limits; an explicit
--limit flag wins over both, and a negative value of either is invalid
input. Every request that brute-forces refuses an over-limit header
before it reads any other input: stats, oracle, and each transform that
runs exact_invariants (no --gamma-upper, or minor-sparse with d > Gamma)
or searches a minimum dominating set (treewidth without --min-ds). So a
valid header over the limit exits 3 even when malformed lines follow
(oracle --scan with KMAX above n, and transform's flag and vertex-list
errors, still exit 1 first).
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
from .treewidth import check_min_ds_limit, format_td, parse_td, treewidth_transform

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_LIMIT = 3
EXIT_ASSUMPTION = 4

# family: (parameter count, graph generator, decomposition generators)
_FAMILIES = {
    "star": (1, instances.gen_star, None),
    "mynhardt": (
        1,
        instances.gen_mynhardt,
        {"--td": instances.gen_mynhardt_td, "--pd": instances.gen_mynhardt_pd},
    ),
    "suzuki": (0, instances.gen_suzuki_planar, None),
    "grid": (2, instances.gen_grid, None),
    "path": (1, instances.gen_path, None),
    "rtree": (2, instances.gen_random_tree, None),
}
# the optional flags each transform method and each oracle mode takes; the
# others of its table are rejected, in the order the table lists them
_METHOD_FLAGS = {
    "general": ("--k",),
    "minor-sparse": ("--d", "--planar", "--gamma-upper"),
    "treewidth": ("--td", "--root", "--min-ds", "--gamma-upper"),
}
_MODE_FLAGS = {"--k": ("--distance", "--frozen", "--diameter"), "--scan": ("--csv",)}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken by
    # verification failures, so route bad usage to the invalid-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _limit(args, default: int) -> int:
    name, limit = "--limit", args.limit
    if limit is None:
        name, raw = "DOMRECON_LIMIT", os.environ.get("DOMRECON_LIMIT")
        if raw is None:
            return default
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if limit < 0:
        raise ValueError(f"{name} must be nonnegative, got {limit}")
    return limit


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph(text: str, refuse=None):
    """Parse a graph file; refuse, when given, sees the header's n first and
    raises LimitError for an n over its limit, before the rest is read."""
    if refuse is not None:
        n = header_n(text)
        if n is not None:
            refuse(n)
    return parse_graph(text)


def _reject_flags(args, table: dict, choice: str, context: str):
    for flag in dict.fromkeys(flag for flags in table.values() for flag in flags):
        # argparse's dest for --min-ds is min_ds; an absent store_true is False
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and flag not in table[choice]:
            raise ValueError(f"{flag} does not apply to {context}")


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
    count, generate, decompositions = _FAMILIES[family]
    shape = "--td" if args.td else "--pd" if args.pd else None
    if shape and not decompositions:
        named = " ".join(name for name, entry in _FAMILIES.items() if entry[2])
        raise ValueError(f"--td and --pd apply only to the {named} family")
    if len(params) != count:
        raise ValueError(
            f"family {family} takes {count} parameter(s), got {len(params)}"
        )
    label = " ".join([f"gen {family}"] + [str(p) for p in params])
    if shape:
        text = format_td(decompositions[shape](*params), [f"{label} {shape}"])
    else:
        text = format_graph(generate(*params), [label])
    _emit(text, args.output)
    return EXIT_OK


def cmd_stats(args) -> int:
    text = _read(args.graph)
    limit = _limit(args, DEFAULT_INVARIANTS_LIMIT)
    g = _graph(text, lambda n: check_invariants_limit(n, limit))
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


def cmd_transform(args) -> int:
    text = _read(args.graph)
    ds = parse_vertex_list(args.from_set)
    dt = parse_vertex_list(args.to_set)
    limit = _limit(args, DEFAULT_INVARIANTS_LIMIT)
    _reject_flags(args, _METHOD_FLAGS, args.method, f"method {args.method}")
    if args.method == "minor-sparse":
        if args.planar and args.d is not None:
            raise ValueError("--planar fixes d = 4; passing --d too is ambiguous")
        if not args.planar and args.d is None:
            raise ValueError("method minor-sparse needs --d D or --planar")
    elif args.method == "treewidth" and args.td is None:
        raise ValueError("method treewidth needs --td FILE")
    d = 4 if args.planar else args.d

    def runs_general(gamma_upper) -> bool:
        # minor-sparse falls back to the general transform when d > Gamma
        return args.method == "general" or (
            args.method == "minor-sparse" and d > gamma_upper
        )

    def refuse(n: int):
        # the brute-force steps this request takes, known from its flags;
        # minor-sparse answers ds == dt with no moves, before any fallback
        if args.gamma_upper is None or (ds != dt and runs_general(args.gamma_upper)):
            check_invariants_limit(n, limit)
        if args.method == "treewidth" and args.min_ds is None:
            check_min_ds_limit(n, limit)

    g = _graph(text, refuse)
    _check_vertices(g, ds, "--from")
    _check_vertices(g, dt, "--to")
    comments = [f"transform --method {args.method}"]
    if not is_connected(g):
        comments.append("warning: input graph is disconnected")
    if args.method == "treewidth":
        td = parse_td(_read(args.td))
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

    # with --gamma-upper, only minor-sparse's general fallback runs
    # exact_invariants, inside minor_sparse_transform
    inv = None if args.gamma_upper is not None else exact_invariants(g, limit=limit)
    gamma_upper = args.gamma_upper if inv is None else inv.gamma_upper
    if args.method == "general":
        seq = general_transform(g, ds, dt, inv, k=args.k)
        comments.append(
            f"k {seq.k} (Gamma {gamma_upper} + alpha {inv.alpha} - 1"
            + (" <= override)" if args.k is not None else ")")
        )
    elif args.method == "minor-sparse":
        seq = minor_sparse_transform(g, ds, dt, d, gamma_upper, limit=limit)
        comments.append(f"k {seq.k} (Gamma {gamma_upper} + d {d} - 1)")
    else:
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
        comments.append(f"k {seq.k} (Gamma {gamma_upper} + tw {td.width} + 1)")
    if runs_general(gamma_upper):
        bound = 10 * g.n
    elif args.method == "minor-sparse":
        bound = 2 * gamma_upper * (d - 1) + 2 * (gamma_upper - 1)
    else:
        bound = 4 * (g.n + 1) * (td.width + 1)

    report = verify_sequence(g, seq, expected_end=dt)
    if not (report.valid and report.end_matches):
        print(report.describe(), file=sys.stderr)
        return EXIT_VERIFICATION
    if report.length > bound:
        print(f"length {report.length} exceeds the bound {bound}", file=sys.stderr)
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
    g = _graph(_read(args.graph))
    seq = parse_sequence(_read(args.sequence))
    used = set(seq.start)
    for mv in seq.moves:
        used.add(mv.vertex)
    _check_vertices(g, used, "sequence")
    report = verify_sequence(g, seq, k=args.k)
    print(report.describe())
    return EXIT_OK if report.valid else EXIT_VERIFICATION


def cmd_oracle(args) -> int:
    mode = "--k" if args.scan is None else "--scan"
    _reject_flags(args, _MODE_FLAGS, mode, mode)
    text = _read(args.graph)
    limit = _limit(args, oracle.DEFAULT_VERTEX_LIMIT)

    def refuse(n: int):
        # the oracle's own checks, in their order (kmax > n first)
        if n > limit:
            if args.scan is not None:
                oracle.check_scan(n, args.scan, limit)
            else:
                oracle.check_request(n, args.k, limit)

    g = _graph(text, refuse)
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
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
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
    p.add_argument("--method", required=True, choices=list(_METHOD_FLAGS))
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
