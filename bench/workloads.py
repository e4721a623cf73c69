"""Inputs, request lists and expected answers of the four workloads.

A set-up writes every input file of one workload into a directory and
returns its requests. Inputs come from the program's instance generators
(the instances layer) where it has one and from seeded generators here
otherwise. Everything a check needs (domination invariants, R_k facts,
the literature's thresholds) is computed here by bench/checker.py, apart
from the program. The same workload and seed give the same requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker
from checker import CheckError, SimpleGraph
from domrecon import instances
from domrecon.graphs import format_graph
from domrecon.treewidth import format_td

NAMES = ("td-sweep", "small-cli", "oracle-scan", "oracle-query")


class RequestFailed(Exception):
    """A request exited non-zero or raised; not a wrong answer."""


@dataclass
class Request:
    argvs: list[list[str]]
    capture: str | None  # the sequence file a transform writes
    check: Callable[[dict], int]  # outcome -> moves it reports; raises


def build(name: str, seed: int, directory: Path) -> list[Request]:
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return {
        "td-sweep": _td_sweep,
        "small-cli": _small_cli,
        "oracle-scan": _oracle_scan,
        "oracle-query": _oracle_query,
    }[name](rng, directory)


# ---------------------------------------------------------------- helpers


def _vlist(s) -> str:
    return ",".join(str(v + 1) for v in sorted(s))


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def random_minimal_ds(g: SimpleGraph, rng: random.Random) -> frozenset[int]:
    """Drop vertices of V in random order while the rest still dominates."""
    cover = [len(g.closed(v)) for v in range(g.n)]
    current = set(range(g.n))
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if all(cover[w] >= 2 for w in g.closed(v)):
            current.remove(v)
            for w in g.closed(v):
                cover[w] -= 1
    return frozenset(current)


def random_maximal_is(g: SimpleGraph, rng: random.Random) -> frozenset[int]:
    order = list(range(g.n))
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if not g.adj[v] & chosen:
            chosen.add(v)
    return frozenset(chosen)


def grow(g: SimpleGraph, s, size: int, rng: random.Random) -> frozenset[int]:
    outside = sorted(set(range(g.n)) - set(s))
    return frozenset(s) | frozenset(rng.sample(outside, size - len(s)))


def random_endpoint(g: SimpleGraph, budget: int, rng: random.Random) -> frozenset[int]:
    """A random minimal dominating set, or half the time one padded above it."""
    s = random_minimal_ds(g, rng)
    most = min(budget, g.n)
    if len(s) < most and rng.random() < 0.5:
        s = grow(g, s, rng.randint(len(s) + 1, most), rng)
    return s


def _program_graph(g_prog, label: str) -> tuple[str, SimpleGraph]:
    text = format_graph(g_prog, [label])
    return text, checker.read_graph(text)


def _same_graph(g: SimpleGraph, reference: SimpleGraph, what: str):
    if g.n != reference.n or g.edge_set != reference.edge_set:
        raise CheckError(f"generator output for {what} differs from its definition")


def _tree_td(g: SimpleGraph) -> str:
    """Width-1 decomposition of a tree: one bag per edge, rooted at vertex 0.

    The bag of v's parent edge hangs off the bag of its parent's parent
    edge; the bags of the root's edges form a chain.
    """
    parent = [-1] * g.n
    order = [0]
    seen = {0}
    for v in order:
        for w in sorted(g.adj[v]):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    bag_of: dict[int, int] = {}
    lines = [f"s td {g.n - 1} 2 {g.n}"]
    tree: list[str] = []
    previous_root_child = None
    for v in order[1:]:
        bag_of[v] = len(bag_of) + 1
        lines.append(f"b {bag_of[v]} {min(v, parent[v]) + 1} {max(v, parent[v]) + 1}")
        if parent[v] == 0:
            if previous_root_child is not None:
                tree.append(f"{bag_of[previous_root_child]} {bag_of[v]}")
            previous_root_child = v
        else:
            tree.append(f"{bag_of[parent[v]]} {bag_of[v]}")
    return "\n".join(lines + tree) + "\n"


def _require_success(outcome: dict):
    if any(code != 0 for code in outcome["codes"]):
        raise RequestFailed(f"exit codes {outcome['codes']}: {outcome['stderr']}")


def _constructive(g, start, end, budget, bound) -> Callable[[dict], int]:
    def check(outcome: dict) -> int:
        _require_success(outcome)
        replay = checker.check_sequence(
            g, outcome["captured"] or "", start, end, budget, bound
        )
        verdict = f"valid: length={replay.length} max_size={replay.max_size} k={budget}\n"
        if outcome["stdout"][1] != verdict:
            raise CheckError(f"verify printed {outcome['stdout'][1]!r}, expected {verdict!r}")
        return replay.length

    return check


def _transform_request(graph, start, end, method_args, seq_path, check_args):
    argvs = [
        [
            "transform", graph, "--from", _vlist(start), "--to", _vlist(end),
            *method_args, "-o", seq_path,
        ],
        ["verify", graph, seq_path],
    ]
    return Request(argvs, seq_path, _constructive(*check_args))


# ---------------------------------------------------------------- td-sweep

# The graphs are fixed and the seed draws the endpoints: the sweep's cost
# depends on the tree's shape far more than on the endpoints, and a shape
# drawn per seed would swamp a run-to-run comparison. Two requests make
# req_p50_ms the mean of both, steadier than one mid-sized request alone.
TREE_N = 1000
TREE_SEED = 1
MYNHARDT_ELL = 18


def tree_case(n: int, seed: int) -> tuple:
    """A random tree from the program's generator, its width-1
    decomposition and its certificates by integer programming."""
    text, g = _program_graph(instances.gen_random_tree(n, seed), "rtree")
    _, min_ds = checker.milp_gamma(g)
    return (f"tree{n}", text, g, _tree_td(g), checker.milp_gamma_upper(g), min_ds)


def mynhardt_case(ell: int) -> tuple:
    """mynhardt(ell) and its width-ell decomposition from the program's
    generators, checked against the definition; closed-form certificates."""
    text, g = _program_graph(instances.gen_mynhardt(ell), f"mynhardt {ell}")
    _same_graph(g, checker.mynhardt(ell), f"mynhardt({ell})")
    gamma_upper, _, min_ds = checker.mynhardt_certificates(ell)
    td_text = format_td(instances.gen_mynhardt_td(ell), [f"mynhardt {ell} td"])
    return (f"myn{ell}", text, g, td_text, gamma_upper, min_ds)


def sweep_request(case: tuple, rng: random.Random, d: Path) -> Request:
    """transform --method treewidth with certificates, then verify.

    The source is a random minimal dominating set padded to exactly
    k = Gamma + tw + 1; the target is a random maximal independent set.
    """
    label, text, g, td_text, gamma_upper, min_ds = case
    tw = checker.read_td_width(td_text, g)
    k = gamma_upper + tw + 1
    source = grow(g, random_minimal_ds(g, rng), k, rng)
    target = random_maximal_is(g, rng)
    graph = _write(d / f"{label}.gr", text)
    method = [
        "--method", "treewidth",
        "--td", _write(d / f"{label}.td", td_text),
        "--gamma-upper", str(gamma_upper),
        "--min-ds", _write(d / f"{label}.set", _vlist(min_ds) + "\n"),
    ]
    bound = 4 * (g.n + 1) * (tw + 1)
    return _transform_request(
        graph, source, target, method, str(d / f"{label}.tar"),
        (g, source, target, k, bound),
    )


def _td_sweep(rng: random.Random, d: Path) -> list[Request]:
    cases = [tree_case(TREE_N, TREE_SEED), mynhardt_case(MYNHARDT_ELL)]
    return [sweep_request(case, rng, d) for case in cases]


# ---------------------------------------------------------------- small-cli

# exact_invariants costs ~2^n, so the sizes are fixed and the seed draws
# the edges and endpoints. Latency clusters by n; the sizes put the median
# request inside the n = 14 cluster, not on the edge between two clusters,
# where host noise would flip req_p50_ms from one cluster to the other.
GENERAL_SIZES = (11, 12, 14, 14, 16)
TREE_SIZES = (10, 12, 14, 16)
PLANAR_GRIDS = ((2, 6), (3, 5), (4, 4))
PAIRS_PER_GRAPH = 20


def _random_connected(rng: random.Random, n: int) -> SimpleGraph:
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    extra = rng.randint(n // 4, n // 2)
    while extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return SimpleGraph(n, edges)


def _small_cli(rng: random.Random, d: Path) -> list[Request]:
    def sparse(gamma_upper, d):  # budget and length bound of minor-sparse
        return gamma_upper + d - 1, 2 * gamma_upper * (d - 1) + 2 * (gamma_upper - 1)

    cases = []  # (label, graph text, graph, method args, budget, bound)
    for i, n in enumerate(GENERAL_SIZES):
        g = _random_connected(rng, n)
        alpha = checker.milp_alpha(g)
        gamma_upper = checker.milp_gamma_upper(g)
        text = checker.write_graph(g, "random connected")
        cases.append((f"gen{i}", text, g, ["--method", "general"],
                      gamma_upper + alpha - 1, 10 * g.n - 1))
    for i, n in enumerate(TREE_SIZES):
        text, g = _program_graph(instances.gen_random_tree(n, rng.randrange(1 << 30)), "rtree")
        cases.append((f"tree{i}", text, g, ["--method", "minor-sparse", "--d", "2"],
                      *sparse(checker.milp_gamma_upper(g), 2)))
    for i, (rows, cols) in enumerate(PLANAR_GRIDS):
        text, g = _program_graph(instances.gen_grid(rows, cols), f"grid {rows}x{cols}")
        cases.append((f"grid{i}", text, g, ["--method", "minor-sparse", "--planar"],
                      *sparse(checker.milp_gamma_upper(g), 4)))
    requests = []
    for label, text, g, method, budget, bound in cases:
        graph = _write(d / f"{label}.gr", text)
        for j in range(PAIRS_PER_GRAPH):
            start = random_endpoint(g, budget, rng)
            end = random_endpoint(g, budget, rng)
            requests.append(
                _transform_request(
                    graph, start, end, method, str(d / f"{label}-{j}.tar"),
                    (g, start, end, budget, bound),
                )
            )
    return requests


# ---------------------------------------------------------------- oracle


def _suzuki() -> SimpleGraph:
    """Three nested triangles a, b, c with radial edges a_i b_i and b_i c_i."""
    tri = [(0, 1), (1, 2), (0, 2)]
    edges = [(u + 3 * r, v + 3 * r) for r in range(3) for u, v in tri]
    edges += [(i, i + 3) for i in range(3)] + [(i + 3, i + 6) for i in range(3)]
    return SimpleGraph(9, edges)


def _star(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def _grid(rows: int, cols: int) -> SimpleGraph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return SimpleGraph(rows * cols, edges)


def _relabelled(rng, g_prog, reference: SimpleGraph, what: str) -> SimpleGraph:
    """Check the generator against the definition, then permute vertex ids."""
    _, g = _program_graph(g_prog, what)
    _same_graph(g, reference, what)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return checker.relabel(g, perm)


STAR_LEAVES = 8


def mynhardt_thresholds(ell: int, ks) -> dict[int, bool]:
    # R_k of mynhardt(ell) is disconnected through k = 2 ell - 2, connected after
    return {k: k >= 2 * ell - 1 for k in ks}


def scan_request(label, g: SimpleGraph, kmax: int, thresholds, d: Path) -> Request:
    """oracle --scan KMAX, checked row by row against the subset table."""
    table = checker.SubsetTable(g)
    facts = {k: table.rk(k) for k in range(table.gamma, kmax + 1)}
    for rk in facts.values():
        rk.diameter()
    graph = _write(d / f"{label}.gr", checker.write_graph(g, label))

    def check(outcome):
        _require_success(outcome)
        return checker.check_scan(outcome["stdout"][0], table, kmax, facts, thresholds)

    return Request([["oracle", graph, "--scan", str(kmax)]], None, check)


def _oracle_scan(rng: random.Random, d: Path) -> list[Request]:
    cases = [
        ("myn3", instances.gen_mynhardt(3), checker.mynhardt(3), 10,
         mynhardt_thresholds(3, range(11))),
        ("suzuki", instances.gen_suzuki_planar(), _suzuki(), 9, {4: False}),
        # K_{1,s} splits exactly at k = s
        ("star", instances.gen_star(STAR_LEAVES), _star(STAR_LEAVES), STAR_LEAVES + 1,
         {k: k != STAR_LEAVES for k in range(STAR_LEAVES + 2)}),
        ("myn4", instances.gen_mynhardt(4), checker.mynhardt(4), 5,
         mynhardt_thresholds(4, range(6))),
    ]
    return [
        scan_request(label, _relabelled(rng, g_prog, reference, label), kmax, thresholds, d)
        for label, g_prog, reference, kmax, thresholds in cases
    ]


def _oracle_query(rng: random.Random, d: Path) -> list[Request]:
    cases = [
        ("myn4", instances.gen_mynhardt(4), checker.mynhardt(4), (6, 7, 8),
         mynhardt_thresholds(4, (6, 7, 8))),
        ("grid", instances.gen_grid(4, 5), _grid(4, 5), (8, 9, 10), {}),
    ]
    requests = []
    for label, g_prog, reference, ks, thresholds in cases:
        g = _relabelled(rng, g_prog, reference, label)
        table = checker.SubsetTable(g)
        graph = _write(d / f"{label}.gr", checker.write_graph(g, label))
        for k in ks:
            facts = table.rk(k)
            # A and B extend one dominating set C by two vertices each, so
            # the distance is |A ^ B| = 4 through sets of size <= |C| + 2
            core = table.random_dominating(k - 2, rng)
            a = grow(g, core, len(core) + 2, rng)
            b = grow(g, core | (a - core), len(core) + 4, rng) - (a - core)
            argv = ["oracle", graph, "--k", str(k), "--distance", _vlist(a), _vlist(b),
                    "--frozen"]

            def check(outcome, g=g, facts=facts, a=a, b=b, expect=thresholds.get(k)):
                _require_success(outcome)
                return checker.check_query(g, outcome["stdout"][0], facts, a, b, expect)

            requests.append(Request([argv], None, check))
    return requests
