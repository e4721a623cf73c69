"""Independent test oracles.

Everything here computes reference answers through a different route than
the package (networkx, ILP via scipy, elimination-order search) so that a
disagreement in a test points at a real defect rather than a shared bug.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from domrecon import Graph
from domrecon.graphs import GraphInvariants, LimitError
from domrecon.sequences import (
    ADD,
    BAD_MOVE,
    NOT_DOMINATING,
    SIZE_EXCEEDS_K,
    ReconfigSequence,
    VerificationReport,
)
from domrecon.treewidth import TreeDecomposition


def nx_to_graph(G: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
    return Graph(
        max(len(mapping), 1),
        [(mapping[u], mapping[v]) for u, v in G.edges()],
    )


def graph_to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def connected_atlas() -> dict[int, list[Graph]]:
    """One representative per isomorphism class of connected graphs, n <= 7."""
    out: dict[int, list[Graph]] = {n: [] for n in range(1, 8)}
    for G in nx.graph_atlas_g()[1:]:
        if nx.is_connected(G):
            out[G.number_of_nodes()].append(nx_to_graph(G))
    return out


def _iso_key(G: nx.Graph):
    degrees = sorted(d for _, d in G.degree())
    triangles = sorted(nx.triangles(G).values())
    nbdeg = sorted(
        sum(G.degree(u) for u in G[v]) for v in G
    )
    return (G.number_of_edges(), tuple(degrees), tuple(triangles), tuple(nbdeg))


def connected_order_8(seven_vertex: list[Graph]) -> list[Graph]:
    """Every connected 8-vertex graph, one per isomorphism class.

    Built by joining a new vertex to each nonempty neighborhood of each
    connected 7-vertex graph (every connected graph on 8 vertices has a
    non-cut vertex, so all classes are reached), then deduplicating with
    cheap invariants first and isomorphism tests inside each bucket.
    """
    buckets: dict[tuple, list[nx.Graph]] = {}
    result: list[Graph] = []
    for g7 in seven_vertex:
        base = graph_to_nx(g7)
        for mask in range(1, 1 << 7):
            G = base.copy()
            G.add_node(7)
            for v in range(7):
                if (mask >> v) & 1:
                    G.add_edge(7, v)
            key = _iso_key(G)
            bucket = buckets.setdefault(key, [])
            if any(nx.is_isomorphic(G, H) for H in bucket):
                continue
            bucket.append(G)
            result.append(nx_to_graph(G))
    return result


@functools.lru_cache(maxsize=64)
def masks(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(adj, nb, full): the open and closed neighbourhood of each vertex and
    the whole vertex set as bitmasks, built from g.edges() alone, so the
    references below share no domination code with the package."""
    adj = [0] * g.n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj), tuple(a | 1 << v for v, a in enumerate(adj)), (1 << g.n) - 1


def _dominates(g: Graph, s) -> bool:
    _, nb, full = masks(g)
    cov = 0
    for v in s:
        cov |= nb[v]
    return cov == full


def _rest_dominates(g: Graph, s, v) -> bool:
    _, nb, full = masks(g)
    rest = 0
    for u in s:
        if u != v:
            rest |= nb[u]
    return rest == full


def naive_is_minimal_dominating(g: Graph, s) -> bool:
    """Dominating, and dropping any one member leaves a non-dominating set."""
    return _dominates(g, s) and not any(_rest_dominates(g, s, v) for v in s)


def naive_reduce_to_minimal(g: Graph, s) -> tuple[frozenset[int], list[int]]:
    """Drop the lowest droppable id, rescan from the start, until none is left."""
    if not _dominates(g, s):
        raise ValueError("input set is not dominating")
    current = set(s)
    removals: list[int] = []
    while True:
        for v in sorted(current):
            if _rest_dominates(g, current, v):
                current.remove(v)
                removals.append(v)
                break
        else:
            return frozenset(current), removals


def naive_greedy_removals(g: Graph, s, prefer_outside) -> list[int]:
    """CoverCounts.shrink's greedy order as a mask loop: after every removal
    recompute the vertices dominated once and twice and drop the first
    member, outside prefer_outside first, then by id, whose private set is
    empty; nothing when s does not dominate."""
    _, nb, full = masks(g)
    current = sorted(s, key=lambda v: (v in prefer_outside, v))
    removals: list[int] = []
    while True:
        once = twice = 0
        for v in current:
            twice |= once & nb[v]
            once |= nb[v]
        if once != full:
            return removals
        i = next((i for i, v in enumerate(current) if not nb[v] & ~twice), None)
        if i is None:
            return removals
        removals.append(current.pop(i))


def naive_pop_removable(g: Graph, current: set[int], prefer_outside) -> int:
    """First droppable member, those outside prefer_outside first, by id."""
    for v in sorted(current, key=lambda v: (v in prefer_outside, v)):
        if _rest_dominates(g, current, v):
            current.remove(v)
            return v
    raise ValueError("no removable vertex")


def naive_states(seq: ReconfigSequence):
    """Yield the start set and the set after each move, one frozenset per
    state. Adding a present vertex or removing an absent one raises the
    ValueError texts of CoverCounts and ReconfigSequence.end."""
    current = frozenset(seq.start)
    yield current
    for mv in seq.moves:
        v = mv.vertex
        if mv.kind == ADD:
            if v in current:
                raise ValueError(f"cannot add {v}: already present")
            current = current | {v}
        else:
            if v not in current:
                raise ValueError(f"cannot remove {v}: not present")
            current = current - {v}
        yield current


def naive_verify_sequence(
    g: Graph, seq: ReconfigSequence, expected_end=None, k: int | None = None
) -> VerificationReport:
    """verify_sequence as a replay over one frozenset per state (naive_states)."""
    budget = seq.k if k is None else k
    bad_index = bad_reason = None

    def note(index: int, reason: str):
        nonlocal bad_index, bad_reason
        if bad_index is None:
            bad_index, bad_reason = index, reason

    max_size = 0
    end = None
    try:
        for i, current in enumerate(naive_states(seq)):
            max_size = max(max_size, len(current))
            if len(current) > budget:
                note(i, SIZE_EXCEEDS_K)
            if bad_index is None and not _dominates(g, current):
                note(i, NOT_DOMINATING)
            end = current
    except ValueError:
        # naive_states stopped at the malformed move i + 1
        note(i + 1, BAD_MOVE)
        end = None
    end_matches = (
        None if expected_end is None or end is None else end == frozenset(expected_end)
    )
    return VerificationReport(
        valid=bad_index is None,
        violation_index=bad_index,
        violation_reason=bad_reason,
        length=len(seq.moves),
        max_size=max_size,
        end=end,
        end_matches=end_matches,
        k=budget,
    )


def naive_find_swap_pair(g: Graph, d1, d2):
    """First (u, v) in ascending pair order with (d1 - {u}) | {v} dominating."""
    for u in sorted(d1):
        for v in sorted(d2):
            if _dominates(g, (set(d1) - {u}) | {v}):
                return u, v
    return None


def all_dominating_sets(g: Graph) -> list[frozenset[int]]:
    """Every dominating set, by size and then lexicographically."""
    return [
        frozenset(combo)
        for size in range(1, g.n + 1)
        for combo in itertools.combinations(range(g.n), size)
        if _dominates(g, combo)
    ]


def naive_reconfig_graph(g: Graph, k: int) -> tuple[tuple[int, ...], tuple]:
    """(nodes, adj) of R_k straight from the definition.

    The nodes are the dominating sets of size <= k in all_dominating_sets
    order, as bitmasks; two nodes are adjacent iff their symmetric
    difference is exactly one vertex, found by toggling each vertex of each
    node. Rows are sorted.
    """
    sets = [s for s in all_dominating_sets(g) if len(s) <= k]
    index = {s: i for i, s in enumerate(sets)}
    adj = tuple(
        tuple(sorted(index[s ^ {v}] for v in range(g.n) if s ^ {v} in index))
        for s in sets
    )
    return tuple(sum(1 << v for v in s) for s in sets), adj


def seeded_small_graphs(seed: int, max_n: int = 12) -> list[Graph]:
    """For each n <= max_n: the edgeless and complete graphs, two halves
    with no edge between them, and random graphs at three densities."""
    rng = random.Random(seed)
    graphs = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        graphs += [Graph(n, []), Graph(n, pairs)]
        halves = [(u, v) for u, v in pairs if (u < n // 2) == (v < n // 2)]
        graphs.append(Graph(n, [e for e in halves if rng.random() < 0.5]))
        for density in (0.15, 0.3, 0.5):
            graphs.append(Graph(n, [e for e in pairs if rng.random() < density]))
    return graphs


def fill(s, size, order) -> frozenset[int]:
    """s grown by the first vertices of `order` it misses, up to `size`."""
    grown = set(s)
    for v in order:
        if len(grown) >= size:
            break
        grown.add(v)
    return frozenset(grown)


def all_minimal_dominating_sets(g: Graph) -> list[frozenset[int]]:
    return [s for s in all_dominating_sets(g) if naive_is_minimal_dominating(g, s)]


def naive_exact_invariants(g: Graph, limit: int = 24) -> GraphInvariants:
    """exact_invariants as a Python loop over all 2**n subsets.

    Subsets come in size-then-lexicographic order, so each witness is the
    first optimal set met; minimality is the O(|S|^2) drop-each-member test.
    """
    n = g.n
    if n > limit:
        raise LimitError(f"exact_invariants needs n <= {limit}, got {n}")
    adj, nb, full = masks(g)
    gamma = None
    min_ds: tuple[int, ...] | None = None
    upper_size, upper_ds = -1, None
    alpha_size, max_is = 0, ()
    vertices = range(n)
    for size in range(n + 1):
        alpha_alive = alpha_size >= size - 1
        found_is = False
        for combo in itertools.combinations(vertices, size):
            cov = 0
            for v in combo:
                cov |= nb[v]
            if cov == full:
                if gamma is None:
                    gamma, min_ds = size, combo
                if size > upper_size and naive_is_minimal_dominating(g, combo):
                    upper_size, upper_ds = size, combo
            if alpha_alive and not found_is:
                mask = 0
                independent = True
                for v in combo:
                    if adj[v] & mask:
                        independent = False
                        break
                    mask |= 1 << v
                if independent:
                    found_is = True
                    if size > alpha_size or size == 0:
                        alpha_size, max_is = size, combo
    if gamma is None or upper_ds is None:
        raise RuntimeError("the full vertex set always dominates")
    return GraphInvariants(
        gamma_min=gamma,
        gamma_upper=upper_size,
        alpha=alpha_size,
        witness_min_ds=frozenset(min_ds),
        witness_upper_ds=frozenset(upper_ds),
        witness_max_is=frozenset(max_is),
    )


def naive_label_components(adj) -> tuple[tuple[int, ...], int]:
    """deque BFS labels in node order; ids follow each component's first node."""
    comp = [-1] * len(adj)
    num_components = 0
    for s in range(len(adj)):
        if comp[s] != -1:
            continue
        comp[s] = num_components
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = num_components
                    queue.append(w)
        num_components += 1
    return tuple(comp), num_components


def _naive_bfs(adj, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def naive_distance(adj, a: int, b: int) -> int | float:
    """Hop count between node indices a and b; math.inf when unreachable."""
    return _naive_bfs(adj, a).get(b, math.inf)


def naive_distances(adj, a: int) -> list[int | float]:
    """Hop counts from node index a to every node; math.inf when unreachable."""
    dist = _naive_bfs(adj, a)
    return [dist.get(b, math.inf) for b in range(len(adj))]


def naive_eccentricity(adj, source: int) -> int:
    """Largest hop count from source within its component."""
    return max(_naive_bfs(adj, source).values())


def naive_validate_td(g: Graph, td: TreeDecomposition) -> tuple[bool, tuple[str, ...], int]:
    """validate_td as a scan of every bag per vertex and per edge: O(n b)."""
    violations: list[str] = []
    b = len(td.bags)
    if b < 1:
        return False, ("decomposition has no bags",), -1
    adjacency: list[set[int]] = [set() for _ in range(b)]
    for i, j in td.tree_edges:
        if not (0 <= i < b and 0 <= j < b) or i == j:
            violations.append(f"tree edge ({i},{j}) is not a pair of distinct bags")
            continue
        adjacency[i].add(j)
        adjacency[j].add(i)
    if len(td.tree_edges) != b - 1:
        violations.append(
            f"{len(td.tree_edges)} tree edges for {b} bags (need {b - 1})"
        )
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != b:
        violations.append("bag tree is disconnected")
    if not 0 <= td.root < b:
        violations.append(f"root index {td.root} out of range")
    for idx, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                violations.append(f"bag {idx} contains out-of-range vertex {v}")
    covered = set()
    for bag in td.bags:
        covered |= bag
    for v in range(g.n):
        if v not in covered:
            violations.append(f"vertex {v + 1} appears in no bag")
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            violations.append(f"edge ({u + 1},{v + 1}) is inside no bag")
    if not violations:
        for v in range(g.n):
            holders = [i for i, bag in enumerate(td.bags) if v in bag]
            reached = {holders[0]}
            stack = [holders[0]]
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if w in holders and w not in reached:
                        reached.add(w)
                        stack.append(w)
            if reached != set(holders):
                violations.append(f"bags containing vertex {v + 1} are not connected")
    width = max(len(bag) for bag in td.bags) - 1
    return not violations, tuple(violations), width


def naive_normalize_td(td: TreeDecomposition, root: int | None = None):
    """(bags, parent) of normalize_td, taking each leaf by a min-scan of all bags."""
    b = len(td.bags)
    bags = list(td.bags)
    adjacency: list[set[int]] = [set() for _ in range(b)]
    for i, j in td.tree_edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    representative = list(range(b))
    alive = [True] * b
    merged = True
    while merged:
        merged = False
        for i in sorted(a for a in range(b) if alive[a]):
            for j in sorted(adjacency[i]):
                if bags[i] <= bags[j]:
                    drop, keep = i, j
                elif bags[j] <= bags[i]:
                    drop, keep = j, i
                else:
                    continue
                adjacency[keep].discard(drop)
                for other in adjacency[drop]:
                    if other != keep:
                        adjacency[other].discard(drop)
                        adjacency[other].add(keep)
                        adjacency[keep].add(other)
                adjacency[drop] = set()
                alive[drop] = False
                representative[drop] = keep
                merged = True
                break
            if merged:
                break
    root_idx = td.root if root is None else root
    while representative[root_idx] != root_idx:
        root_idx = representative[root_idx]
    remaining = {i for i in range(b) if alive[i]}
    degree = {i: len(adjacency[i]) for i in remaining}
    order: list[int] = []
    while len(remaining) > 1:
        leaf = min(i for i in remaining if degree[i] <= 1 and i != root_idx)
        order.append(leaf)
        remaining.discard(leaf)
        for other in adjacency[leaf]:
            if other in remaining:
                degree[other] -= 1
    order.append(root_idx)
    position = {old: new for new, old in enumerate(order)}
    parents = []
    for new, old in enumerate(order):
        later = [position[o] for o in adjacency[old] if position[o] > new]
        parents.append(None if old == root_idx else later[0])
    return tuple(bags[old] for old in order), tuple(parents)


def naive_vertex_tops(ntd) -> list[int]:
    """Highest index of a bag holding each vertex, -1 if none."""
    tops = [-1] * ntd.n
    for idx, bag in enumerate(ntd.bags):
        for v in bag:
            tops[v] = max(tops[v], idx)
    return tops


def naive_classify_left(ntd, j: int) -> tuple[frozenset[int], frozenset[int]]:
    """Left: vertices whose top bag reaches bag j by a walk up the parents."""

    def below(i):
        while i is not None and i < j:
            i = ntd.parent[i]
        return i == j

    tops = naive_vertex_tops(ntd)
    universe = frozenset(v for v in range(ntd.n) if tops[v] >= 0)
    left = frozenset(v for v in universe if below(tops[v]))
    return left, universe - left


def _solve_binary(c, constraints) -> tuple[int, np.ndarray]:
    n = len(c)
    res = milp(
        c=np.asarray(c, dtype=float),
        constraints=constraints or None,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    return round(res.fun), np.round(res.x).astype(int)


def milp_gamma(g: Graph) -> tuple[int, frozenset[int]]:
    """Minimum dominating set by integer programming."""
    rows = np.zeros((g.n, g.n))
    for v in range(g.n):
        rows[v, v] = 1
        for u in g.neighbors(v):
            rows[v, u] = 1
    value, x = _solve_binary(
        np.ones(g.n), [LinearConstraint(rows, lb=1, ub=np.inf)]
    )
    return value, frozenset(int(v) for v in np.flatnonzero(x[: g.n]))


def milp_alpha(g: Graph) -> int:
    """Maximum independent set by integer programming."""
    edges = list(g.edges())
    constraints = []
    if edges:
        rows = np.zeros((len(edges), g.n))
        for i, (u, v) in enumerate(edges):
            rows[i, u] = rows[i, v] = 1
        constraints.append(LinearConstraint(rows, lb=-np.inf, ub=1))
    value, _ = _solve_binary(-np.ones(g.n), constraints)
    return -value


def milp_gamma_upper(g: Graph) -> int:
    """Upper domination number by integer programming.

    A dominating set is minimal iff every member v has a private vertex w
    within N[v] whose closed neighborhood meets the set only in v. One
    binary p_{v,w} per such pair enforces that.
    """
    pairs = [(v, w) for v in range(g.n) for w in sorted({v, *g.neighbors(v)})]
    index = {vw: g.n + i for i, vw in enumerate(pairs)}
    total = g.n + len(pairs)
    rows, lbs, ubs = [], [], []

    def row(entries, lb, ub):
        r = np.zeros(total)
        for j, coeff in entries:
            r[j] = coeff
        rows.append(r)
        lbs.append(lb)
        ubs.append(ub)

    for v in range(g.n):
        row([(u, 1.0) for u in {v, *g.neighbors(v)}], 1, np.inf)
    for v, w in pairs:
        j = index[(v, w)]
        row([(v, 1.0), (j, -1.0)], 0, np.inf)
        for u in {w, *g.neighbors(w)} - {v}:
            row([(j, 1.0), (u, 1.0)], -np.inf, 1)
    for v in range(g.n):
        entries = [(index[(v, w)], 1.0) for w in sorted({v, *g.neighbors(v)})]
        row(entries + [(v, -1.0)], 0, np.inf)

    c = np.concatenate([-np.ones(g.n), np.zeros(len(pairs))])
    value, _ = _solve_binary(
        c, [LinearConstraint(np.vstack(rows), lb=lbs, ub=ubs)]
    )
    return -value


def degeneracy(g: Graph) -> int:
    remaining = set(range(g.n))
    degree = {v: g.degree(v) for v in remaining}
    best = 0
    while remaining:
        v = min(remaining, key=lambda u: (degree[u], u))
        best = max(best, degree[v])
        remaining.remove(v)
        for u in g.neighbors(v):
            if u in remaining:
                degree[u] -= 1
    return best


def _elimination_neighbors(adj: list[int], v: int, smask: int) -> int:
    # vertices outside smask reachable from v through smask
    result = 0
    seen = 1 << v
    stack = [v]
    while stack:
        u = stack.pop()
        new = adj[u] & ~seen
        seen |= new
        while new:
            bit = new & -new
            new ^= bit
            w = bit.bit_length() - 1
            if (smask >> w) & 1:
                stack.append(w)
            else:
                result |= bit
    return result


def _elimination_order(g: Graph, width: int) -> list[int] | None:
    adj, _, full = masks(g)
    dead: set[int] = set()
    order: list[int] = []

    def rec(smask: int) -> bool:
        if smask == full:
            return True
        if smask in dead:
            return False
        for v in range(g.n):
            if not (smask >> v) & 1:
                nb = _elimination_neighbors(adj, v, smask)
                if nb.bit_count() <= width:
                    order.append(v)
                    if rec(smask | (1 << v)):
                        return True
                    order.pop()
        dead.add(smask)
        return False

    return order if rec(0) else None


def exact_treewidth(g: Graph) -> int:
    width = degeneracy(g)
    while _elimination_order(g, width) is None:
        width += 1
    return width


def exact_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Minimum-width decomposition from an optimal elimination order."""
    width = degeneracy(g)
    order = _elimination_order(g, width)
    while order is None:
        width += 1
        order = _elimination_order(g, width)
    position = {v: i for i, v in enumerate(order)}
    bags = []
    parents = []
    smask = 0
    for i, v in enumerate(order):
        nb = _elimination_neighbors(masks(g)[0], v, smask)
        bag = {v}
        parent = None
        best = None
        while nb:
            bit = nb & -nb
            nb ^= bit
            u = bit.bit_length() - 1
            bag.add(u)
            if best is None or position[u] < best:
                best = position[u]
        parent = best if best is not None else (i + 1 if i + 1 < g.n else None)
        bags.append(frozenset(bag))
        parents.append(parent)
        smask |= 1 << v
    edges = [(i, p) for i, p in enumerate(parents) if p is not None]
    return TreeDecomposition(
        n=g.n, bags=tuple(bags), tree_edges=tuple(edges), root=g.n - 1
    )


def tree_natural_decomposition(g: Graph) -> TreeDecomposition:
    """Width-1 decomposition of a tree: one bag per edge, rooted at 0."""
    if g.n == 1:
        return TreeDecomposition(n=1, bags=(frozenset({0}),), tree_edges=(), root=0)
    parent = {0: None}
    bfs_order = [0]
    queue = [0]
    while queue:
        u = queue.pop(0)
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                bfs_order.append(w)
                queue.append(w)
    assert len(bfs_order) == g.n, "input is not a connected tree"
    bag_index = {}
    bags = []
    edges = []
    first_child = None
    for v in bfs_order[1:]:
        bags.append(frozenset({v, parent[v]}))
        bag_index[v] = len(bags) - 1
        if parent[v] == 0:
            if first_child is None:
                first_child = v
            else:
                edges.append((bag_index[v], bag_index[first_child]))
        else:
            edges.append((bag_index[v], bag_index[parent[v]]))
    return TreeDecomposition(
        n=g.n, bags=tuple(bags), tree_edges=tuple(edges), root=len(bags) - 1
    )
