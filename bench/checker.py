"""Independent output checks for the benchmark.

Nothing here imports domrecon. Graph, decomposition and sequence files are
read with parsers of their own, domination is tested with a per-vertex
cover count, the domination invariants come from integer programs solved
by scipy (the route the test suite uses), and facts about R_k come from a
numpy table over all 2**n subsets plus scipy's graph routines. A defect in
the program therefore cannot hide behind the same defect in its check.

Every check raises CheckError with a message naming the first violation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import connected_components, shortest_path


class CheckError(Exception):
    """An output disagrees with the independent computation."""


# ---------------------------------------------------------------- graphs


class SimpleGraph:
    """Adjacency sets over vertices 0..n-1."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    @property
    def edge_set(self) -> set[tuple[int, int]]:
        return {(u, v) for u in range(self.n) for v in self.adj[u] if u < v}

    def closed(self, v: int) -> set[int]:
        return self.adj[v] | {v}


def read_graph(text: str) -> SimpleGraph:
    """'p ds n m' header and 'e u v' lines, 1-based; 'c' lines are comments."""
    n = None
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n, m = int(fields[2]), int(fields[3])
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
        else:
            raise CheckError(f"graph file: unexpected line {line!r}")
    if n is None or len(edges) != m:
        raise CheckError("graph file: bad header or edge count")
    return SimpleGraph(n, edges)


def write_graph(g: SimpleGraph, comment: str) -> str:
    lines = [f"c {comment}", f"p ds {g.n} {len(g.edge_set)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edge_set)]
    return "\n".join(lines) + "\n"


def relabel(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """Vertex v of g becomes perm[v]."""
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edge_set])


def mynhardt(ell: int) -> SimpleGraph:
    """The clique-matching graph: u0, outer clique C0, ell - 1 inner cliques.

    Built here from its definition (not from the program's generator):
    u0 = 0 sees all of C0 = 1..ell; each clique is complete; the j-th
    member of every inner clique is matched to the j-th member of C0.
    """
    def c(i, j):
        return i * ell + j

    edges = [(0, c(0, j)) for j in range(1, ell + 1)]
    for i in range(ell):
        for a in range(1, ell + 1):
            for b in range(a + 1, ell + 1):
                edges.append((c(i, a), c(i, b)))
    for i in range(1, ell):
        edges += [(c(i, j), c(0, j)) for j in range(1, ell + 1)]
    return SimpleGraph(ell * ell + 1, edges)


def mynhardt_certificates(ell: int) -> tuple[int, int, frozenset[int]]:
    """Closed form for mynhardt(ell): Gamma = gamma = ell, and C0 is a
    minimum dominating set. The tests confirm it by integer programming
    for small ell."""
    return ell, ell, frozenset(range(1, ell + 1))


def read_td_width(text: str, g: SimpleGraph) -> int:
    """Width of a tree decomposition file, after checking that it is one.

    Checks: b - 1 tree edges forming a tree, every vertex and every edge
    inside some bag, and the bags holding each vertex connected.
    """
    bags: dict[int, set[int]] = {}
    tree: list[tuple[int, int]] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] in ("c", "s"):
            continue
        if fields[0] == "b":
            ids = [int(f) for f in fields[1:]]
            bags[ids[0] - 1] = {v - 1 for v in ids[1:]}
        else:
            tree.append((int(fields[0]) - 1, int(fields[1]) - 1))
    b = len(bags)
    nbr = [[] for _ in range(b)]
    for i, j in tree:
        nbr[i].append(j)
        nbr[j].append(i)
    if len(tree) != b - 1 or _reach(nbr, 0, lambda i: True) != set(range(b)):
        raise CheckError("decomposition: bag graph is not a tree")
    holders: list[set[int]] = [set() for _ in range(g.n)]
    for i, bag in bags.items():
        for v in bag:
            holders[v].add(i)
    for v in range(g.n):
        if not holders[v]:
            raise CheckError(f"decomposition: vertex {v + 1} is in no bag")
        first = next(iter(holders[v]))
        if _reach(nbr, first, holders[v].__contains__) != holders[v]:
            raise CheckError(f"decomposition: bags of vertex {v + 1} not connected")
    for u, v in g.edge_set:
        if not holders[u] & holders[v]:
            raise CheckError(f"decomposition: edge {u + 1}-{v + 1} in no bag")
    return max(len(bag) for bag in bags.values()) - 1


def _reach(nbr, start, allowed) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen and allowed(w):
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------- sequences


class Replay:
    """A sequence file replayed move by move with a cover-count domination test."""

    def __init__(self, g: SimpleGraph, text: str):
        header = None
        start = None
        moves: list[tuple[int, int]] = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0] == "c":
                continue
            if fields[0] == "s":
                header = (int(fields[2]), int(fields[3]))
            elif fields[0] == "d":
                start = frozenset(int(f) - 1 for f in fields[1:])
            elif fields[0] in ("+", "-"):
                moves.append((1 if fields[0] == "+" else -1, int(fields[1]) - 1))
            else:
                raise CheckError(f"sequence file: unexpected line {line!r}")
        if header is None or start is None:
            raise CheckError("sequence file: missing header or start line")
        if header[1] != len(moves):
            raise CheckError(
                f"sequence file: header says {header[1]} moves, file has {len(moves)}"
            )
        self.k_header = header[0]
        self.start = start
        self.length = len(moves)
        cover = [0] * g.n
        current = set(start)
        for v in current:
            for w in g.closed(v):
                cover[w] += 1
        undominated = cover.count(0)
        if undominated:
            raise CheckError("sequence: start set is not dominating")
        max_size = len(current)
        for step, (sign, v) in enumerate(moves, start=1):
            if not 0 <= v < g.n or (v in current) == (sign > 0):
                raise CheckError(f"sequence: move {step} is not applicable")
            if sign > 0:
                current.add(v)
            else:
                current.remove(v)
            for w in g.closed(v):
                if cover[w] == 0:
                    undominated -= 1
                cover[w] += sign
                if cover[w] == 0:
                    undominated += 1
            if undominated:
                raise CheckError(f"sequence: set after move {step} is not dominating")
            max_size = max(max_size, len(current))
        self.end = frozenset(current)
        self.max_size = max_size


def check_sequence(
    g: SimpleGraph, text: str, start, end, budget: int, length_bound: int
) -> Replay:
    """Valid, from start to end, never above budget, within the length bound."""
    replay = Replay(g, text)
    if replay.start != frozenset(start):
        raise CheckError("sequence: does not start at the requested set")
    if replay.end != frozenset(end):
        raise CheckError("sequence: does not end at the requested set")
    if replay.k_header != budget:
        raise CheckError(f"sequence: header budget {replay.k_header}, expected {budget}")
    if replay.max_size > budget:
        raise CheckError(f"sequence: reaches size {replay.max_size} > k = {budget}")
    if replay.length > length_bound:
        raise CheckError(
            f"sequence: {replay.length} moves, above the bound {length_bound}"
        )
    return replay


def is_dominating(g: SimpleGraph, s) -> bool:
    covered = set()
    for v in s:
        covered |= g.closed(v)
    return len(covered) == g.n


def is_minimal_dominating(g: SimpleGraph, s) -> bool:
    s = set(s)
    return is_dominating(g, s) and not any(is_dominating(g, s - {v}) for v in s)


# ---------------------------------------------------------------- certificates


class _Rows:
    """Sparse constraint rows of a binary integer program."""

    def __init__(self):
        self.rows, self.cols, self.vals, self.lb, self.ub = [], [], [], [], []

    def add(self, entries, lo, hi):
        r = len(self.lb)
        for j, coeff in entries:
            self.rows.append(r)
            self.cols.append(j)
            self.vals.append(coeff)
        self.lb.append(lo)
        self.ub.append(hi)

    def solve(self, c) -> tuple[int, np.ndarray]:
        """Minimise c.x over binary x; returns the optimum and x."""
        a = sparse.csr_array(
            (self.vals, (self.rows, self.cols)), shape=(len(self.lb), len(c))
        )
        res = milp(
            c=np.asarray(c, dtype=float),
            constraints=[LinearConstraint(a, lb=self.lb, ub=self.ub)],
            integrality=np.ones(len(c)),
            bounds=Bounds(0, 1),
        )
        if not res.success:
            raise CheckError(f"integer program failed: {res.message}")
        return round(res.fun), np.round(res.x).astype(int)


def milp_gamma(g: SimpleGraph) -> tuple[int, frozenset[int]]:
    """Domination number and one minimum dominating set."""
    rows = _Rows()
    for v in range(g.n):
        rows.add([(u, 1.0) for u in g.closed(v)], 1, np.inf)
    value, x = rows.solve(np.ones(g.n))
    return value, frozenset(int(v) for v in np.flatnonzero(x))


def milp_alpha(g: SimpleGraph) -> int:
    rows = _Rows()
    for u, v in g.edge_set:
        rows.add([(u, 1.0), (v, 1.0)], -np.inf, 1)
    if not rows.lb:
        return g.n
    value, _ = rows.solve(-np.ones(g.n))
    return -value


def milp_gamma_upper(g: SimpleGraph) -> int:
    """Upper domination number: largest minimal dominating set.

    A dominating set is minimal iff each member v has a private vertex w in
    N[v] whose closed neighbourhood meets the set only in v; binary
    p_{v,w} selects it.
    """
    pairs = [(v, w) for v in range(g.n) for w in sorted(g.closed(v))]
    index = {vw: g.n + i for i, vw in enumerate(pairs)}
    rows = _Rows()
    for v in range(g.n):
        rows.add([(u, 1.0) for u in g.closed(v)], 1, np.inf)
    for v, w in pairs:
        j = index[(v, w)]
        rows.add([(v, 1.0), (j, -1.0)], 0, np.inf)
        for u in g.closed(w) - {v}:
            rows.add([(j, 1.0), (u, 1.0)], -np.inf, 1)
    for v in range(g.n):
        rows.add(
            [(index[(v, w)], 1.0) for w in sorted(g.closed(v))] + [(v, -1.0)],
            0,
            np.inf,
        )
    c = np.concatenate([-np.ones(g.n), np.zeros(len(pairs))])
    value, _ = rows.solve(c)
    return -value


# ---------------------------------------------------------------- R_k facts


class SubsetTable:
    """Every subset of V as a bitmask index: domination, size, minimality."""

    def __init__(self, g: SimpleGraph):
        if g.n > 22:
            raise ValueError("subset table needs n <= 22")
        n = g.n
        self.n = n
        size = 1 << n
        cover = np.zeros(size, dtype=np.int64)
        pop = np.zeros(size, dtype=np.int8)
        for v in range(n):
            closed = sum(1 << w for w in g.closed(v))
            cover[1 << v : 2 << v] = cover[: 1 << v] | closed
            pop[1 << v : 2 << v] = pop[: 1 << v] + 1
        self.pop = pop
        self.dom = cover == (1 << n) - 1
        minimal = self.dom.copy()
        for v in range(n):
            view_min = minimal.reshape(-1, 2, 1 << v)
            view_dom = self.dom.reshape(-1, 2, 1 << v)
            view_min[:, 1, :] &= ~view_dom[:, 0, :]
        self.minimal = minimal

    @property
    def gamma(self) -> int:
        return int(self.pop[self.dom].min())

    @property
    def gamma_upper(self) -> int:
        return int(self.pop[self.minimal].max())

    def rk(self, k: int) -> "RkFacts":
        return RkFacts(self, k)

    def random_dominating(self, max_size: int, rng) -> frozenset[int]:
        """A dominating set drawn uniformly among those of size <= max_size."""
        masks = np.flatnonzero(self.dom & (self.pop <= max_size))
        mask = int(masks[rng.randrange(len(masks))])
        return frozenset(v for v in range(self.n) if mask >> v & 1)


class RkFacts:
    """Nodes, edges, components and (on demand) diameter of R_k."""

    def __init__(self, table: SubsetTable, k: int):
        n = table.n
        node = table.dom & (table.pop <= k)
        self.k = k
        self._diameter = None
        self.masks = np.flatnonzero(node)
        self.nodes = len(self.masks)
        below = table.dom & (table.pop <= k - 1)
        self.edges = int((n - table.pop[below].astype(np.int64)).sum())
        self.frozen = int((table.minimal & (table.pop == k)).sum())
        index = np.full(1 << n, -1, dtype=np.int64)
        index[self.masks] = np.arange(self.nodes)
        src, dst = [], []
        for v in range(n):
            lower = self.masks[((self.masks >> v) & 1) == 0]
            upper = index[lower | (1 << v)]
            keep = upper >= 0
            src.append(index[lower[keep]])
            dst.append(upper[keep])
        src = np.concatenate(src) if src else np.zeros(0, dtype=np.int64)
        dst = np.concatenate(dst) if dst else np.zeros(0, dtype=np.int64)
        if len(src) != self.edges:
            raise CheckError("independent edge list disagrees with its own count")
        self.adjacency = sparse.csr_array(
            (np.ones(len(src), dtype=np.int8), (src, dst)),
            shape=(self.nodes, self.nodes),
        )
        if self.nodes:
            self.components = int(
                connected_components(self.adjacency, directed=False)[0]
            )
        else:
            self.components = 0

    @property
    def connected(self) -> bool:
        return self.components <= 1

    def diameter(self) -> float:
        """All-pairs BFS by scipy; computed once, on first use."""
        if self._diameter is None:
            if self.nodes == 0:
                self._diameter = 0
            elif not self.connected:
                self._diameter = math.inf
            else:
                dist = shortest_path(self.adjacency, directed=False, unweighted=True)
                self._diameter = int(dist.max())
        return self._diameter


# ---------------------------------------------------------------- oracle output


def parse_key_values(stdout: str) -> tuple[dict[str, str], list[frozenset[int]]]:
    """'name value' lines of an oracle --k answer; frozen sets listed apart."""
    values: dict[str, str] = {}
    frozen: list[frozenset[int]] = []
    for line in stdout.splitlines():
        name, _, value = line.partition(" ")
        if name == "frozen":
            if value != "none":
                frozen.append(frozenset(int(t) - 1 for t in value.split(",")))
        else:
            values[name] = value
    return values, frozen


def _number(text: str) -> float:
    return math.inf if text == "inf" else int(text)


def check_query(
    g: SimpleGraph, stdout: str, facts: RkFacts, a, b, expect_connected
) -> int:
    """An oracle --k K --distance A B --frozen answer; returns the distance.

    A and B share a dominating subset, so their distance is |A ^ B|.
    """
    values, frozen = parse_key_values(stdout)
    want = {
        "k": facts.k,
        "nodes": facts.nodes,
        "edges": facts.edges,
        "components": facts.components,
    }
    for name, expected in want.items():
        if values.get(name) != str(expected):
            raise CheckError(f"oracle: {name} {values.get(name)}, expected {expected}")
    if values.get("connected") != ("true" if facts.connected else "false"):
        raise CheckError("oracle: connectivity disagrees with the component count")
    if expect_connected is not None and facts.connected != expect_connected:
        raise CheckError(f"R_{facts.k}: connectivity contradicts the known threshold")
    if len(set(frozen)) != len(frozen) or len(frozen) != facts.frozen:
        raise CheckError(
            f"oracle: {len(frozen)} frozen sets listed, expected {facts.frozen}"
        )
    for s in frozen:
        if len(s) != facts.k or not is_minimal_dominating(g, s):
            raise CheckError("oracle: a listed frozen set is not minimal of size k")
    expected_distance = len(frozenset(a) ^ frozenset(b))
    if _number(values.get("distance", "")) != expected_distance:
        raise CheckError(
            f"oracle: distance {values.get('distance')}, expected {expected_distance}"
        )
    return expected_distance


def check_scan(
    stdout: str, table: SubsetTable, kmax: int, facts: dict[int, RkFacts], thresholds
) -> int:
    """An oracle --scan KMAX answer; returns the sum of finite diameters.

    thresholds maps k to the connectivity the literature fixes for R_k.
    """
    lines = stdout.splitlines()
    if lines[0] != f"gamma {table.gamma}" or lines[1] != f"gamma-upper {table.gamma_upper}":
        raise CheckError(f"scan: header {lines[:2]} disagrees with the subset table")
    rows = [line.split() for line in lines[3:-1]]
    ks = list(range(table.gamma, kmax + 1))
    if [int(r[0]) for r in rows] != ks:
        raise CheckError("scan: rows do not cover gamma..kmax")
    total = 0
    for row in rows:
        rk = facts[int(row[0])]
        diameter = rk.diameter()
        expected = [
            rk.k, rk.nodes, rk.edges, rk.components,
            "true" if rk.connected else "false", diameter,
        ]
        got = [int(row[0]), int(row[1]), int(row[2]), int(row[3]), row[4], _number(row[5])]
        if got != expected:
            raise CheckError(f"scan: row {row} disagrees with {expected}")
        if rk.k in thresholds and rk.connected != thresholds[rk.k]:
            raise CheckError(f"scan: R_{rk.k} connectivity contradicts the threshold")
        if diameter != math.inf:
            total += diameter
    d0 = None
    for row in reversed(rows):
        if row[4] != "true":
            break
        d0 = int(row[0])
    if lines[-1] != f"d0-empirical {'none' if d0 is None else d0}":
        raise CheckError(f"scan: {lines[-1]!r}, expected threshold {d0}")
    return total
