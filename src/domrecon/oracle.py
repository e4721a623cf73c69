"""Brute-force reconfiguration graph over dominating sets.

Nodes of R_k(G) are all dominating sets of size <= k, edges join sets whose
symmetric difference is a single vertex. Everything here is desk scale:
subset enumeration is the point, not a shortcut.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .graphs import Graph, LimitError, exact_invariants, mask_of, set_of

DEFAULT_VERTEX_LIMIT = 20
DEFAULT_SUBSET_CAP = 1 << 22


@dataclass(frozen=True)
class ReconfigGraph:
    """R_k(G) with nodes in canonical order (size, then lexicographic)."""

    graph_n: int
    k: int
    nodes: tuple[int, ...]  # bitmasks over 0..graph_n-1
    adj: tuple[tuple[int, ...], ...]
    comp: tuple[int, ...]
    num_components: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def node_sets(self) -> list[frozenset[int]]:
        return [set_of(mask) for mask in self.nodes]

    def index_of(self, s) -> int:
        mask = mask_of(s)
        try:
            return self._index()[mask]
        except KeyError:
            raise ValueError(
                f"set {sorted(v + 1 for v in s)} is not a node of R_{self.k}"
                " (not dominating or larger than k)"
            ) from None

    def _index(self) -> dict[int, int]:
        cache = getattr(self, "_index_cache", None)
        if cache is None:
            cache = {mask: i for i, mask in enumerate(self.nodes)}
            object.__setattr__(self, "_index_cache", cache)
        return cache


def _scan_estimate(n: int, k: int) -> int:
    return sum(math.comb(n, s) for s in range(min(k, n) + 1))


def build_reconfig_graph(
    g: Graph,
    k: int,
    limit: int = DEFAULT_VERTEX_LIMIT,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> ReconfigGraph:
    """Enumerate R_k(G).

    Nodes are collected in size-then-lexicographic order. Refuses when n
    exceeds the vertex limit or when the number of subsets to scan exceeds
    subset_cap. k below the domination number yields an empty graph, which
    is reported, not an error.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n > limit:
        raise LimitError(f"oracle needs n <= {limit}, got {g.n}")
    if _scan_estimate(g.n, k) > subset_cap:
        raise LimitError(
            f"scanning {_scan_estimate(g.n, k)} subsets exceeds the cap {subset_cap}"
        )
    nb = g.nb_mask
    full = g.full_mask
    nodes: list[int] = []
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            cov = 0
            for v in combo:
                cov |= nb[v]
            if cov == full:
                nodes.append(mask_of(combo))
    index = {mask: i for i, mask in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for i, mask in enumerate(nodes):
        for v in range(g.n):
            bit = 1 << v
            if mask & bit:
                continue
            j = index.get(mask | bit)
            if j is not None:
                adj[i].append(j)
                adj[j].append(i)
    adj = tuple(tuple(sorted(a)) for a in adj)
    comp, num_components = _label_components(adj)
    return ReconfigGraph(
        graph_n=g.n,
        k=k,
        nodes=tuple(nodes),
        adj=adj,
        comp=comp,
        num_components=num_components,
    )


def _label_components(adj) -> tuple[tuple[int, ...], int]:
    # BFS labels in node order: component ids follow each component's first node
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


def is_connected(rg: ReconfigGraph) -> bool:
    """Empty and one-node reconfiguration graphs count as connected."""
    return rg.num_components <= 1


def frozen_sets(rg: ReconfigGraph) -> list[frozenset[int]]:
    """Isolated nodes (no move applies), in canonical node order."""
    return [set_of(rg.nodes[i]) for i in range(rg.num_nodes) if not rg.adj[i]]


def distance(rg: ReconfigGraph, a, b) -> int | float:
    """BFS hop count between two node sets; math.inf across components."""
    ia, ib = rg.index_of(a), rg.index_of(b)
    if rg.comp[ia] != rg.comp[ib]:
        return math.inf
    if ia == ib:
        return 0
    dist = {ia: 0}
    queue = deque([ia])
    while queue:
        u = queue.popleft()
        for w in rg.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                if w == ib:
                    return dist[w]
                queue.append(w)
    raise RuntimeError("BFS must reach a node of the same component")


def _eccentricities(rg: ReconfigGraph, sources) -> int:
    best = 0
    for s in sources:
        dist = {s: 0}
        queue = deque([s])
        far = 0
        while queue:
            u = queue.popleft()
            for w in rg.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    far = max(far, dist[w])
                    queue.append(w)
        best = max(best, far)
    return best


def diameter(rg: ReconfigGraph) -> int | float:
    """Max BFS eccentricity; math.inf when disconnected, 0 when empty."""
    if rg.num_nodes == 0:
        return 0
    if rg.num_components > 1:
        return math.inf
    return _eccentricities(rg, range(rg.num_nodes))


def max_component_diameter(rg: ReconfigGraph) -> int:
    """Largest intra-component diameter; shown next to an infinite diameter."""
    if rg.num_nodes == 0:
        return 0
    return _eccentricities(rg, range(rg.num_nodes))


@dataclass(frozen=True)
class ThresholdRecord:
    k: int
    num_nodes: int
    num_edges: int
    num_components: int
    connected: bool
    diameter: int | float
    max_component_diameter: int


@dataclass(frozen=True)
class ThresholdReport:
    graph_n: int
    gamma: int
    gamma_upper: int
    kmax: int
    records: tuple[ThresholdRecord, ...]
    d0_empirical: int | None


def threshold_scan(
    g: Graph,
    kmax: int,
    limit: int = DEFAULT_VERTEX_LIMIT,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> ThresholdReport:
    """Connectivity of R_k for k = gamma..kmax, plus the empirical threshold.

    d0_empirical is the smallest k0 in the scanned window with R_k connected
    for every k0 <= k <= kmax, or None when R_kmax itself is disconnected
    (the threshold then lies outside the window). Known monotonicity, that
    connectivity at some k > Gamma persists at k + 1, is checked on every
    scan as a self-check of the enumeration.
    """
    if kmax > g.n:
        raise ValueError(f"kmax must be at most n={g.n}")
    if g.n > limit:
        raise LimitError(f"oracle needs n <= {limit}, got {g.n}")
    inv = exact_invariants(g, limit=max(limit, 24))
    gamma = inv.gamma_min
    full_rg = build_reconfig_graph(g, kmax, limit=limit, subset_cap=subset_cap)
    records: list[ThresholdRecord] = []
    for k in range(gamma, kmax + 1):
        # nodes are sorted by size, so R_k is the prefix of R_kmax's nodes
        # of size <= k and its rows keep the neighbours inside that prefix
        m = sum(1 for mask in full_rg.nodes if mask.bit_count() <= k)
        adj = tuple(tuple(w for w in row if w < m) for row in full_rg.adj[:m])
        comp, ncomp = _label_components(adj)
        sub = ReconfigGraph(
            graph_n=g.n,
            k=k,
            nodes=full_rg.nodes[:m],
            adj=adj,
            comp=comp,
            num_components=ncomp,
        )
        # one all-pairs BFS per record: when R_k is connected its diameter
        # is the largest component diameter
        widest = max_component_diameter(sub)
        connected = is_connected(sub)
        records.append(
            ThresholdRecord(
                k=k,
                num_nodes=sub.num_nodes,
                num_edges=sub.num_edges,
                num_components=ncomp,
                connected=connected,
                diameter=widest if connected else math.inf,
                max_component_diameter=widest,
            )
        )
    for earlier, later in zip(records, records[1:]):
        if earlier.k > inv.gamma_upper and earlier.connected and not later.connected:
            raise RuntimeError(
                f"connectivity monotonicity violated between k={earlier.k}"
                f" and k={later.k}; the enumeration is inconsistent"
            )
    d0: int | None = None
    for rec in reversed(records):
        if rec.connected:
            d0 = rec.k
        else:
            break
    if records and not records[-1].connected:
        d0 = None
    return ThresholdReport(
        graph_n=g.n,
        gamma=gamma,
        gamma_upper=inv.gamma_upper,
        kmax=kmax,
        records=tuple(records),
        d0_empirical=d0,
    )
