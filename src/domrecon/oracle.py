"""Exact reconfiguration graph over dominating sets, listed or on the lattice.

Nodes of R_k(G) are all dominating sets of size <= k, edges join sets whose
symmetric difference is a single vertex. build_reconfig_graph lists nodes
and adjacency rows, as diameters need; threshold_scan lists R_kmax this way
once and measures every smaller R_k of its window as a prefix of it.
SubsetLattice holds R_k as 2**n-bit families of all subsets instead, for
2**n <= DEFAULT_SUBSET_CAP (n <= 22), in about (n + log2(n) + 5) * 2**n
bits: roughly 3.7 MiB at n = 20. Counts and frozen sets are a few big-int
operations per vertex. Components and distances are explicit searches over
set masks, about n steps per set reached, until a component or a BFS level
passes 2**n / 4,096 sets (_SPARSE_CAP); 2**n-bit rounds take over from there.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, groupby
from operator import itemgetter, ne, or_

from .graphs import (
    Graph,
    LimitError,
    SubsetFamilies,
    _minimal_dominating,
    bfs_levels,
    dominating_subsets,
    exact_invariants,
    mask_of,
    set_of,
)

DEFAULT_VERTEX_LIMIT = 20
DEFAULT_SUBSET_CAP = 1 << 22
# the largest n whose 2**n subsets fit the cap, for SubsetLattice
LATTICE_MAX_N = DEFAULT_SUBSET_CAP.bit_length() - 1
# sources per bit-parallel BFS block: at least _BLOCK, and more while one
# generation of num_nodes rows of that many bits fits _ROW_BUDGET bits; each
# block holds two generations
_BLOCK = 1024
_ROW_BUDGET = 1 << 22
# SubsetLattice searches explicit sets while a level (hops) or a component
# (fills) holds at most 2**n * _SPARSE_CAP // DEFAULT_SUBSET_CAP sets: 1,024
# at n = 22, 256 at n = 20, none below n = 12. One explicit set costs about
# as much as 2**12 bits of a 2**n-bit round
_SPARSE_CAP = 1 << 10
_NONZERO = bytes([0] + [1] * 255)


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
        return sum(map(len, self.adj)) // 2

    def index_of(self, s) -> int:
        mask = mask_of(s)
        try:
            return self._index[mask]
        except KeyError:
            raise _not_a_node(s, self.k) from None

    @cached_property
    def _index(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.nodes)}

    def frozen_masks(self) -> list[int]:
        return [self.nodes[i] for i, row in enumerate(self.adj) if not row]

    def hops(self, ia: int, ib: int) -> int | float:
        if self.comp[ia] != self.comp[ib]:
            return math.inf
        seen = bytearray(self.num_nodes)
        for hops, _level in enumerate(bfs_levels(self.adj, ia, seen)):
            if seen[ib]:
                return hops
        raise RuntimeError("BFS must reach a node of the same component")


def _not_a_node(s, k: int) -> ValueError:
    return ValueError(
        f"set {sorted(v + 1 for v in s)} is not a node of R_{k}"
        " (not dominating or larger than k)"
    )


class SubsetLattice:
    """R_k(G) as 2**n-bit families (see graphs.SubsetFamilies), unlisted:
    node S is bit S of `family`, and index_of gives S's mask."""

    def __init__(self, g: Graph, k: int, limit: int = DEFAULT_VERTEX_LIMIT):
        check_request(g.n, k, limit)
        if g.n > LATTICE_MAX_N:
            raise LimitError(f"the lattice needs n <= {LATTICE_MAX_N}, got {g.n}")
        fam = SubsetFamilies(g)
        size = 1 << g.n
        self.k, self.has = k, fam.has
        self.family = family = fam.dominating & fam.size_at_most(k)
        # explicit searches test membership on one bytes view of the family
        self._bits = [1 << v for v in range(g.n)]
        self._view = family.to_bytes((size + 7) >> 3, "little")
        self._cap = size * _SPARSE_CAP // DEFAULT_SUBSET_CAP
        # domination is closed upward: a node below size k has one edge up
        # per vertex it lacks, and each edge is counted from its lower end
        below = family & fam.size_at_most(k - 1)
        sizes = sum((below & p).bit_count() << i for i, p in enumerate(fam.planes))
        self.num_nodes = family.bit_count()
        self.num_edges = g.n * below.bit_count() - sizes
        # frozen: a minimal dominating set that cannot add a vertex, as it has
        # k members or is V; each other component is one fill
        stuck = (family ^ below) | (family & 1 << size - 1)
        self.frozen = stuck & _minimal_dominating(fam)
        self.num_components = self.frozen.bit_count()
        rest = family ^ self.frozen
        while rest:
            rest ^= self._component((rest & -rest).bit_length() - 1, rest)
            self.num_components += 1

    def index_of(self, s) -> int:
        mask = mask_of(s)
        if not self.family >> mask & 1:
            raise _not_a_node(s, self.k)
        return mask

    def frozen_masks(self) -> list[int]:
        # set bits read byte by byte: each x & -x would cost all 2**n bits.
        # A literal search for the bytes that _NONZERO maps to 1 runs in C,
        # a character class byte by byte in the regex engine
        raw = self.frozen.to_bytes(-(-self.frozen.bit_length() // 8), "little")
        starts = [m.start() for m in re.finditer(b"\x01", raw.translate(_NONZERO))]
        masks = [8 * i + bit for i in starts for bit in range(8) if raw[i] >> bit & 1]
        # size, then lex order of the members: among sets of one size, that
        # is the bit-reversed mask, descending
        width = len(self._bits)
        return sorted(masks, key=lambda m: (m.bit_count(), -int(f"{m:0{width}b}"[::-1], 2)))

    def hops(self, a: int, b: int) -> int | float:
        # bidirectional BFS over explicit sets, one full level of the smaller
        # frontier at a time, until a new set is one the other side reached.
        # That set lies at the other side's last depth D: the set before it
        # on a shortest path would otherwise have met the other side one
        # level earlier. So the distance is the new depth plus D. A level of
        # more than _cap sets would cost more than a 2**n-bit round, and
        # families take over from there
        if a == b:
            return 0
        this, that = ({a: 0}, [a]), ({b: 0}, [b])
        while True:
            if len(that[1]) < len(this[1]):
                this, that = that, this
            (reached, level), (other, far) = this, that
            if len(level) > self._cap:
                return self._dense_hops(reached, level, far) + other[far[0]]
            depth = reached[level[0]] + 1
            level = _grow(level, depth, reached, self._view, self._bits)
            if not level:
                return math.inf
            if any(map(other.__contains__, level)):
                return depth + other[far[0]]
            this = (reached, level)

    def _dense_hops(self, reached: dict, level: list, far: list) -> int | float:
        # the depth at which BFS by frontier families, carried on from an
        # explicit side (level holds its deepest sets), first reaches a set
        # of far
        width = len(self._view)
        depth = reached[level[0]]
        seen, frontier = _pack(reached, width), _pack(level, width)
        goal = _pack(far, width)
        while not frontier & goal:
            grown = _moves(frontier, self.has) & self.family
            frontier = grown ^ (grown & seen)
            if not frontier:
                return math.inf
            seen |= frontier
            depth += 1
        return depth

    def _component(self, s: int, rest: int) -> int:
        # s's component within rest, the components not yet counted: an
        # explicit BFS while it holds at most _cap sets, then _fill's sweeps
        # from all it reached
        reached, level = {s: 0}, [s]
        while level and len(reached) <= self._cap:
            level = _grow(level, reached[level[0]] + 1, reached, self._view, self._bits)
        packed = _pack(reached, len(self._view))
        return _fill(packed, rest, self.has) if level else packed


def _grow(level, depth: int, reached: dict, view: bytes, bits) -> list[int]:
    # the sets one move from level that are in the family (bit t of view)
    # and not yet reached, entered in reached at depth
    new = []
    for s in level:
        for bit in bits:
            t = s ^ bit
            if view[t >> 3] >> (t & 7) & 1 and t not in reached:
                reached[t] = depth
                new.append(t)
    return new


def _pack(masks, nbytes: int) -> int:
    # masks as one 2**n-bit family of nbytes bytes, set through a bytearray:
    # each |= 1 << m would cost all 2**n bits
    raw = bytearray(nbytes)
    for m in masks:
        raw[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(raw, "little")


def _moves(x: int, has) -> int:
    # the sets one move from a set in x: (x << 2**v) & has[v] adds v (a set
    # with v carries out of has[v]) and (x & has[v]) >> 2**v drops it; no ~,
    # since a negative 2**n-bit int makes each & about 3x dearer
    out = 0
    for v, members in enumerate(has):
        out |= ((x << (1 << v)) & members) | ((x & members) >> (1 << v))
    return out


def _fill(reached: int, family: int, has) -> int:
    # reached's component in family, a union of components: each sweep adds
    # the moves on v from all that is reached so far, v by v, so one sweep
    # can go many hops. Once reached is all of family, no sweep can add more
    before = None
    while reached != before and reached != family:
        before = reached
        for v, members in enumerate(has):
            step = 1 << v
            moved = ((reached << step) & members) | ((reached & members) >> step)
            reached |= moved & family
    return reached


def check_request(n: int, k: int, limit: int) -> None:
    """The refusals of an R_k request on n vertices, before any work."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n > limit:
        raise LimitError(f"oracle needs n <= {limit}, got {n}")


def check_scan(n: int, kmax: int, limit: int) -> None:
    """The refusals of threshold_scan on n vertices that come before its
    per-k checks; kmax above n is refused first."""
    if kmax > n:
        raise ValueError(f"kmax must be at most n={n}")
    if n > limit:
        raise LimitError(f"oracle needs n <= {limit}, got {n}")


def _check_listing(g: Graph, k: int, limit: int) -> None:
    check_request(g.n, k, limit)
    scanned = sum(math.comb(g.n, s) for s in range(min(k, g.n) + 1))
    if scanned > DEFAULT_SUBSET_CAP:
        raise LimitError(
            f"scanning {scanned} subsets exceeds the cap {DEFAULT_SUBSET_CAP}"
        )


def build_reconfig_graph(
    g: Graph, k: int, limit: int = DEFAULT_VERTEX_LIMIT
) -> ReconfigGraph:
    """Enumerate R_k(G).

    Nodes are collected in size-then-lexicographic order. Refuses when n
    exceeds the vertex limit or when the number of subsets to scan exceeds
    DEFAULT_SUBSET_CAP. k below the domination number yields an empty
    graph, which is reported, not an error.
    """
    _check_listing(g, k, limit)
    nodes = list(dominating_subsets(g, k))
    index = {mask: i for i, mask in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    bits = [1 << v for v in range(g.n)]
    # domination is closed upward, so S + v is a node whenever |S| < k:
    # each edge is met once from its smaller end, and the pass stops at the
    # first node of size k. Every row comes out ascending: its
    # down-neighbours are appended in node order and all precede it, then
    # its up-neighbours follow it, in lex order since S + u precedes S + v
    # for u < v.
    for i, mask in enumerate(nodes):
        if mask.bit_count() == k:
            break
        row = adj[i]
        for bit in bits:
            if not mask & bit:
                j = index[mask | bit]
                row.append(j)
                adj[j].append(i)
    rg = _reconfig_graph(g.n, k, tuple(nodes), tuple(map(tuple, adj)))
    # index_of and distance reuse the dict built above, not a second copy
    rg.__dict__["_index"] = index
    return rg


def _reconfig_graph(n: int, k: int, nodes, adj) -> ReconfigGraph:
    # the one constructor of listed and prefix R_k: labels its components
    comp, num_components = _label_components(adj)
    return ReconfigGraph(
        graph_n=n,
        k=k,
        nodes=nodes,
        adj=adj,
        comp=comp,
        num_components=num_components,
    )


def _prefix(rg: ReconfigGraph, k: int) -> ReconfigGraph:
    # R_k for k < rg.k: nodes are sorted by size, so R_k is the first m
    # nodes, and each ascending row is cut before its first index >= m
    m = bisect_right(rg.nodes, k, key=int.bit_count)
    adj = tuple(row[:bisect_left(row, m)] for row in rg.adj[:m])
    return _reconfig_graph(rg.graph_n, k, rg.nodes[:m], adj)


def _label_components(adj) -> tuple[tuple[int, ...], int]:
    # labels in node order: component ids follow each component's first node
    comp = [-1] * len(adj)
    seen = bytearray(len(adj))
    num_components = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        for level in bfs_levels(adj, s, seen):
            for u in level:
                comp[u] = num_components
        num_components += 1
    return tuple(comp), num_components


def is_connected(rg: ReconfigGraph | SubsetLattice) -> bool:
    """Empty and one-node reconfiguration graphs count as connected."""
    return rg.num_components <= 1


def frozen_sets(rg: ReconfigGraph | SubsetLattice) -> list[frozenset[int]]:
    """Isolated nodes (no move applies), in canonical node order."""
    return [set_of(mask) for mask in rg.frozen_masks()]


def distance(rg: ReconfigGraph | SubsetLattice, a, b) -> int | float:
    """BFS hop count between two node sets; math.inf across components."""
    return rg.hops(rg.index_of(a), rg.index_of(b))


def _eccentricities(adj) -> int:
    """Largest BFS eccentricity over all nodes, by bit-parallel BFS.

    Sources run in even blocks of consecutive indices: as few as keep each
    block within max(_BLOCK, _ROW_BUDGET // len(adj)) sources, so R_k with
    up to 2,048 nodes runs one block, mynhardt(4)'s R_5 (2,414 nodes) two
    of 1,207, and above 4,096 nodes blocks stay near _BLOCK. Within a block,
    reach[u] is a bitset of the block's sources within h hops of u after
    round h, and each round replaces reach[u] by reach[u] OR the rows of
    u's neighbours. Only neighbours of a row that grew in the last round
    can grow in this one. The rounds that grow some row number the largest
    eccentricity among the block's sources. A row stops growing once it
    holds every block source of its own component, so a disconnected graph
    needs no special case.

    The rows are relabelled by decreasing degree, so the nodes of each
    degree d form one run, and slot t of a run, the t-th neighbour of each
    of its nodes, is one itemgetter, built once per call. A round whose
    grown rows hold at least two thirds of the neighbour slots is wide: it
    ORs each run's rows with its d slots in one chain of C-level map
    passes and reads the rows that grew back with compress. A narrower
    round loops over the neighbours of the grown rows only, which wins on
    large R_k, where a block's frontier often covers a small part of the
    graph. Both leave the same rows. Memory: two generations of len(adj)
    rows of one block's bits, each generation at most
    max(_BLOCK * len(adj), _ROW_BUDGET) bits, and 2E slot indices.
    """
    n = len(adj)
    order = sorted(range(n), key=list(map(len, adj)).__getitem__, reverse=True)
    label = [0] * n
    for i, u in enumerate(order):
        label[u] = i
    nbrs = [tuple(map(label.__getitem__, adj[u])) for u in order]
    del order  # its ints are not the labels: free them before the rounds
    degree = list(map(len, nbrs))
    runs = []  # (lo, hi, slots) for the nodes lo..hi-1, all of degree d > 0
    lo = 0
    for d, run in groupby(degree):
        hi = lo + sum(1 for _ in run)
        if d:
            columns = [list(map(itemgetter(t), nbrs[lo:hi])) for t in range(d)]
            # one index would make itemgetter return the row, not a sequence
            runs.append((lo, hi, [
                itemgetter(*col) if hi - lo > 1 else itemgetter(slice(col[0], col[0] + 1))
                for col in columns
            ]))
        lo = hi
    blocks = -(-n // max(_BLOCK, _ROW_BUDGET // max(n, 1)))
    return max(
        (_block_rounds(label[n * b // blocks:n * (b + 1) // blocks], nbrs, degree, runs)
         for b in range(blocks)),
        default=0,
    )


def _block_rounds(sources: list[int], nbrs, degree, runs) -> int:
    # the rounds of _eccentricities for one block of sources; a function of
    # its own, so that no generation of rows outlives its block
    n = len(nbrs)
    total = sum(degree)
    reach = [0] * n
    for bit, s in enumerate(sources):
        reach[s] = 1 << bit
    grown = sources
    rounds = -1  # the sources' own rows are round 0
    while grown:
        rounds += 1
        if 3 * sum(map(degree.__getitem__, grown)) >= 2 * total:
            # a wide round: every slot reads last round's rows, and the new
            # rows go to a fresh list
            new = reach[:]
            for lo, hi, slots in runs:
                ored = reach[lo:hi]
                for slot in slots:
                    ored = map(or_, ored, slot(reach))
                new[lo:hi] = ored
            grown = list(compress(range(n), map(ne, new, reach)))
            reach = new
            continue
        row_of = reach.__getitem__
        ids, rows = [], []
        for u in set().union(*map(nbrs.__getitem__, grown)):
            old = reach[u]
            row = reduce(or_, map(row_of, nbrs[u]), old)
            if row != old:
                ids.append(u)
                rows.append(row)
        # written after the round, so every row read above is last round's
        for u, row in zip(ids, rows):
            reach[u] = row
        grown = ids
    return rounds


def diameter(rg: ReconfigGraph) -> int | float:
    """Largest eccentricity, counted as the bit-parallel BFS rounds that
    change a row (see _eccentricities); math.inf when disconnected, 0 when
    empty."""
    if rg.num_components > 1:
        return math.inf
    return _eccentricities(rg.adj)


def max_component_diameter(rg: ReconfigGraph) -> int:
    """Largest intra-component diameter, counted as the bit-parallel BFS
    rounds that change a row (see _eccentricities); shown next to an
    infinite diameter."""
    return _eccentricities(rg.adj)


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


def _scan_record(rg: ReconfigGraph) -> ThresholdRecord:
    # a function of its own, so that each prefix is freed before the next
    # one is cut. One all-sources BFS per record: when R_k is connected its
    # diameter is the largest component diameter
    widest = max_component_diameter(rg)
    connected = is_connected(rg)
    return ThresholdRecord(
        k=rg.k,
        num_nodes=rg.num_nodes,
        num_edges=rg.num_edges,
        num_components=rg.num_components,
        connected=connected,
        diameter=widest if connected else math.inf,
        max_component_diameter=widest,
    )


def threshold_scan(
    g: Graph, kmax: int, limit: int = DEFAULT_VERTEX_LIMIT
) -> ThresholdReport:
    """Connectivity of R_k for k = gamma..kmax, plus the empirical threshold.

    R_kmax is listed once by build_reconfig_graph. Each smaller R_k is its
    prefix of nodes with at most k members, with every row cut to that
    prefix, and each R_k is measured by max_component_diameter, one k at a
    time. d0_empirical is the smallest k0 in the scanned window with R_k
    connected for every k0 <= k <= kmax, or None when R_kmax itself is
    disconnected (the threshold then lies outside the window). Known
    monotonicity, that connectivity at some k > Gamma persists at k + 1,
    is checked on every scan as a self-check of the enumeration.
    """
    check_scan(g.n, kmax, limit)
    # the one listing below passes the checks made here, before
    # exact_invariants
    _check_listing(g, kmax, limit)
    inv = exact_invariants(g, limit=limit)
    gamma = inv.gamma_min
    records: list[ThresholdRecord] = []
    if gamma <= kmax:
        full = build_reconfig_graph(g, kmax, limit)
        records = [
            _scan_record(full if k == kmax else _prefix(full, k))
            for k in range(gamma, kmax + 1)
        ]
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
    return ThresholdReport(
        graph_n=g.n,
        gamma=gamma,
        gamma_upper=inv.gamma_upper,
        kmax=kmax,
        records=tuple(records),
        d0_empirical=d0,
    )
