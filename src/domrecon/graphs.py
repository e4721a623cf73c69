"""Simple undirected graphs with domination primitives.

Vertices are 0-based ints everywhere in this package; the 1-based ids of the
file format exist only inside parse_graph / format_graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import or_

# the vertex limit of exact_invariants and of every brute-force step built
# on it; the CLI's --limit and DOMRECON_LIMIT override it
DEFAULT_INVARIANTS_LIMIT = 24


class FormatError(ValueError):
    """A malformed input file. Carries the offending 1-based line, or None
    when an end-of-input check fails (a missing line, a count mismatch)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphFormatError(FormatError):
    """Raised on malformed graph files."""


class LimitError(RuntimeError):
    """Raised when a brute-force routine would exceed its configured limit."""


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_closed")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        # closed neighbourhoods N[v] = (v, *N(v)), the rows every domination
        # count below walks; with _adj, memory linear in n + m
        self._closed = tuple((v, *s) for v, s in enumerate(self._adj))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return sorted((u, v) for u in range(self.n) for v in self._adj[u] if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    """The set bits of mask; costs one step per set bit, not per bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def bfs_levels(adj, source: int, seen: bytearray):
    """Yield the BFS frontiers from source, one list per level.

    adj[u] holds the neighbours of node u. Marks each node in seen when it
    is reached and never enters a node already marked, so when level h is
    yielded the marks added so far are exactly the nodes within distance h
    of source.
    """
    seen[source] = 1
    frontier = [source]
    while frontier:
        yield frontier
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        frontier = nxt


def is_connected(g: Graph) -> bool:
    """BFS connectivity; single-vertex graphs count as connected."""
    return sum(map(len, bfs_levels(g._adj, 0, bytearray(g.n)))) == g.n


def content_lines(text: str):
    """Yield (lineno, fields) for each line that is not blank or a comment.

    The one comment rule of every file format: a line that is 'c' or starts
    with 'c ' once stripped. lineno is 1-based; fields is the split line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line != "c" and not line.startswith("c "):
            yield lineno, line.split()


def int_fields(fields, error: type[FormatError], what: str, lineno: int) -> list[int]:
    """fields as ints, or error(f"non-integer {what}", lineno)."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise error(f"non-integer {what}", lineno) from None


def _parse_header(fields: list[str], lineno: int) -> tuple[int, int]:
    if len(fields) != 4 or fields[1] != "ds":
        raise GraphFormatError("header must be 'p ds <n> <m>'", lineno)
    n, declared_m = int_fields(fields[2:], GraphFormatError, "header field", lineno)
    if n < 1:
        raise GraphFormatError("vertex count must be at least 1", lineno)
    if declared_m < 0:
        raise GraphFormatError("negative edge count", lineno)
    return n, declared_m


def header_n(text: str) -> int | None:
    """n from the 'p ds' header, read without building the graph.

    None unless the first line that is not blank or a comment is a
    well-formed header; parse_graph then reports what is wrong. Lets a
    caller refuse an n over its limit before reading the rest of the file.
    """
    for lineno, fields in content_lines(text):
        if fields[0] != "p":
            return None
        try:
            return _parse_header(fields, lineno)[0]
        except GraphFormatError:
            return None
    return None


def parse_graph(text: str) -> Graph:
    """Parse the 'p ds <n> <m>' edge-list format (1-based, u < v)."""
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in content_lines(text):
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            n, declared_m = _parse_header(fields, lineno)
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(fields) != 3:
                raise GraphFormatError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex id", lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u < v <= n):
                raise GraphFormatError(
                    f"edge ({u},{v}) must satisfy 1 <= u < v <= {n}", lineno
                )
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
            seen.add((u, v))
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p ds' header")
    if len(edges) != declared_m:
        raise GraphFormatError(
            f"header declares {declared_m} edges but {len(edges)} were given"
        )
    return Graph(n, edges)


def format_graph(g: Graph, comments: list[str] | None = None) -> str:
    """Serialize to the 'p ds' format; inverse of parse_graph."""
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"p ds {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_vertex_list(text: str) -> frozenset[int]:
    """Comma-separated 1-based ids, e.g. '1,3' -> frozenset({0, 2})."""
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        return frozenset()
    try:
        ids = [int(t) for t in items]
    except ValueError:
        raise ValueError(f"bad vertex list {text!r}") from None
    if any(i < 1 for i in ids):
        raise ValueError("vertex ids are 1-based and positive")
    return frozenset(i - 1 for i in ids)


def format_vertex_list(s) -> str:
    return ",".join(str(v + 1) for v in sorted(s))


def _closed_row(g: Graph, v: int) -> tuple[int, ...]:
    """N[v] = (v, *N(v)); IndexError for v outside 0..n-1, never a wrap."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    return g._closed[v]


def is_dominating(g: Graph, s) -> bool:
    """True iff every vertex is in s or adjacent to a vertex of s."""
    return len(set(chain.from_iterable(_closed_row(g, v) for v in s))) == g.n


class CoverCounts:
    """A vertex set kept together with how often each vertex is dominated.

    counts[w] is the number of members in w's closed neighborhood, and
    undominated the number of vertices whose count is 0, so `dominating`
    is O(1), add(v) / remove(v) walk v's row of g._closed in O(deg v), and
    private(v) reads what only member v dominates. A bad move (adding a
    member, removing a non-member) raises the same ValueError text as
    ReconfigSequence.end's replay and leaves the state unchanged; adding
    a vertex outside 0..n-1 raises IndexError, also unchanged. It answers every
    domination question but is_dominating's one-shot "does s dominate";
    transforms carry one through sequences.play and shrink_in_place.
    """

    __slots__ = ("g", "members", "counts", "undominated")

    def __init__(self, g: Graph, s=()):
        self.g = g
        self.members: set[int] = set()
        self.counts = [0] * g.n
        self.undominated = g.n
        for v in s:
            self.add(v)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v) -> bool:
        return v in self.members

    @property
    def dominating(self) -> bool:
        return self.undominated == 0

    def add(self, v: int) -> None:
        if v in self.members:
            raise ValueError(f"cannot add {v}: already present")
        counts = self.counts
        for w in _closed_row(self.g, v):
            if not counts[w]:
                self.undominated -= 1
            counts[w] += 1
        self.members.add(v)

    def remove(self, v: int) -> None:
        if v not in self.members:
            raise ValueError(f"cannot remove {v}: not present")
        counts = self.counts
        for w in self.g._closed[v]:
            counts[w] -= 1
            if not counts[w]:
                self.undominated += 1
        self.members.remove(v)

    def private(self, v: int) -> frozenset[int]:
        """The private set of member v: the vertices of its closed
        neighbourhood that no other member dominates. A dominating set
        stays dominating without v iff this is empty. O(deg v)."""
        counts = self.counts
        return frozenset(w for w in self.g._closed[v] if counts[w] == 1)

    def shrink(self, prefer_outside, most: int) -> list[int]:
        """Remove up to `most` members in greedy order; return them in order.

        Greedy order: the members outside prefer_outside, then those inside,
        each by ascending id. A member goes when every vertex of its closed
        neighbourhood is dominated at least twice, so each removal keeps the
        set dominating. One pass in that order removes exactly what
        restarting from the front after each removal would: a removal only
        lowers counts, so a member that cannot go once never can later.
        Removes nothing from a set that does not dominate. Costs one sort of
        the members plus O(deg v) per member looked at.
        """
        removed: list[int] = []
        if self.undominated or most <= 0:
            return removed
        counts = self.counts
        closed = self.g._closed
        members = self.members
        outside = members.difference(prefer_outside)
        for order in (outside, members - outside):
            for v in sorted(order):
                # v's private set (see private) is empty
                if 1 not in map(counts.__getitem__, closed[v]):
                    self.remove(v)
                    removed.append(v)
                    if len(removed) == most:
                        return removed
        return removed


def is_minimal_dominating(g: Graph, s) -> bool:
    """Dominating, and every member has a nonempty private set
    (CoverCounts.private)."""
    state = CoverCounts(g, frozenset(s))
    return state.dominating and all(map(state.private, state.members))


def reduce_to_minimal(g: Graph, s) -> tuple[frozenset[int], list[int]]:
    """Greedy minimalization of a dominating set.

    One CoverCounts.shrink pass, lowest id first, until every member has a
    private vertex (CoverCounts.private). Returns the minimal subset and
    the removal order. Every prefix of the removal order passes through
    dominating sets only.
    """
    state = CoverCounts(g, s)
    if not state.dominating:
        raise ValueError("input set is not dominating")
    removals = state.shrink((), len(state))
    return frozenset(state.members), removals


def dominating_subsets(g: Graph, max_size: int):
    """Yield the masks of all dominating sets of size <= max_size.

    Order: by size, then lexicographically as ascending vertex tuples, so
    the first mask yielded is the lexicographically first minimum
    dominating set. Each size is a depth-first walk over the vertex
    prefixes in lex order, carrying each prefix's mask and cover. A prefix
    whose last vertex is v is dropped, with everything below it, once
    cover | rest[v + 1] != full, where rest[v] is the closed
    neighbourhood of v..n-1: no completion from the later vertices
    dominates. Every prefix visited is a distinct subset, so the walk
    scans at most C(n, <= max_size) subsets, and on most graphs far fewer;
    a 2**n-bit family as in exact_invariants costs 2**n whatever max_size
    is: a 30-vertex star at max_size 2 scans at most 466 subsets, one
    2**30-bit family is 128 MiB.
    """
    n = g.n
    nb = list(map(mask_of, g._closed))  # N[v] as bitmasks, for this walk only
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    rest = [0] * (n + 1)
    for v in reversed(range(n)):
        rest[v] = rest[v + 1] | nb[v]

    if max_size < 1:  # n >= 1, so the empty set never dominates
        return
    yield from (bits[v] for v in range(n) if nb[v] == full)
    for size in range(2, min(max_size, n) + 1):
        # one entry per prefix on the current path, the empty one first:
        # the iterator over the prefix's next vertex, its mask and its
        # cover. One generator frame serves every prefix length, and a
        # prefix one vertex short is completed where it is found.
        stack = [(iter(range(n - size + 1)), 0, 0)]
        while stack:
            choices, mask, cover = stack[-1]
            left = size - len(stack)  # vertices still to choose after v
            for v in choices:
                grown = cover | nb[v]
                if grown | rest[v + 1] != full:
                    continue
                if left > 1:
                    stack.append((iter(range(v + 1, n - left + 1)), mask | bits[v], grown))
                    break
                prefix = mask | bits[v]
                if grown == full:
                    yield from map(or_, repeat(prefix), bits[v + 1:])
                    continue
                for w in range(v + 1, n):
                    if grown | nb[w] == full:
                        yield prefix | bits[w]
            else:
                stack.pop()


def greedy_maximal_is(g: Graph, seed=frozenset()) -> frozenset[int]:
    """Grow an independent seed to a maximal independent set.

    Scans vertices in ascending id and adds every vertex with no neighbor in
    the current set. Deterministic; the result is a maximal independent set
    and therefore also a minimal dominating set.
    """
    members = set(seed)
    adj = g._adj
    if not all(0 <= v < g.n for v in members):
        raise IndexError(f"seed has a vertex outside 0..{g.n - 1}")
    if not all(adj[v].isdisjoint(members) for v in members):
        raise ValueError("seed is not independent")
    for v in range(g.n):
        if v not in members and adj[v].isdisjoint(members):
            members.add(v)
    return frozenset(members)


@dataclass(frozen=True)
class GraphInvariants:
    """Exact domination/independence numbers with deterministic witnesses."""

    gamma_min: int
    gamma_upper: int
    alpha: int
    witness_min_ds: frozenset[int]
    witness_upper_ds: frozenset[int]
    witness_max_is: frozenset[int]


def exact_invariants(g: Graph, limit: int = DEFAULT_INVARIANTS_LIMIT) -> GraphInvariants:
    """Exact gamma, upper Gamma and alpha over bit-sliced subset families.

    A family is one 2**n-bit int whose bit S is set iff the vertex set with
    mask S belongs to it, so each step below is a few big-int operations on
    all 2**n subsets at once, never a Python loop over subsets:

    - has[v], the sets containing v, is a doubled 2**(v+1)-bit pattern
      (this, the dominating sets and the planes come from SubsetFamilies);
    - dominating sets: AND over w of OR over v in N[w] of has[v];
    - minimal ones: a dominating S with some v in S such that S - {v}
      still dominates is dropped; (dom << 2**v) & has[v] maps S - {v} to S;
    - independent sets: no edge uv has both ends in S;
    - bit-sliced popcounts: planes[i] holds the sets whose size has bit i,
      so the largest or smallest size in a family, and the family's layer
      of that size, cost two operations per plane, n.bit_length() planes.

    gamma is the smallest size among the minimal dominating sets, Gamma the
    largest, alpha the largest among the independent sets. Each witness is
    the lexicographically first set of its size, found by keeping, for
    v = 0, 1, ..., only the sets that contain v whenever some do; for sets
    of one size lex order is decided by the smallest element of the
    symmetric difference. Refuses n above the vertex limit before building
    anything.

    Memory is about (n + n.bit_length() + 5) * 2**n bits: the n has planes,
    the popcount planes and a few families. On a random tree plus n // 3
    extra edges (Python 3.11, one core of a shared 2-vCPU host), one call
    took 0.42 s of CPU at n = 24, the process peaking at 92 MiB, against
    17.7 s and 15 MiB for the subset-by-subset enumeration it replaces;
    at n = 20 it took 0.016 s and 19 MiB against 1.1 s and 15 MiB.
    """
    check_invariants_limit(g.n, limit)
    fam = SubsetFamilies(g)
    minimal = _minimal_dominating(fam)
    independent = _independent(g, fam)
    gamma, min_ds = _extreme_set(minimal, fam, largest=False)
    upper, upper_ds = _extreme_set(minimal, fam, largest=True)
    alpha, max_is = _extreme_set(independent, fam, largest=True)
    return GraphInvariants(
        gamma_min=gamma,
        gamma_upper=upper,
        alpha=alpha,
        witness_min_ds=min_ds,
        witness_upper_ds=upper_ds,
        witness_max_is=max_is,
    )


def check_invariants_limit(n: int, limit: int) -> None:
    """Refuse, as exact_invariants does, an n above the vertex limit; lets a
    caller refuse a graph file's header before the graph is built."""
    if n > limit:
        raise LimitError(f"exact_invariants needs n <= {limit}, got {n}")


class SubsetFamilies:
    """The 2**n-bit families (see exact_invariants) that exact_invariants
    and oracle.SubsetLattice share: every subset, has[v], the popcount
    planes and the dominating sets."""

    __slots__ = ("n", "full", "has", "planes", "dominating")

    def __init__(self, g: Graph):
        n = self.n = g.n
        size = 1 << n
        self.full = (1 << size) - 1
        has = self.has = [_member_plane(v, size) for v in range(n)]
        self.planes = _popcount_planes(n)
        dom = self.full
        for row in g._closed:
            dom &= reduce(or_, map(has.__getitem__, row))
        self.dominating = dom

    def size_at_most(self, k: int) -> int:
        """The sets with at most k members, by one comparator pass over the
        planes, high bit first: `equal` agrees with k so far, `below` is
        already smaller."""
        if k >= self.n:
            return self.full
        if k < 0:
            return 0
        below, equal = 0, self.full
        for i in reversed(range(len(self.planes))):
            on = equal & self.planes[i]
            if k >> i & 1:
                below |= equal ^ on
                equal = on
            else:
                equal ^= on
        return below | equal


def _member_plane(v: int, size: int) -> int:
    # the family of the sets containing v: 2**v absent, 2**v present, repeated
    half = 1 << v
    plane, width = ((1 << half) - 1) << half, 2 * half
    while width < size:
        plane |= plane << width
        width *= 2
    return plane


def _minimal_dominating(fam: SubsetFamilies) -> int:
    # S is redundant if S - {v} dominates for some member v; no ~, since a
    # negative 2**n-bit int makes each & dearer
    dom = fam.dominating
    redundant = 0
    for v, members in enumerate(fam.has):
        redundant |= (dom << (1 << v)) & members
    return dom ^ (dom & redundant)


def _independent(g: Graph, fam: SubsetFamilies) -> int:
    clash = 0
    for u, v in g.edges():
        clash |= fam.has[u] & fam.has[v]
    return fam.full ^ clash


def _popcount_planes(n: int) -> list[int]:
    # planes over the subsets of {0..v-1}, doubled once per vertex: the
    # upper half (the sets with v) holds each lower-half count plus one
    planes: list[int] = []
    for v in range(n):
        half = 1 << v
        carry = (1 << half) - 1
        for i, plane in enumerate(planes):
            planes[i] = plane | (plane ^ carry) << half
            carry &= plane
        if carry:
            planes.append(carry << half)
    return planes


def _extreme_set(family: int, fam, largest: bool) -> tuple[int, frozenset[int]]:
    """The largest (or smallest) size in family and its lex-first set.

    The size is fixed one popcount plane at a time, high bit first: keep the
    sets with that bit set if any (largest) or unset if any (smallest).
    """
    if not family:
        raise RuntimeError("the full vertex set always dominates")
    size = 0
    for i in reversed(range(len(fam.planes))):
        on = family & fam.planes[i]
        off = family ^ on
        if not off or (largest and on):
            family, size = on, size | 1 << i
        else:
            family = off
    for members in fam.has:
        kept = family & members
        if kept:
            family = kept
    return size, set_of(family.bit_length() - 1)
