"""Transformation guided by a tree decomposition, budget Gamma + tw + 1.

The decomposition is normalized into a leaf-elimination order, then both
endpoints are swept bag by bag toward one fixed minimum dominating set D.
Throughout the sweep the working set stays dominating, no larger than
Gamma, and agrees with D on every vertex whose bags are all eliminated:
that is the sweep invariant checked at every step.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .graphs import (
    DEFAULT_INVARIANTS_LIMIT,
    CoverCounts,
    FormatError,
    Graph,
    LimitError,
    content_lines,
    dominating_subsets,
    int_fields,
    is_dominating,
    set_of,
)
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    play,
    shrink_in_place,
)


class DecompositionError(FormatError):
    """Raised when a tree decomposition fails validation or parsing."""


class SweepError(RuntimeError):
    """A sweep invariant failed: bad decomposition, Gamma, or D input."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over vertices 0..n-1 plus tree edges on 0-based bag indices."""

    n: int
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int = 0

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def num_bags(self) -> int:
        return len(self.bags)


@dataclass(frozen=True)
class TDValidationReport:
    valid: bool
    violations: tuple[str, ...]
    width: int


def validate_td(g: Graph, td: TreeDecomposition) -> TDValidationReport:
    """Check the three decomposition properties plus tree shape.

    Violations are collected as report data; nothing raises here.
    """
    violations: list[str] = []
    b = td.num_bags
    if b < 1:
        violations.append("decomposition has no bags")
        return TDValidationReport(False, tuple(violations), -1)
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
    # parent[w]: the bag from which this walk first reached w; -1 for bag 0
    parent = [-1] * b
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                stack.append(w)
    if len(seen) != b:
        violations.append("bag tree is disconnected")
    if not 0 <= td.root < b:
        violations.append(f"root index {td.root} out of range")
    # holders[v]: the bags holding v, in ascending order
    holders: list[list[int]] = [[] for _ in range(g.n)]
    for idx, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                holders[v].append(idx)
            else:
                violations.append(f"bag {idx} contains out-of-range vertex {v}")
    for v in range(g.n):
        if not holders[v]:
            violations.append(f"vertex {v + 1} appears in no bag")
    holder_sets = [set(h) for h in holders]
    for u, v in g.edges():
        # set.isdisjoint walks the smaller of two sets
        if holder_sets[u].isdisjoint(holder_sets[v]):
            violations.append(f"edge ({u + 1},{v + 1}) is inside no bag")
    if not violations:
        # the bag tree is a tree here, so v's bags are connected iff exactly
        # one of them is bag 0 or has a parent that does not hold v
        for v in range(g.n):
            holder_set = holder_sets[v]
            if sum(parent[i] not in holder_set for i in holders[v]) != 1:
                violations.append(f"bags containing vertex {v + 1} are not connected")
    return TDValidationReport(not violations, tuple(violations), td.width)


@dataclass(frozen=True)
class NormalizedTD:
    """Bags in leaf-elimination order: every child precedes its parent.

    The root is the last bag; parent[i] is the tree parent's index (always
    larger than i) or None for the root. No bag contains an adjacent bag.

    Three values the sweep reads at every bag are computed once, on first
    use, and cached on the instance: `width`, `tops` (tops[v] is the
    highest index of a bag holding v, -1 if none) and `retiring`
    (retiring[j] lists the vertices v with tops[v] == j, ascending).
    """

    n: int
    bags: tuple[frozenset[int], ...]
    parent: tuple[int | None, ...]

    @cached_property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def num_bags(self) -> int:
        return len(self.bags)

    @cached_property
    def tops(self) -> tuple[int, ...]:
        tops = [-1] * self.n
        # bags come in ascending index order, so the last write is the highest
        for idx, bag in enumerate(self.bags):
            for v in bag:
                tops[v] = idx
        return tuple(tops)

    @cached_property
    def retiring(self) -> tuple[tuple[int, ...], ...]:
        retiring: list[list[int]] = [[] for _ in self.bags]
        for v, top in enumerate(self.tops):
            if top >= 0:
                retiring[top].append(v)
        return tuple(map(tuple, retiring))


def normalize_td(td: TreeDecomposition, root: int | None = None) -> NormalizedTD:
    """Contract nested adjacent bags, root the tree, order leaves-first.

    Adjacent bags where one contains the other are merged (the subset bag
    disappears), which caps the bag count at n. The root defaults to the
    decomposition's own root attribute and follows merges; pass a bag
    index to override. Bags are then emitted in the order a leaf-stripping
    process removes them, root last.
    """
    b = td.num_bags
    bags = list(td.bags)
    adjacency: list[set[int]] = [set() for _ in range(b)]
    for i, j in td.tree_edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    representative = list(range(b))
    alive = [True] * b

    def resolve(i: int) -> int:
        while representative[i] != i:
            i = representative[i]
        return i

    # merge the lowest bag with a nested neighbour into or with its lowest
    # such neighbour, until none is left. Bags never change, so a bag with
    # no nested neighbour keeps none until it gains a neighbour, and a merge
    # gives new neighbours only to keep and the dropped bag's former
    # neighbours. So bags are checked in index order, and after a merge
    # just those of them not above the current index are checked again,
    # lowest first: the order of a full rescan after every merge. Likewise
    # a pair once found not nested stays so: unchecked[i] is a heap of the
    # neighbours i has not yet been tested against (entries of bags no
    # longer adjacent are skipped), so each side tests a pair at most once
    unchecked = [sorted(adj) for adj in adjacency]
    for start in range(b):
        pending = [start]
        while pending:
            i = heapq.heappop(pending)
            heap = unchecked[i]
            while heap:
                j = heapq.heappop(heap)
                if j not in adjacency[i]:
                    continue
                if bags[i] <= bags[j]:
                    drop, keep = i, j
                elif bags[j] <= bags[i]:
                    drop, keep = j, i
                else:
                    continue
                adjacency[keep].discard(drop)
                for other in adjacency[drop]:  # keep among them
                    if other != keep:
                        adjacency[other].discard(drop)
                        adjacency[other].add(keep)
                        adjacency[keep].add(other)
                        heapq.heappush(unchecked[other], keep)
                        heapq.heappush(unchecked[keep], other)
                    if other <= start and other not in pending:
                        heapq.heappush(pending, other)
                adjacency[drop] = set()
                unchecked[drop] = []
                alive[drop] = False
                representative[drop] = keep
                break

    chosen = td.root if root is None else root
    if not 0 <= chosen < b:
        raise ValueError(f"root index {chosen} out of range")
    root_idx = resolve(chosen)

    remaining = {i for i in range(b) if alive[i]}
    degree = {i: len(adjacency[i]) for i in remaining}
    # eligible leaves, lowest index first; a degree only falls, so a bag
    # joins the heap once, when its degree first reaches 1
    leaves = [i for i in remaining if degree[i] <= 1 and i != root_idx]
    heapq.heapify(leaves)
    order: list[int] = []
    while len(remaining) > 1:
        if not leaves:
            raise ValueError("the bag tree has a cycle or is disconnected")
        leaf = heapq.heappop(leaves)
        order.append(leaf)
        remaining.discard(leaf)
        for other in adjacency[leaf]:
            if other in remaining:
                degree[other] -= 1
                if degree[other] == 1 and other != root_idx:
                    heapq.heappush(leaves, other)
        degree.pop(leaf)
    order.append(root_idx)

    position = {old: new for new, old in enumerate(order)}
    parents: list[int | None] = []
    for new, old in enumerate(order):
        if old == root_idx:
            parents.append(None)
        else:
            later = [position[o] for o in adjacency[old] if position[o] > new]
            if len(later) != 1:
                raise SweepError(f"bag {old + 1} has {len(later)} later neighbours")
            parents.append(later[0])
    return NormalizedTD(
        n=td.n,
        bags=tuple(bags[old] for old in order),
        parent=tuple(parents),
    )


def _check_property(ntd, j, state, target, gamma_upper, candidates):
    """The sweep invariant at bag j, on a CoverCounts state.

    The retired check looks at `candidates`: a member v with tops[v] < j
    must lie in the target.
    """
    if not state.dominating:
        raise SweepError(f"working set at bag {j} is not dominating")
    if len(state) > gamma_upper:
        raise SweepError(
            f"working set at bag {j} has size {len(state)} > Gamma = {gamma_upper}"
        )
    tops = ntd.tops
    members = state.members
    stray = [v for v in candidates if v in members and tops[v] < j and v not in target]
    if stray:
        raise SweepError(
            f"working set at bag {j} keeps retired vertices"
            f" {sorted(v + 1 for v in stray)} outside the target"
        )


def tw_step(
    g: Graph,
    ntd: NormalizedTD,
    j: int,
    state: CoverCounts,
    target,
    gamma_upper: int,
    owed: dict[int, list[int]],
) -> tuple[Move, ...]:
    """One sweep step across bag j (any bag except the root), in place.

    Classifies bag j's vertices, pulls in the target's left vertices plus
    the right vertices not otherwise covered, drops the working set's own
    left leftovers (sequences.play), then reduces back to size <= Gamma
    (shrink_in_place); returns the moves. A bag vertex v lies left of j iff
    tops[v] == j (every bag of j's subtree has an index <= j <= tops[v]).
    Checks the sweep invariant on entry only (the next tw_step, or
    final_merge at the root, checks the set this step leaves), the peak
    size Gamma + tw + 1 and the move budget 2 (tw + 1); failures raise
    SweepError since they can only come from inconsistent inputs.

    Precondition: state and owed are the sweep's, as the step at j - 1 left
    them. That step checked every other member and added only target
    vertices or vertices whose top bag lies above j - 1, so the entry check
    looks for retired vertices only among retiring[j - 1]. A vertex v lies
    left of exactly the bags on the parent chain from tops[v]; a retired
    target vertex that a step's shrink removes is owed to the next bag on
    its chain (owed[a] lists those owed to a), so a missing target vertex
    left of j retires at j or is owed to j. A step costs O(moved vertices'
    degrees) plus one chain walk per vertex owed, and when it has to
    shrink, one sort of the members and O(deg v) per member
    shrink_in_place looks at.
    """
    if not 0 <= j < ntd.num_bags - 1:
        raise ValueError(f"tw_step applies to bags 0..{ntd.num_bags - 2}, got {j}")
    tw = ntd.width
    retired = ntd.retiring[j - 1] if j else ()
    _check_property(ntd, j, state, target, gamma_upper, retired)
    tops = ntd.tops

    a_out = [v for v in ntd.retiring[j] if v in state and v not in target]
    # c_in: target vertices left of j still missing; b3: bag vertices right
    # of j, missing, and in the target or without a neighbour in c_in
    due = chain(ntd.retiring[j], owed.pop(j, ()))
    c_in = {v for v in due if v in target and v not in state}
    b3 = [
        v
        for v in ntd.bags[j]
        if tops[v] != j
        and v not in state
        and (v in target or c_in.isdisjoint(g._adj[v]))
    ]
    additions = c_in.union(b3)
    peak = len(state) + len(additions)
    if peak > gamma_upper + tw + 1:
        raise SweepError(
            f"peak size {peak} exceeds Gamma + tw + 1 ="
            f" {gamma_upper + tw + 1} at bag {j}; check Gamma"
        )
    moves = play(state, add_then_remove(additions, a_out))
    if not state.dominating:
        raise SweepError(
            f"swap at bag {j} broke domination; the decomposition or the"
            " target set is inconsistent"
        )
    shrunk = shrink_in_place(state, gamma_upper, target)
    for v in (mv.vertex for mv in shrunk):
        if v in target and tops[v] <= j:
            a = tops[v]
            while a <= j:
                a = ntd.parent[a]
            owed.setdefault(a, []).append(v)
    moves += shrunk
    if len(moves) > 2 * (tw + 1):
        raise SweepError(
            f"bag {j} needed {len(moves)} moves, above the 2 (tw + 1) budget"
        )
    return moves


def final_merge(
    ntd: NormalizedTD,
    state: CoverCounts,
    target,
    gamma_upper: int,
) -> tuple[Move, ...]:
    """Close the gap at the root bag: add D - D_b, then remove D_b - D.

    state is the sweep's CoverCounts, holding D_b; it is checked, not
    changed. After the sweep every surplus vertex of the working set lives
    in the root bag, so at most tw + 1 of them remain; the target being a
    minimum dominating set caps the additions by the removals.
    """
    d_b, target = frozenset(state.members), frozenset(target)
    tw = ntd.width
    root = ntd.num_bags - 1
    _check_property(ntd, root, state, target, gamma_upper, d_b)
    surplus = d_b - target
    missing = target - d_b
    if not surplus <= ntd.bags[root]:
        raise SweepError(
            "surplus vertices escape the root bag; the sweep invariant was"
            " not maintained"
        )
    if len(surplus) > tw + 1:
        raise SweepError(f"{len(surplus)} surplus vertices exceed tw + 1 = {tw + 1}")
    if len(missing) > len(surplus):
        raise SweepError(
            f"{len(missing)} additions against {len(surplus)} removals;"
            " the target is not a minimum dominating set"
        )
    if len(d_b | missing) > gamma_upper + tw + 1:
        raise SweepError("final merge exceeds the peak budget Gamma + tw + 1")
    return add_then_remove(missing, surplus)


def check_min_ds_limit(n: int, limit: int) -> None:
    """The refusal of treewidth_transform's minimum dominating set search."""
    if n > limit:
        raise LimitError(f"computing min_ds needs n <= {limit}, got {n}")


def treewidth_transform(
    g: Graph,
    td: TreeDecomposition,
    ds,
    dt,
    gamma_upper: int,
    min_ds=None,
    root: int | None = None,
    limit: int = DEFAULT_INVARIANTS_LIMIT,
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + tw + 1.

    Validates and normalizes the decomposition, then sweeps each endpoint
    on one CoverCounts: shrink_in_place reduces it to size <= Gamma, and
    tw_step moves it bag by bag toward the minimum dominating set D. The
    second sweep is spliced in reverse. Total length is at most
    4 (n + 1) (tw + 1).

    Args:
        min_ds: a minimum dominating set; computed by brute force when
            omitted (needs g.n <= limit). A supplied set must lie in
            0..n-1; it is checked for minimum size when g.n <= limit and
            otherwise trusted with a warning.
        root: bag index overriding the decomposition's root.
    """
    if gamma_upper < 1:
        raise ValueError("gamma_upper must be positive")
    ds, dt = frozenset(ds), frozenset(dt)
    report = validate_td(g, td)
    if not report.valid:
        raise DecompositionError("; ".join(report.violations))
    ntd = normalize_td(td, root=root)
    tw = ntd.width
    k = gamma_upper + tw + 1

    if min_ds is None:
        check_min_ds_limit(g.n, limit)
        target = set_of(next(dominating_subsets(g, g.n)))
    else:
        target = frozenset(min_ds)
        if not all(0 <= v < g.n for v in target):
            raise ValueError(f"min_ds has a vertex outside 0..{g.n - 1}")
        if not is_dominating(g, target):
            raise ValueError("min_ds is not a dominating set")
        if g.n <= limit:
            # target dominates, so a set of size <= |target| is yielded
            gamma = next(dominating_subsets(g, len(target))).bit_count()
            if len(target) != gamma:
                raise ValueError(
                    f"min_ds has size {len(target)} but gamma = {gamma}"
                )
        else:
            warnings.warn(
                f"n = {g.n} exceeds the brute-force limit; trusting that"
                " min_ds is minimum",
                stacklevel=2,
            )
    check_endpoints(g, ds, dt, k)

    def sweep(start) -> ReconfigSequence:
        state = CoverCounts(g, start)
        reduce = shrink_in_place(state, gamma_upper, ())
        owed: dict[int, list[int]] = {}
        moves: list[Move] = []
        for j in range(ntd.num_bags - 1):
            moves += tw_step(g, ntd, j, state, target, gamma_upper, owed)
        moves += play(state, final_merge(ntd, state, target, gamma_upper))
        if len(moves) > 2 * g.n * (tw + 1):
            raise SweepError(
                f"sweep used {len(moves)} moves, above the 2 n (tw + 1) bound"
            )
        # state has made every move, rejecting bad ones as a replay would
        return ReconfigSequence.tracked(start, reduce + tuple(moves), k, state.members)

    forward = sweep(ds)
    backward = sweep(dt)
    total = forward + backward.reversed()
    if len(total.moves) > 4 * (g.n + 1) * (tw + 1):
        raise SweepError(f"{len(total.moves)} moves exceed the 4 (n+1) (tw+1) bound")
    return total


def parse_td(text: str) -> TreeDecomposition:
    """Parse 's td <b> <maxbagsize> <n>' with 'b <id> <v...>' bag lines.

    Bag ids and vertex ids are 1-based; the b - 1 remaining lines are tree
    edges between bag ids. The root defaults to the last bag.
    """
    header: list[int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, fields in content_lines(text):
        if fields[0] == "s":
            if header is not None:
                raise DecompositionError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "td":
                raise DecompositionError(
                    "header must be 's td <bags> <maxbagsize> <n>'", lineno
                )
            header = int_fields(fields[2:], DecompositionError, "header field", lineno)
            if header[0] < 1 or header[1] < 0 or header[2] < 1:
                raise DecompositionError("header fields out of range", lineno)
        elif fields[0] == "b":
            if header is None:
                raise DecompositionError("bag before header", lineno)
            ids = int_fields(fields[1:], DecompositionError, "bag line", lineno)
            if not ids:
                raise DecompositionError("bag line without id", lineno)
            bag_id, vertices = ids[0], ids[1:]
            if not 1 <= bag_id <= header[0]:
                raise DecompositionError(f"bag id {bag_id} out of range", lineno)
            if bag_id in bags:
                raise DecompositionError(f"duplicate bag id {bag_id}", lineno)
            if any(not 1 <= v <= header[2] for v in vertices):
                raise DecompositionError("bag vertex out of range", lineno)
            if len(set(vertices)) != len(vertices):
                raise DecompositionError("repeated vertex in bag", lineno)
            if len(vertices) > header[1]:
                raise DecompositionError(
                    f"bag of size {len(vertices)} exceeds declared maximum"
                    f" {header[1]}",
                    lineno,
                )
            bags[bag_id] = frozenset(v - 1 for v in vertices)
        else:
            if header is None:
                raise DecompositionError("tree edge before header", lineno)
            if len(fields) != 2:
                raise DecompositionError("tree edge line must be '<i> <j>'", lineno)
            i, j = int_fields(fields, DecompositionError, "tree edge", lineno)
            if not (1 <= i <= header[0] and 1 <= j <= header[0]) or i == j:
                raise DecompositionError(f"tree edge ({i},{j}) out of range", lineno)
            edges.append((i - 1, j - 1))
    if header is None:
        raise DecompositionError("missing 's td' header")
    b = header[0]
    if len(bags) != b:
        raise DecompositionError(f"header declares {b} bags but {len(bags)} were given")
    if len(edges) != b - 1:
        raise DecompositionError(
            f"header declares {b} bags but {len(edges)} tree edges were given"
        )
    return TreeDecomposition(
        n=header[2],
        bags=tuple(bags[i + 1] for i in range(b)),
        tree_edges=tuple(edges),
        root=b - 1,
    )


def format_td(td: TreeDecomposition, comments: list[str] | None = None) -> str:
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"s td {td.num_bags} {max(len(b) for b in td.bags)} {td.n}")
    for i, bag in enumerate(td.bags):
        lines.append(("b " + " ".join(str(v) for v in [i + 1] + sorted(w + 1 for w in bag))))
    for i, j in td.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
