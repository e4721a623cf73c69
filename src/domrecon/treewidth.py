"""Transformation guided by a tree decomposition, budget Gamma + tw + 1.

The decomposition is normalized into a leaf-elimination order, then both
endpoints are swept bag by bag toward one fixed minimum dominating set D.
Throughout the sweep the working set stays dominating, no larger than
Gamma, and agrees with D on every vertex whose bags are all eliminated:
that is the sweep invariant checked at every step.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

from .graphs import (
    Graph,
    exact_invariants,
    is_dominating,
    mask_of,
    pop_removable,
    set_of,
)
from .minor_sparse import pad_to_size
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    reverse_sequence,
)


class DecompositionError(ValueError):
    """Raised when a tree decomposition fails validation or parsing."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
        for v in range(g.n):
            holder_set = holder_sets[v]
            reached = {holders[v][0]}
            stack = [holders[v][0]]
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if w in holder_set and w not in reached:
                        reached.add(w)
                        stack.append(w)
            if reached != holder_set:
                violations.append(f"bags containing vertex {v + 1} are not connected")
    return TDValidationReport(not violations, tuple(violations), td.width)


@dataclass(frozen=True)
class NormalizedTD:
    """Bags in leaf-elimination order: every child precedes its parent.

    The root is the last bag; parent[i] is the tree parent's index (always
    larger than i) or None for the root. No bag contains an adjacent bag.

    Three values the sweep reads at every bag are computed once, on first
    use, and cached on the instance: `width`, `tops` (tops[v] is the
    highest index of a bag holding v, -1 if none) and `left_masks`.
    left_masks[j] has bit v set iff bag tops[v] lies in j's subtree (for a
    valid decomposition: iff v is held only by bags of that subtree). It
    is built leaves first by the rule left[j] = (bits of v with
    tops[v] == j) | OR of left[c] over the children c of j.
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
    def left_masks(self) -> tuple[int, ...]:
        left = [0] * len(self.bags)
        for v, top in enumerate(self.tops):
            if top >= 0:
                left[top] |= 1 << v
        # every child precedes its parent, so left[c] is final when c is reached
        for c, p in enumerate(self.parent):
            if p is not None:
                left[p] |= left[c]
        return tuple(left)


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


def classify_left(
    ntd: NormalizedTD, j: int, g: Graph | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Split vertices by bag j: left ones appear only in its subtree.

    With a graph supplied, additionally assert the separation property: no
    edge joins a left vertex outside bag j to a right vertex outside it.
    """
    if not 0 <= j < ntd.num_bags:
        raise ValueError(f"bag index {j} out of range")
    left = set_of(ntd.left_masks[j])
    universe = frozenset(v for v, top in enumerate(ntd.tops) if top >= 0)
    right = universe - left
    if g is not None:
        bag = ntd.bags[j]
        for u, w in g.edges():
            for a, c in ((u, w), (w, u)):
                if a in left and a not in bag and c in right and c not in bag:
                    raise SweepError(
                        f"edge ({a + 1},{c + 1}) crosses bag {j} without"
                        " touching it; the decomposition is invalid"
                    )
    return left, right


def _check_property(g, ntd, j, d_j, target, gamma_upper):
    if not is_dominating(g, d_j):
        raise SweepError(f"working set at bag {j} is not dominating")
    if len(d_j) > gamma_upper:
        raise SweepError(
            f"working set at bag {j} has size {len(d_j)} > Gamma = {gamma_upper}"
        )
    tops = ntd.tops
    retired = {v for v in d_j if tops[v] < j}
    if not retired <= target:
        raise SweepError(
            f"working set at bag {j} keeps retired vertices"
            f" {sorted(v + 1 for v in retired - target)} outside the target"
        )


def tw_step(
    g: Graph,
    ntd: NormalizedTD,
    j: int,
    d_j,
    target,
    gamma_upper: int,
) -> tuple[tuple[Move, ...], frozenset[int]]:
    """One sweep step across bag j (any bag except the root).

    Classifies bag j's vertices, pulls in the target's left vertices plus
    the right vertices not otherwise covered, drops the working set's own
    left leftovers, then reduces back to size <= Gamma. Checks the sweep
    invariant on entry only (the next tw_step, or final_merge at the root,
    checks the set this step returns), the peak size Gamma + tw + 1 and the
    move budget 2 (tw + 1); failures raise SweepError since they can only
    come from inconsistent inputs.
    """
    d_j, target = frozenset(d_j), frozenset(target)
    if not 0 <= j < ntd.num_bags - 1:
        raise ValueError(f"tw_step applies to bags 0..{ntd.num_bags - 2}, got {j}")
    tw = ntd.width
    _check_property(g, ntd, j, d_j, target, gamma_upper)
    left = ntd.left_masks[j]
    bag = ntd.bags[j]

    a_out = frozenset(v for v in bag & d_j if v not in target and left >> v & 1)
    b_bag = frozenset(v for v in bag if not left >> v & 1)
    c_in = frozenset(v for v in target - d_j if left >> v & 1)
    c_mask = mask_of(c_in)
    b1 = frozenset(v for v in b_bag - target if g.adj_mask[v] & c_mask)
    b2 = b_bag & d_j
    b3 = b_bag - b1 - b2

    additions = c_in | b3
    if additions & d_j:
        raise SweepError(f"additions at bag {j} are already in the working set")
    peak = d_j | additions
    if len(peak) > gamma_upper + tw + 1:
        raise SweepError(
            f"peak size {len(peak)} exceeds Gamma + tw + 1 ="
            f" {gamma_upper + tw + 1} at bag {j}; check Gamma"
        )
    d_prime = (d_j - a_out) | additions
    if not is_dominating(g, d_prime):
        raise SweepError(
            f"swap at bag {j} broke domination; the decomposition or the"
            " target set is inconsistent"
        )
    moves = list(add_then_remove(additions, a_out))
    current = set(d_prime)
    while len(current) > gamma_upper:
        moves.append(Move.remove(pop_removable(g, current, target)))
    if len(moves) > 2 * (tw + 1):
        raise SweepError(
            f"bag {j} needed {len(moves)} moves, above the 2 (tw + 1) budget"
        )
    return tuple(moves), frozenset(current)


def final_merge(
    g: Graph,
    ntd: NormalizedTD,
    d_b,
    target,
    gamma_upper: int,
) -> tuple[Move, ...]:
    """Close the gap at the root bag: add D - D_b, then remove D_b - D.

    After the sweep every surplus vertex of the working set lives in the
    root bag, so at most tw + 1 of them remain; the target being a minimum
    dominating set caps the additions by the removals.
    """
    d_b, target = frozenset(d_b), frozenset(target)
    tw = ntd.width
    root = ntd.num_bags - 1
    _check_property(g, ntd, root, d_b, target, gamma_upper)
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


def _domination_number(g: Graph) -> int:
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cov = 0
            for v in combo:
                cov |= g.nb_mask[v]
            if cov == g.full_mask:
                return size
    raise RuntimeError("the full vertex set always dominates")


def treewidth_transform(
    g: Graph,
    td: TreeDecomposition,
    ds,
    dt,
    gamma_upper: int,
    min_ds=None,
    root: int | None = None,
    limit: int = 24,
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + tw + 1.

    Validates and normalizes the decomposition, reduces both endpoints to
    size <= Gamma, sweeps each toward the minimum dominating set D bag by
    bag, and splices the second sweep in reverse. Total length is at most
    4 (n + 1) (tw + 1).

    Args:
        min_ds: a minimum dominating set; computed by brute force when
            omitted (needs g.n <= limit). A supplied set is checked for
            minimum size when g.n <= limit and otherwise trusted with a
            warning.
        root: bag index overriding the decomposition's root.
    """
    ds, dt = frozenset(ds), frozenset(dt)
    report = validate_td(g, td)
    if not report.valid:
        raise DecompositionError("; ".join(report.violations))
    ntd = normalize_td(td, root=root)
    tw = ntd.width
    k = gamma_upper + tw + 1

    if min_ds is None:
        target = exact_invariants(g, limit=limit).witness_min_ds
    else:
        target = frozenset(min_ds)
        if not is_dominating(g, target):
            raise ValueError("min_ds is not a dominating set")
        if g.n <= limit:
            gamma = _domination_number(g)
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
        head = pad_to_size(g, start, min(len(start), gamma_upper), k)
        current = head.end
        moves: list[Move] = []
        for j in range(ntd.num_bags - 1):
            step_moves, current = tw_step(g, ntd, j, current, target, gamma_upper)
            moves.extend(step_moves)
        moves.extend(final_merge(g, ntd, current, target, gamma_upper))
        if len(moves) > 2 * g.n * (tw + 1):
            raise SweepError(
                f"sweep used {len(moves)} moves, above the 2 n (tw + 1) bound"
            )
        return head + ReconfigSequence(head.end, tuple(moves), k)

    forward = sweep(ds)
    backward = sweep(dt)
    total = forward + reverse_sequence(backward)
    if len(total.moves) > 4 * (g.n + 1) * (tw + 1):
        raise SweepError(f"{len(total.moves)} moves exceed the 4 (n+1) (tw+1) bound")
    return total


def parse_td(text: str) -> TreeDecomposition:
    """Parse 's td <b> <maxbagsize> <n>' with 'b <id> <v...>' bag lines.

    Bag ids and vertex ids are 1-based; the b - 1 remaining lines are tree
    edges between bag ids. The root defaults to the last bag.
    """
    header: tuple[int, int, int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        if fields[0] == "s":
            if header is not None:
                raise DecompositionError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "td":
                raise DecompositionError(
                    "header must be 's td <bags> <maxbagsize> <n>'", lineno
                )
            try:
                header = (int(fields[2]), int(fields[3]), int(fields[4]))
            except ValueError:
                raise DecompositionError("non-integer header field", lineno) from None
            if header[0] < 1 or header[1] < 0 or header[2] < 1:
                raise DecompositionError("header fields out of range", lineno)
        elif fields[0] == "b":
            if header is None:
                raise DecompositionError("bag before header", lineno)
            try:
                ids = [int(f) for f in fields[1:]]
            except ValueError:
                raise DecompositionError("non-integer bag line", lineno) from None
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
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise DecompositionError("non-integer tree edge", lineno) from None
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
