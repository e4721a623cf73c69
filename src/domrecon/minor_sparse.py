"""Transformation between dominating sets of sparse graphs, budget Gamma + d - 1.

Works on graphs whose bipartite minors all have average degree below d
(planar graphs satisfy this with d = 4). Each round finds one vertex to
drop and d - 1 target vertices to add; when no such swap exists the failed
search itself assembles a dense bipartite minor, returned as a checkable
certificate that the sparsity assumption was wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

from .graphs import (
    DEFAULT_INVARIANTS_LIMIT,
    CoverCounts,
    Graph,
    exact_invariants,
    is_dominating,
)
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    play,
    shrink_in_place,
)
from .general import general_transform


@dataclass(frozen=True)
class SwapWitness:
    """Dropping a and adding s keeps domination: (A | s) - {a} dominates."""

    a: int
    s: frozenset[int]


@dataclass(frozen=True)
class DensityEntry:
    """One completed search round set for a: d dominators and d private vertices."""

    a: int
    bs: tuple[int, ...]
    xs: tuple[int, ...]


@dataclass(frozen=True)
class DensityWitness:
    """Raw material for a bipartite minor on A - B vs B - A with min degree d."""

    d: int
    entries: tuple[DensityEntry, ...]


class NotMinorSparseError(RuntimeError):
    """The graph violated the claimed sparsity.

    Carries the DensityWitness and the sets A (current) and B (target) of
    the failing round, so verify_density_witness(g, A, B, witness) can
    check it.
    """

    def __init__(self, d: int, witness: DensityWitness, A, B):
        self.witness = witness
        self.A, self.B = frozenset(A), frozenset(B)
        super().__init__(
            f"no swap exists and the search certifies a bipartite minor of"
            f" average degree >= {d}; the graph is not {d}-minor-sparse"
        )


def find_swap(g: Graph, A, B, d: int) -> SwapWitness | DensityWitness:
    """Search for a domination-preserving (d-1)-for-1 swap from A toward B.

    For each a in A - B (ascending) the search runs d rounds. Each round
    keeps a size-(d-1) set S of B - A containing all previously recorded
    dominators (padded with the lowest unused ids of B - A) and looks for
    the lowest-id vertex x of a's private set within A (CoverCounts.private:
    the x with N[x] & A == {a}) that S does not dominate. No such x means
    (A | S) - {a} is dominating: SwapWitness.
    Otherwise the lowest dominator of x in (B - A) - S is recorded and the
    next round starts. If every a survives all d rounds, the recorded
    vertices form a DensityWitness.
    """
    A, B = frozenset(A), frozenset(B)
    if d < 2:
        raise ValueError("d must be at least 2")
    state = CoverCounts(g, A)
    if not state.dominating or not is_dominating(g, B):
        raise ValueError("A and B must both be dominating sets")
    if len(B - A) < d:
        raise ValueError(f"|B - A| = {len(B - A)} is below d = {d}")
    if not A - B:
        raise ValueError("A - B is empty; nothing to swap")
    return _search_swap(state, B, d)


def _search_swap(state: CoverCounts, B, d: int) -> SwapWitness | DensityWitness:
    """find_swap past its checks, on the state of A, which it only reads."""
    A = state.members
    b_only = B - A
    b_minus_a = sorted(b_only)
    closed = state.g._closed
    entries: list[DensityEntry] = []
    for a in sorted(A - B):
        private = state.private(a)
        recorded: list[int] = []
        xs: list[int] = []
        for _round in range(d):
            s_set = list(recorded)
            for w in b_minus_a:
                if len(s_set) == d - 1:
                    break
                if w not in recorded:
                    s_set.append(w)
            covered_s = chain.from_iterable(map(closed.__getitem__, s_set))
            candidates = private.difference(covered_s)
            if not candidates:
                witness = SwapWitness(a=a, s=frozenset(s_set))
                if not is_dominating(state.g, (A | witness.s) - {a}):
                    raise RuntimeError(f"swap dropping {a + 1} broke domination")
                return witness
            x = min(candidates)
            choices = [w for w in closed[x] if w in b_only and w not in s_set]
            if not choices:
                raise RuntimeError(f"B dominates {x + 1} only from A or S")
            b = min(choices)
            recorded.append(b)
            xs.append(x)
        entries.append(DensityEntry(a=a, bs=tuple(recorded), xs=tuple(xs)))
    return DensityWitness(d=d, entries=tuple(entries))


def verify_density_witness(g: Graph, A, B, witness: DensityWitness) -> bool:
    """Check a DensityWitness by building its bipartite minor explicitly.

    Contracts each recorded private vertex into its a (unless the vertex
    already lies on one of the two sides), keeps only A - B and B - A, and
    demands degree >= d for every a. Any structural defect (wrong entry
    set, short rounds, repeated private vertices, broken adjacencies)
    makes the answer false.
    """
    A, B = frozenset(A), frozenset(B)
    d = witness.d
    left = A - B
    right = B - A
    if {e.a for e in witness.entries} != left or len(witness.entries) != len(left):
        return False
    seen_xs: set[int] = set()
    blobs: dict[int, set[int]] = {}
    for entry in witness.entries:
        if len(entry.bs) != d or len(entry.xs) != d:
            return False
        if not set(entry.bs) <= right or len(set(entry.bs)) != d:
            return False
        blob = {entry.a}
        for x in entry.xs:
            if x in seen_xs:
                return False
            seen_xs.add(x)
            if A.intersection(g._closed[x]) != {entry.a}:
                return False
            if x in left:
                if x != entry.a:
                    return False
            elif x not in right:
                if not g.has_edge(entry.a, x):
                    return False  # contraction needs the edge
                blob.add(x)
        blobs[entry.a] = blob
    for entry in witness.entries:
        degree = 0
        for r in sorted(right):
            if any(g.has_edge(z, r) for z in blobs[entry.a]):
                degree += 1
        if degree < d:
            return False
    return True


def pad_to_size(g: Graph, D, target: int, k: int) -> ReconfigSequence:
    """Grow or shrink a dominating set to an exact size, keeping domination.

    Growing adds the lowest-id absent vertices; only shrinking builds a
    CoverCounts of D, for shrink_in_place. Errors when the budget k or the
    graph cannot accommodate the target.
    """
    D = frozenset(D)
    if not is_dominating(g, D):
        raise ValueError("D must be dominating")
    if target < 1 or target > g.n:
        raise ValueError(f"target size {target} is not in 1..{g.n}")
    if max(len(D), target) > k:
        raise ValueError(f"target {target} or |D| = {len(D)} exceeds k = {k}")
    if len(D) <= target:
        absent = (v for v in range(g.n) if v not in D)
        added = frozenset(islice(absent, target - len(D)))
        return ReconfigSequence.tracked(D, add_then_remove(added), k, D | added)
    state = CoverCounts(g, D)
    moves = shrink_in_place(state, target, ())
    return ReconfigSequence.tracked(D, moves, k, state.members)


def suggested_density(
    ell: int | None = None, C: float = 0.265, planar: bool = False
) -> int:
    """Density parameter to use for a given forbidden clique minor.

    planar=True returns 4 outright. Otherwise d bounds the average degree
    of every graph with no K_ell minor, and so of every minor of such a
    graph, bipartite ones included. For ell <= 9 it returns d = 2 (ell - 2),
    proven by the largest edge count of a graph with no K_ell minor:
    - ell <= 7: (ell - 2) n - C(ell - 1, 2) edges (Mader 1968);
    - ell = 8: 6n - 20 edges (Jorgensen 1994);
    - ell = 9: 7n - 27 edges (Song & Thomas 2006).
    For ell >= 10 it returns max(2 (ell - 2), ceil(2 C ell sqrt(log2 ell))).
    K_{ell-2} joined to s independent vertices has no K_ell minor, and its
    average degree tends to 2 (ell - 2) as s grows, so no smaller d can
    hold. C ~ 0.265 is Thomason's edges-per-vertex constant (2001) with
    log2 in place of ln, so the average-degree form of his extremal
    function is twice that; it is exact only up to a (1 + o(1)) factor,
    unproven at any fixed ell, and takes over from 2 (ell - 2) only from
    ell = 19,310 with the default C. Prefer a known bound for the class at
    hand.
    """
    if planar:
        return 4
    if ell is None or ell < 3:
        raise ValueError("ell must be at least 3 (or pass planar=True)")
    if C <= 0:
        raise ValueError("C must be positive")
    if ell <= 9:
        return 2 * (ell - 2)
    return max(2 * (ell - 2), math.ceil(2 * C * ell * math.sqrt(math.log2(ell))))


def minor_sparse_transform(
    g: Graph, ds, dt, d: int, gamma_upper: int, limit: int = DEFAULT_INVARIANTS_LIMIT
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + d - 1.

    Pads both endpoints to size exactly Gamma, ds on the one CoverCounts
    the rounds carry, then plays find_swap's swaps toward the target on
    it, each followed by shrink_in_place, until the difference drops below
    d; the remainder is a plain add-then-remove walk. Length is bounded
    by 2*Gamma*(d-1) + 2*(Gamma-1). When d exceeds Gamma the general
    transform already fits the budget and is used as-is, with its own
    length bound 10 n (this needs exact invariants, so it needs
    g.n <= limit).

    Raises:
        NotMinorSparseError: find_swap certified a dense bipartite minor,
            i.e. the graph is not d-minor-sparse as claimed.
    """
    ds, dt = frozenset(ds), frozenset(dt)
    if d < 2:
        raise ValueError("d must be at least 2")
    if gamma_upper < 1:
        raise ValueError("gamma_upper must be positive")
    k = gamma_upper + d - 1
    check_endpoints(g, ds, dt, k)
    if ds == dt:
        return ReconfigSequence.tracked(ds, (), k, ds)
    if d > gamma_upper:
        return general_transform(g, ds, dt, exact_invariants(g, limit=limit), k=k)

    state = CoverCounts(g, ds)
    if len(ds) > gamma_upper:
        # pad_to_size's shrink, whose checks check_endpoints has made
        shrink = shrink_in_place(state, gamma_upper, ())
        head = ReconfigSequence.tracked(ds, shrink, k, state.members)
    else:
        head = pad_to_size(g, ds, gamma_upper, k)
        play(state, head.moves)
    tail = pad_to_size(g, dt, gamma_upper, k)
    target = tail.end
    moves: list[Move] = []
    pending = len(target - state.members)
    while pending >= d:
        found = _search_swap(state, target, d)
        if isinstance(found, DensityWitness):
            raise NotMinorSparseError(d, found, state.members, target)
        moves += play(state, add_then_remove(found.s, (found.a,)))
        moves += shrink_in_place(state, gamma_upper, target)
        now = len(target - state.members)
        if now > pending - 1:
            raise RuntimeError(
                "swap made no progress; is gamma_upper the true upper"
                " domination number?"
            )
        pending = now
    members = state.members
    moves += play(state, add_then_remove(target - members, members - target))
    middle = ReconfigSequence.tracked(head.end, tuple(moves), k, state.members)
    return head + middle + tail.reversed()
