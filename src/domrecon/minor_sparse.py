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

from .graphs import (
    Graph,
    coverage,
    exact_invariants,
    is_dominating,
    mask_of,
    pop_removable,
    reduce_to_minimal,
)
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    reverse_sequence,
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
    """The graph violated the claimed sparsity; carries the DensityWitness."""

    def __init__(self, d: int, witness: DensityWitness):
        self.witness = witness
        super().__init__(
            f"no swap exists and the search certifies a bipartite minor of"
            f" average degree >= {d}; the graph is not {d}-minor-sparse"
        )


def find_swap(g: Graph, A, B, d: int) -> SwapWitness | DensityWitness:
    """Search for a domination-preserving (d-1)-for-1 swap from A toward B.

    For each a in A - B (ascending) the search runs d rounds. Each round
    keeps a size-(d-1) set S of B - A containing all previously recorded
    dominators (padded with the lowest unused ids of B - A) and looks for
    the lowest-id vertex x of a's private set within A (see coverage: the
    x with N[x] & A == {a}) that S does not dominate. No such x means
    (A | S) - {a} is dominating: SwapWitness.
    Otherwise the lowest dominator of x in (B - A) - S is recorded and the
    next round starts. If every a survives all d rounds, the recorded
    vertices form a DensityWitness.
    """
    A, B = frozenset(A), frozenset(B)
    if d < 2:
        raise ValueError("d must be at least 2")
    if not is_dominating(g, A) or not is_dominating(g, B):
        raise ValueError("A and B must both be dominating sets")
    b_minus_a = sorted(B - A)
    if len(b_minus_a) < d:
        raise ValueError(f"|B - A| = {len(b_minus_a)} is below d = {d}")
    a_minus_b = sorted(A - B)
    if not a_minus_b:
        raise ValueError("A - B is empty; nothing to swap")
    _, twice_a = coverage(g, A)
    bma_mask = mask_of(b_minus_a)
    entries: list[DensityEntry] = []
    for a in a_minus_b:
        private = g.nb_mask[a] & ~twice_a
        recorded: list[int] = []
        xs: list[int] = []
        for _round in range(d):
            s_set = list(recorded)
            for w in b_minus_a:
                if len(s_set) == d - 1:
                    break
                if w not in recorded:
                    s_set.append(w)
            smask = mask_of(s_set)
            once_s, _ = coverage(g, s_set)
            candidates = private & ~once_s
            if not candidates:
                witness = SwapWitness(a=a, s=frozenset(s_set))
                if not is_dominating(g, (A | witness.s) - {a}):
                    raise RuntimeError(f"swap dropping {a + 1} broke domination")
                return witness
            x = (candidates & -candidates).bit_length() - 1
            choices = g.nb_mask[x] & bma_mask & ~smask
            if not choices:
                raise RuntimeError(f"B dominates {x + 1} only from A or S")
            b = (choices & -choices).bit_length() - 1
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
            nb = g.nb_mask[x]
            if nb & mask_of(A) != 1 << entry.a:
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

    Growing adds the lowest-id absent vertices; shrinking replays the
    greedy minimalization order and stops at the target. Errors when the
    budget k or the graph cannot accommodate the target.
    """
    D = frozenset(D)
    if not is_dominating(g, D):
        raise ValueError("D must be dominating")
    if target < 1 or target > g.n:
        raise ValueError(f"target size {target} is not in 1..{g.n}")
    if max(len(D), target) > k:
        raise ValueError(f"target {target} or |D| = {len(D)} exceeds k = {k}")
    if len(D) < target:
        absent = [v for v in range(g.n) if v not in D]
        return ReconfigSequence(D, add_then_remove(absent[: target - len(D)]), k)
    need = len(D) - target
    removals = reduce_to_minimal(g, D)[1] if need else []
    if len(removals) < need:
        raise ValueError(
            f"cannot shrink to {target}: greedy minimalization stops at"
            f" size {len(D) - len(removals)}; is gamma_upper the true upper"
            " domination number?"
        )
    return ReconfigSequence(D, tuple(Move.remove(v) for v in removals[:need]), k)


def suggested_density(
    ell: int | None = None, C: float = 0.265, planar: bool = False
) -> int:
    """Density parameter to use for a given forbidden clique minor.

    planar=True returns 4 outright. Otherwise a graph with no K_ell minor
    is d-minor-sparse for d = ceil(C * ell * sqrt(log2 ell)); the constant
    C ~ 0.265 is asymptotic (exact only up to a (1 + o(1)) factor), so for
    small ell prefer a known bound for the class at hand.
    """
    if planar:
        return 4
    if ell is None or ell < 3:
        raise ValueError("ell must be at least 3 (or pass planar=True)")
    if C <= 0:
        raise ValueError("C must be positive")
    return math.ceil(C * ell * math.sqrt(math.log2(ell)))


def minor_sparse_transform(
    g: Graph, ds, dt, d: int, gamma_upper: int, limit: int = 24
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + d - 1.

    Pads both endpoints to size exactly Gamma, then repeatedly applies
    find_swap toward the target until the difference drops below d; the
    remainder is a plain add-then-remove walk. Length is bounded by
    2*Gamma*(d-1) + 2*(Gamma-1). When d exceeds Gamma the general
    transform already fits the budget and is used as-is (this needs exact
    invariants, so it needs g.n <= limit).

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
        return ReconfigSequence(ds, (), k)
    if d > gamma_upper:
        return general_transform(g, ds, dt, exact_invariants(g, limit=limit), k=k)

    head = pad_to_size(g, ds, gamma_upper, k)
    tail = pad_to_size(g, dt, gamma_upper, k)
    current = set(head.end)
    target = tail.end
    moves: list[Move] = []
    pending = len(target - current)
    while pending >= d:
        found = find_swap(g, frozenset(current), target, d)
        if isinstance(found, DensityWitness):
            raise NotMinorSparseError(d, found)
        moves.extend(add_then_remove(found.s, (found.a,)))
        current |= found.s
        current.remove(found.a)
        while len(current) > gamma_upper:
            moves.append(Move.remove(pop_removable(g, current, target)))
        now = len(target - current)
        if now > pending - 1:
            raise RuntimeError(
                "swap made no progress; is gamma_upper the true upper"
                " domination number?"
            )
        pending = now
    moves.extend(add_then_remove(target - current, current - target))
    middle = ReconfigSequence(head.end, tuple(moves), k)
    return head + middle + reverse_sequence(tail)
