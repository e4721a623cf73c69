"""Transformation between dominating sets with budget k = Gamma + alpha - 1.

The construction pivots through maximal independent sets, which are also
minimal dominating sets, so both endpoints can reach them by adding the
missing vertices first and removing the surplus afterwards.
"""

from __future__ import annotations

from .graphs import (
    Graph,
    GraphInvariants,
    coverage,
    greedy_maximal_is,
    is_dominating,
    is_minimal_dominating,
    mask_of,
    reduce_to_minimal,
)
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    reverse_sequence,
)


class UnreachableError(RuntimeError):
    """The endpoints lie in different components of the reconfiguration graph."""


def _is_maximal_independent(g: Graph, s) -> bool:
    mask = mask_of(s)
    for v in s:
        if g.adj_mask[v] & mask:
            return False
    return is_dominating(g, s)


def is_ds_to_is_path(g: Graph, d, s, k: int) -> ReconfigSequence:
    """Walk from a minimal dominating set to a maximal independent set.

    Adds s - d in ascending order (every intermediate contains d), then
    removes d - s in ascending order (every intermediate contains s). The
    peak size is |d union s|, so the budget requires |d| + |s| - 1 <= k and
    a common vertex.
    """
    d, s = frozenset(d), frozenset(s)
    if not is_minimal_dominating(g, d):
        raise ValueError("d must be a minimal dominating set")
    if not _is_maximal_independent(g, s):
        raise ValueError("s must be a maximal independent set")
    if not d & s:
        raise ValueError("d and s must share a vertex")
    if len(d) + len(s) - 1 > k:
        raise ValueError(
            f"budget violated: |d|+|s|-1 = {len(d) + len(s) - 1} exceeds k = {k}"
        )
    return ReconfigSequence(d, add_then_remove(s - d, d - s), k)


def common_vertex_path(g: Graph, d1, d2, k: int) -> ReconfigSequence:
    """Connect two minimal dominating sets that share a vertex.

    Both endpoints walk to the greedy maximal independent set grown from the
    lowest-id common vertex; the second half is reversed. Equal endpoints
    yield the empty sequence.
    """
    d1, d2 = frozenset(d1), frozenset(d2)
    if d1 == d2:
        if not is_minimal_dominating(g, d1):
            raise ValueError("endpoints must be minimal dominating sets")
        return ReconfigSequence(d1, (), k)
    common = d1 & d2
    if not common:
        raise ValueError("d1 and d2 must share a vertex")
    x = min(common)
    s = greedy_maximal_is(g, frozenset({x}))
    return is_ds_to_is_path(g, d1, s, k) + reverse_sequence(is_ds_to_is_path(g, d2, s, k))


def _find_swap_pair(g: Graph, d1, d2):
    """First (u, v) in ascending pair order with (d1 - {u}) | {v} dominating.

    Dropping u from the dominating set d1 uncovers exactly u's private set
    (see coverage), so the swap is valid iff nb_mask[v] covers all of it.
    """
    _, twice = coverage(g, d1)
    for u in sorted(d1):
        private = g.nb_mask[u] & ~twice
        for v in sorted(d2):
            if not private & ~g.nb_mask[v]:
                return u, v
    return None


def _reduction_prefix(g: Graph, s, k: int) -> tuple[ReconfigSequence, frozenset[int]]:
    minimal, removals = reduce_to_minimal(g, s)
    seq = ReconfigSequence(frozenset(s), tuple(Move.remove(v) for v in removals), k)
    return seq, minimal


def general_transform(
    g: Graph,
    ds,
    dt,
    inv: GraphInvariants,
    k: int | None = None,
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + alpha - 1.

    Both endpoints are first reduced to minimal dominating sets D1, D2.
    Then: share a vertex -> pivot through a common maximal independent set;
    otherwise try a single add/remove swap that creates an intersection;
    otherwise use a vertex x left undominated by the failed swap to build
    two overlapping maximal independent sets and chain through them.

    Args:
        inv: exact invariants of g (alpha and Gamma set the default budget).
        k: override budget, at least Gamma + alpha - 1.

    Raises:
        UnreachableError: alpha = 1 with k = 1 and distinct endpoints
            (the reconfiguration graph of a complete graph is edgeless
            at k = 1).
    """
    ds, dt = frozenset(ds), frozenset(dt)
    base = inv.gamma_upper + inv.alpha - 1
    if k is None:
        k = base
    elif k < base:
        raise ValueError(f"k = {k} is below Gamma + alpha - 1 = {base}")
    check_endpoints(g, ds, dt, k)

    prefix, d1 = _reduction_prefix(g, ds, k)
    suffix, d2 = _reduction_prefix(g, dt, k)

    middle = _transform_minimal(g, d1, d2, inv, k)
    return prefix + middle + reverse_sequence(suffix)


def _transform_minimal(g, d1, d2, inv, k) -> ReconfigSequence:
    if inv.alpha == 1:
        # complete graph: minimal dominating sets are singletons
        if d1 == d2:
            return ReconfigSequence(d1, (), k)
        if k >= 2:
            return ReconfigSequence(d1, add_then_remove(d2, d1), k)
        raise UnreachableError(
            "k = 1 on a complete graph: every singleton dominating set is frozen"
        )

    if d1 & d2:
        return common_vertex_path(g, d1, d2, k)

    pair = _find_swap_pair(g, d1, d2)
    if pair is not None:
        u, v = pair
        swapped = (d1 - {u}) | {v}
        moves = add_then_remove((v,), (u,))
        reduced, removals = reduce_to_minimal(g, swapped)
        # v was added because d1 - {u} does not dominate on its own, so the
        # re-minimalization can never drop it
        if v not in reduced:
            raise RuntimeError(f"re-minimalization dropped swapped-in vertex {v + 1}")
        moves += tuple(Move.remove(w) for w in removals)
        head = ReconfigSequence(d1, moves, k)
        return head + common_vertex_path(g, reduced, d2, k)

    if len(d1) == 1:
        # d1's single vertex dominates everything, but no single vertex of
        # d2 does: walk from d2 by adding it and stripping d2, then reverse
        return reverse_sequence(ReconfigSequence(d2, add_then_remove(d1, d2), k))

    u, v = min(d1), min(d2)
    swapped = (d1 - {u}) | {v}
    x = _lowest_undominated(g, swapped)
    # every vertex of d1 - {u} is non-adjacent to x, else x were dominated
    u_k = min(w for w in d1 - {u} if w != x and not g.has_edge(w, x))
    s1 = greedy_maximal_is(g, frozenset({x, u_k}))
    s2 = greedy_maximal_is(g, frozenset({x, v}))
    return (
        is_ds_to_is_path(g, d1, s1, k)
        + is_ds_to_is_path(g, s1, s2, k)
        + reverse_sequence(is_ds_to_is_path(g, d2, s2, k))
    )


def _lowest_undominated(g: Graph, s) -> int:
    cov = 0
    for v in s:
        cov |= g.nb_mask[v]
    missing = g.full_mask & ~cov
    if not missing:
        raise RuntimeError("swap candidate unexpectedly dominating")
    return (missing & -missing).bit_length() - 1
