"""Transformation between dominating sets with budget k = Gamma + alpha - 1.

The construction pivots through maximal independent sets, which are also
minimal dominating sets, so both endpoints can reach them by adding the
missing vertices first and removing the surplus afterwards.
"""

from __future__ import annotations

from .graphs import (
    CoverCounts,
    Graph,
    GraphInvariants,
    greedy_maximal_is,
    is_minimal_dominating,
    reduce_to_minimal,
)
from .sequences import (
    Move,
    ReconfigSequence,
    add_then_remove,
    check_endpoints,
    play,
)


class UnreachableError(RuntimeError):
    """The endpoints lie in different components of the reconfiguration graph."""


def _is_maximal_independent(g: Graph, s) -> bool:
    # independent: each member is dominated by itself alone
    state = CoverCounts(g, s)
    return state.dominating and all(state.counts[v] == 1 for v in s)


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
    return ReconfigSequence.tracked(d, add_then_remove(s - d, d - s), k, s)


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
        return ReconfigSequence.tracked(d1, (), k, d1)
    common = d1 & d2
    if not common:
        raise ValueError("d1 and d2 must share a vertex")
    x = min(common)
    s = greedy_maximal_is(g, frozenset({x}))
    there = is_ds_to_is_path(g, d1, s, k).moves
    back = is_ds_to_is_path(g, d2, s, k).reversed().moves
    return ReconfigSequence.tracked(d1, there + back, k, d2)


def _find_swap_pair(g: Graph, d1, d2):
    """First (u, v) in ascending pair order with (d1 - {u}) | {v} dominating.

    Dropping u from the dominating set d1 uncovers exactly u's private set
    (CoverCounts.private), so the swap is valid iff N[v] covers all of it.
    """
    state = CoverCounts(g, d1)
    for u in sorted(d1):
        private = state.private(u)
        for v in sorted(d2):
            if not private.difference(g._closed[v]):
                return u, v
    return None


def general_transform(
    g: Graph,
    ds,
    dt,
    inv: GraphInvariants,
    k: int | None = None,
) -> ReconfigSequence:
    """Dominating-set reconfiguration with budget Gamma + alpha - 1.

    Both endpoints are first reduced to minimal dominating sets D1, D2.
    One CoverCounts, built from ds, makes every move of the walk: the
    reduction to D1, the middle leg to D2 and the reduction of dt walked
    backwards. The middle leg: share a vertex -> pivot through a common
    maximal independent set; otherwise try a single add/remove swap that
    creates an intersection; otherwise use a vertex x left undominated by
    the failed swap to build two overlapping maximal independent sets and
    chain through them.

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

    d1, removals = reduce_to_minimal(g, ds)
    d2, back = reduce_to_minimal(g, dt)
    state = CoverCounts(g, ds)
    moves = play(state, map(Move.remove, removals))
    moves += play(state, _middle_leg(g, d1, d2, inv, k))
    reduction = ReconfigSequence.tracked(dt, tuple(map(Move.remove, back)), k, d2)
    moves += play(state, reduction.reversed().moves)
    return ReconfigSequence.tracked(ds, moves, k, state.members)


def _middle_leg(g, d1, d2, inv, k) -> tuple[Move, ...]:
    """The moves from the minimal dominating set d1 to d2."""
    if inv.alpha == 1:
        # complete graph: minimal dominating sets are singletons
        if d1 == d2:
            return ()
        if k >= 2:
            return add_then_remove(d2, d1)
        raise UnreachableError(
            "k = 1 on a complete graph: every singleton dominating set is frozen"
        )

    if d1 & d2:
        return common_vertex_path(g, d1, d2, k).moves

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
        moves += tuple(map(Move.remove, removals))
        return moves + common_vertex_path(g, reduced, d2, k).moves

    if len(d1) == 1:
        # d1's single vertex dominates everything, but no single vertex of
        # d2 does: reverse the walk from d2 that adds it and strips d2
        walk = ReconfigSequence.tracked(d2, add_then_remove(d1, d2), k, d1)
        return walk.reversed().moves

    u, v = min(d1), min(d2)
    swapped = (d1 - {u}) | {v}
    x = _lowest_undominated(g, swapped)
    # every vertex of d1 - {u} is non-adjacent to x, else x were dominated
    u_k = min(w for w in d1 - {u} if w != x and not g.has_edge(w, x))
    s1 = greedy_maximal_is(g, frozenset({x, u_k}))
    s2 = greedy_maximal_is(g, frozenset({x, v}))
    return (
        is_ds_to_is_path(g, d1, s1, k).moves
        + is_ds_to_is_path(g, s1, s2, k).moves
        + is_ds_to_is_path(g, d2, s2, k).reversed().moves
    )


def _lowest_undominated(g: Graph, s) -> int:
    state = CoverCounts(g, s)
    if state.dominating:
        raise RuntimeError("swap candidate unexpectedly dominating")
    return state.counts.index(0)
