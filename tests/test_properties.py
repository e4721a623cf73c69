"""Property tests of the three transforms on arbitrary dominating endpoints.

Graphs are random connected graphs with n <= 8: a random spanning tree plus
random extra edges. An endpoint is any dominating set of size <= k: a random
minimal dominating set (members dropped in a random order while the rest
still dominates; every minimal set is reachable this way) grown by random
extra vertices. For every outcome the sequence must be valid, end at the
target, stay within k, respect the method's length bound and be no shorter
than the R_k distance the oracle reports; the returned sequence must know
its end without a replay. A NotMinorSparseError must carry
a density witness that verifies against its A and B.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from domrecon.general import UnreachableError, general_transform
from domrecon.graphs import Graph, exact_invariants, is_dominating
from domrecon.minor_sparse import (
    NotMinorSparseError,
    minor_sparse_transform,
    verify_density_witness,
)
from domrecon.oracle import build_reconfig_graph, distance
from domrecon.sequences import verify_sequence
from domrecon.treewidth import treewidth_transform

CASES = settings(max_examples=240, derandomize=True, deadline=None)


@st.composite
def connected_graphs(draw) -> Graph:
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), unique=True)))
    return Graph(n, sorted(edges))


def endpoint(data, g: Graph, k: int) -> frozenset[int]:
    s = set(range(g.n))
    for v in data.draw(st.permutations(range(g.n))):
        if is_dominating(g, s - {v}):
            s.remove(v)
    extra = data.draw(st.permutations(sorted(set(range(g.n)) - s)))
    size = data.draw(st.integers(len(s), min(k, g.n)))
    return frozenset(s) | frozenset(extra[: size - len(s)])


def check(g: Graph, ds, dt, seq, k: int, bound: int):
    # the transform followed its end on its own state: known without a replay
    assert "end" in seq.__dict__ and seq.end == dt
    report = verify_sequence(g, seq, expected_end=dt)
    assert report.valid and report.end_matches, report.describe()
    assert seq.k == k and report.max_size <= k
    assert report.length <= bound
    assert report.length >= distance(build_reconfig_graph(g, k), ds, dt)


@CASES
@given(st.data())
def test_general(data):
    g = data.draw(connected_graphs())
    inv = exact_invariants(g)
    k = inv.gamma_upper + inv.alpha - 1
    ds, dt = endpoint(data, g, k), endpoint(data, g, k)
    try:
        seq = general_transform(g, ds, dt, inv)
    except UnreachableError:
        assert distance(build_reconfig_graph(g, k), ds, dt) == math.inf
        return
    check(g, ds, dt, seq, k, 10 * g.n)


@CASES
@given(st.data(), st.sampled_from([2, 3]))
def test_minor_sparse(data, d):
    g = data.draw(connected_graphs())
    gamma_upper = exact_invariants(g).gamma_upper
    k = gamma_upper + d - 1
    ds, dt = endpoint(data, g, k), endpoint(data, g, k)
    try:
        seq = minor_sparse_transform(g, ds, dt, d, gamma_upper)
    except NotMinorSparseError as exc:
        assert verify_density_witness(g, exc.A, exc.B, exc.witness)
        return
    if d > gamma_upper:
        bound = 10 * g.n
    else:
        bound = 2 * gamma_upper * (d - 1) + 2 * (gamma_upper - 1)
    check(g, ds, dt, seq, k, bound)


@CASES
@given(st.data())
def test_treewidth(data):
    g = data.draw(connected_graphs())
    gamma_upper = exact_invariants(g).gamma_upper
    td = helpers.exact_tree_decomposition(g)
    k = gamma_upper + td.width + 1
    ds, dt = endpoint(data, g, k), endpoint(data, g, k)
    seq = treewidth_transform(g, td, ds, dt, gamma_upper)
    check(g, ds, dt, seq, k, 4 * (g.n + 1) * (td.width + 1))
