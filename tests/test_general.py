import hashlib
import itertools

import pytest

import helpers
from domrecon.general import (
    UnreachableError,
    _find_swap_pair,
    common_vertex_path,
    general_transform,
    is_ds_to_is_path,
)
from domrecon.graphs import (
    Graph,
    exact_invariants,
    is_minimal_dominating,
)
from domrecon.oracle import build_reconfig_graph, distance
from domrecon.sequences import Move, format_sequence, verify_sequence


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def check(g, seq, ds, dt, k):
    report = verify_sequence(g, seq, expected_end=dt)
    assert report.valid, report.describe()
    assert report.end_matches
    assert seq.start == frozenset(ds)
    assert seq.k == k
    return report


class TestDsToIsPath:
    def test_adds_then_removes(self):
        g = path(4)
        seq = is_ds_to_is_path(g, {1, 2}, {0, 2}, 3)
        assert seq.moves == (Move.add(0), Move.remove(1))
        check(g, seq, {1, 2}, {0, 2}, 3)

    def test_equal_sets(self):
        g = path(4)
        seq = is_ds_to_is_path(g, {0, 2}, {0, 2}, 3)
        assert len(seq) == 0

    def test_input_validation(self):
        g = path(4)
        with pytest.raises(ValueError, match="minimal dominating"):
            is_ds_to_is_path(g, {0, 2, 3}, {0, 2}, 4)
        with pytest.raises(ValueError, match="maximal independent"):
            is_ds_to_is_path(g, {0, 2}, {1}, 4)
        with pytest.raises(ValueError, match="share a vertex"):
            is_ds_to_is_path(g, {1, 3}, {0, 2}, 4)
        with pytest.raises(ValueError, match="budget violated"):
            is_ds_to_is_path(g, {0, 2}, {0, 2}, 2)
        # -2 is refused, not read as vertex 2
        with pytest.raises(IndexError, match="out of range for n=4"):
            is_ds_to_is_path(g, {0, 2}, {0, -2}, 4)


class TestCommonVertexPath:
    def test_pivot_through_shared_vertex(self):
        g = path(5)
        seq = common_vertex_path(g, {1, 3}, {1, 4}, 5)
        assert seq.moves == (Move.add(4), Move.remove(3))
        check(g, seq, {1, 3}, {1, 4}, 5)

    def test_equal_endpoints(self):
        g = path(5)
        assert len(common_vertex_path(g, {1, 3}, {1, 3}, 5)) == 0

    def test_requires_common_vertex(self):
        with pytest.raises(ValueError, match="share a vertex"):
            common_vertex_path(path(5), {1, 3}, {0, 2, 4}, 5)


class TestFindSwapPair:
    def test_matches_naive_on_small_connected_graphs(self, atlas_connected):
        # every ordered pair of minimal dominating sets, overlapping or not
        for n in range(1, 7):
            for g in atlas_connected[n]:
                minimal = helpers.all_minimal_dominating_sets(g)
                for d1 in minimal:
                    for d2 in minimal:
                        assert _find_swap_pair(g, d1, d2) == (
                            helpers.naive_find_swap_pair(g, d1, d2)
                        )


class TestGeneralTransform:
    def test_path3_swap_case(self):
        g = path(3)
        inv = exact_invariants(g)
        seq = general_transform(g, {0, 2}, {1}, inv)
        assert seq.k == 3  # Gamma 2 + alpha 2 - 1
        assert seq.moves == (Move.add(1), Move.remove(0), Move.remove(2))
        check(g, seq, {0, 2}, {1}, 3)

    def test_cycle6_witness_chain_case(self):
        # disjoint endpoints, no single swap works: the construction routes
        # through maximal independent sets built from an undominated witness
        g = cycle(6)
        inv = exact_invariants(g)
        seq = general_transform(g, {0, 3}, {1, 4}, inv)
        assert seq.k == 5
        assert seq.moves == (
            Move.add(1),
            Move.add(5),
            Move.remove(0),
            Move.add(4),
            Move.remove(5),
            Move.remove(3),
        )
        check(g, seq, {0, 3}, {1, 4}, 5)

    def test_endpoints_reduced_first(self):
        g = path(3)
        inv = exact_invariants(g)
        seq = general_transform(g, {0, 1, 2}, {1}, inv)
        check(g, seq, {0, 1, 2}, {1}, 3)

    def test_equal_endpoints(self):
        g = cycle(6)
        seq = general_transform(g, {0, 3}, {0, 3}, exact_invariants(g))
        assert len(seq) == 0

    def test_universal_vertex_endpoint(self):
        # {0} meets nothing and admits no swap: the dedicated walk applies
        g = star(3)
        inv = exact_invariants(g)
        seq = general_transform(g, {0}, {1, 2, 3}, inv)
        assert seq.k == 5
        assert seq.moves == (
            Move.add(3),
            Move.add(2),
            Move.add(1),
            Move.remove(0),
        )
        check(g, seq, {0}, {1, 2, 3}, 5)

    def test_complete_graph_needs_k2(self):
        g = complete(4)
        inv = exact_invariants(g)
        assert (inv.gamma_upper, inv.alpha) == (1, 1)
        with pytest.raises(UnreachableError, match="frozen"):
            general_transform(g, {0}, {2}, inv)
        seq = general_transform(g, {0}, {2}, inv, k=2)
        assert seq.moves == (Move.add(2), Move.remove(0))
        check(g, seq, {0}, {2}, 2)

    def test_complete_graph_equal_endpoints(self):
        g = complete(3)
        seq = general_transform(g, {1}, {1}, exact_invariants(g))
        assert len(seq) == 0
        assert seq.k == 1

    def test_k_override(self):
        g = path(3)
        inv = exact_invariants(g)
        seq = general_transform(g, {0, 2}, {1}, inv, k=5)
        check(g, seq, {0, 2}, {1}, 5)
        with pytest.raises(ValueError, match="below Gamma"):
            general_transform(g, {0, 2}, {1}, inv, k=2)

    def test_input_validation(self):
        g = path(4)
        inv = exact_invariants(g)
        with pytest.raises(ValueError, match="ds is not a dominating set"):
            general_transform(g, {0}, {1, 3}, inv)
        with pytest.raises(ValueError, match="dt is not a dominating set"):
            general_transform(g, {1, 3}, {3}, inv)
        with pytest.raises(ValueError, match="ds has size 4 > k = 3"):
            general_transform(g, {0, 1, 2, 3}, {1, 3}, inv)

    @pytest.mark.parametrize("ds", [{-2}, {1, 7}])
    def test_rejects_vertices_outside_the_graph(self, ds):
        # {-2} would index _closed[-2], the middle vertex, and dominate
        g = path(3)
        with pytest.raises(ValueError, match=r"ds has a vertex outside 0\.\.2"):
            general_transform(g, ds, {1}, exact_invariants(g))

    def test_exhaustive_small_paths_and_cycles(self):
        # every ordered pair of minimal dominating sets on a few shapes,
        # cross-checked against the brute-force reconfiguration graph
        for g in (path(5), cycle(5), star(4)):
            inv = exact_invariants(g)
            k = inv.gamma_upper + inv.alpha - 1
            minimal = [
                frozenset(c)
                for size in range(1, g.n + 1)
                for c in itertools.combinations(range(g.n), size)
                if is_minimal_dominating(g, c)
            ]
            rg = build_reconfig_graph(g, k)
            for ds in minimal:
                for dt in minimal:
                    seq = general_transform(g, ds, dt, inv)
                    report = check(g, seq, ds, dt, k)
                    assert report.length < 10 * g.n
                    assert distance(rg, ds, dt) <= report.length


class TestGoldenOutput:
    """Pins the exact sequence files on helpers.seeded_small_graphs: the
    witness endpoints, then the same sets grown to the budget so that both
    reduce phases remove vertices."""

    def test_seeded_small_graphs(self):
        texts, moves = [], 0
        for g in helpers.seeded_small_graphs(18, max_n=9):
            inv = exact_invariants(g)
            k = inv.gamma_upper + inv.alpha - 1
            ds, dt = inv.witness_upper_ds, inv.witness_min_ds
            vertices = range(g.n)
            for a, b in (
                (ds, dt),
                (helpers.fill(ds, k, vertices), helpers.fill(dt, k, reversed(vertices))),
            ):
                seq = general_transform(g, a, b, inv)
                texts.append(format_sequence(seq))
                moves += len(seq)
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert (moves, digest) == (
            233,
            "878f8d1aa966d7327ef1a0581a8732809e929fd21bb7bf221f77938a00891a20",
        )
