import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from domrecon.graphs import (
    CoverCounts,
    Graph,
    GraphFormatError,
    LimitError,
    SubsetFamilies,
    dominating_subsets,
    exact_invariants,
    format_graph,
    format_vertex_list,
    greedy_maximal_is,
    is_connected,
    is_dominating,
    is_minimal_dominating,
    mask_of,
    parse_graph,
    parse_vertex_list,
    reduce_to_minimal,
    set_of,
)
from domrecon.instances import gen_mynhardt, gen_mynhardt_td, gen_star
from domrecon.minor_sparse import pad_to_size
from domrecon.oracle import build_reconfig_graph
from domrecon.sequences import Move, shrink_in_place
from domrecon.treewidth import treewidth_transform


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def greedy_order(g, s, prefer_outside):
    """The whole greedy removal order of s, from a fresh CoverCounts."""
    return CoverCounts(g, s).shrink(prefer_outside, len(s))


def shrink_fresh(g, s, size, prefer_outside):
    return shrink_in_place(CoverCounts(g, s), size, prefer_outside)


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


class TestGraph:
    def test_basic_accessors(self):
        g = path(4)
        assert g.n == 4
        assert g.m == 3
        assert g.neighbors(1) == {0, 2}
        assert g.degree(0) == 1
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0, [])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_masks(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert set_of(0b100101) == {0, 2, 5}
        assert set_of(mask_of([])) == frozenset()

    def test_connectivity(self):
        assert is_connected(path(5))
        assert is_connected(Graph(1, []))
        assert not is_connected(Graph(2, []))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        # a random 2,000-vertex tree, whole and with one edge dropped
        rng = random.Random(2000)
        tree = [(v, rng.randrange(v)) for v in range(1, 2000)]
        assert is_connected(Graph(2000, tree))
        assert not is_connected(Graph(2000, tree[:999] + tree[1000:]))

    def test_memory_linear_in_n(self):
        # what a parsed path holds grows with n + m: four times the vertices
        # take about four times the memory, where n-bit masks per vertex
        # would take about sixteen
        def held(n):
            text = format_graph(path(n))
            tracemalloc.start()
            try:
                g = parse_graph(text)
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert g.n == n
            return size

        assert held(12_800) <= 6 * held(3_200)


class TestGraphFormat:
    def test_parse_simple(self):
        g = parse_graph("c a comment\np ds 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_roundtrip(self):
        g = cycle(6)
        assert parse_graph(format_graph(g)).edges() == g.edges()
        text = format_graph(g, comments=["made by hand"])
        assert text.startswith("c made by hand\n")
        assert parse_graph(text).n == 6

    @pytest.mark.parametrize(
        "text,line,match",
        [
            ("e 1 2\np ds 2 1\n", 1, "edge before header"),
            ("p ds 2 1\np ds 2 1\ne 1 2\n", 2, "duplicate header"),
            ("p ds 2 x\n", 1, "non-integer"),
            ("p td 2 1\n", 1, "header must be"),
            ("p ds 0 0\n", 1, "at least 1"),
            ("p ds 3 -1\n", 1, "negative edge count"),
            ("p ds 3 1\ne 2 2\n", 2, "self-loop at vertex 2"),
            ("p ds 3 1\ne 2 1\n", 2, "1 <= u < v"),
            ("p ds 3 1\ne 1 4\n", 2, "1 <= u < v"),
            ("p ds 3 2\ne 1 2\ne 1 2\n", 3, "duplicate edge"),
            ("p ds 3 1\ne 1\n", 2, "must be 'e <u> <v>'"),
            ("p ds 3 1\nq 1 2\n", 2, "unknown line type"),
        ],
    )
    def test_parse_errors_carry_line(self, text, line, match):
        with pytest.raises(GraphFormatError, match=match) as info:
            parse_graph(text)
        assert info.value.line == line

    def test_parse_errors_without_line(self):
        with pytest.raises(GraphFormatError, match="missing 'p ds' header") as info:
            parse_graph("c nothing here\n")
        assert info.value.line is None
        with pytest.raises(GraphFormatError, match="declares 2 edges but 1"):
            parse_graph("p ds 3 2\ne 1 2\n")

    def test_vertex_lists(self):
        assert parse_vertex_list("1,3") == {0, 2}
        assert parse_vertex_list(" ") == frozenset()
        assert parse_vertex_list("2") == {1}
        assert format_vertex_list({0, 2}) == "1,3"
        assert format_vertex_list(frozenset()) == ""
        with pytest.raises(ValueError, match="bad vertex list"):
            parse_vertex_list("1,x")
        with pytest.raises(ValueError, match="1-based"):
            parse_vertex_list("0,1")


class TestDomination:
    def test_is_dominating(self):
        g = path(4)
        assert is_dominating(g, {1, 3})
        assert is_dominating(g, {0, 1, 2, 3})
        assert not is_dominating(g, {0})
        assert not is_dominating(g, set())

    def test_is_minimal_dominating(self):
        g = path(4)
        assert is_minimal_dominating(g, {1, 2})
        assert is_minimal_dominating(g, {0, 2})
        assert not is_minimal_dominating(g, {0, 1, 2})  # 1 is droppable
        assert not is_minimal_dominating(g, {0, 1})  # not dominating at all

    def test_reduce_to_minimal_star(self):
        g = star(3)
        minimal, removals = reduce_to_minimal(g, {0, 1, 2, 3})
        # the center goes first even though keeping it would allow removing
        # all three leaves: the scan is by ascending id, one vertex at a time
        assert minimal == {1, 2, 3}
        assert removals == [0]

    def test_reduce_to_minimal_path(self):
        g = path(4)
        minimal, removals = reduce_to_minimal(g, {0, 1, 2, 3})
        assert minimal == {1, 3}
        assert removals == [0, 2]

    def test_reduce_prefixes_stay_dominating(self):
        g = cycle(7)
        full = frozenset(range(7))
        _, removals = reduce_to_minimal(g, full)
        current = set(full)
        for v in removals:
            current.remove(v)
            assert is_dominating(g, current)
        assert is_minimal_dominating(g, current)

    def test_reduce_rejects_non_dominating(self):
        with pytest.raises(ValueError, match="not dominating"):
            reduce_to_minimal(path(4), {0})

    def test_greedy_removals_prefers_outside(self):
        g = path(4)
        assert greedy_order(g, {0, 1, 3}, prefer_outside={0, 3}) == [1]
        assert shrink_fresh(g, {0, 1, 3}, 2, {0, 3}) == (Move.remove(1),)

    def test_greedy_removals_lowest_id_fallback(self):
        g = path(4)
        # everything in the preferred set: plain ascending order applies
        assert greedy_order(g, {0, 1, 3}, prefer_outside={0, 1, 3}) == [0]
        assert shrink_fresh(g, {0, 1, 3}, 2, {0, 1, 3}) == (Move.remove(0),)

    def test_shrink_exhausted(self):
        g = path(4)
        assert greedy_order(g, {1, 3}, prefer_outside=set()) == []
        text = (
            "^cannot shrink to 1: greedy minimalization stops at size 2; is"
            " gamma_upper the true upper domination number\\?$"
        )
        with pytest.raises(ValueError, match=text):
            shrink_fresh(g, {1, 3}, 1, set())
        # the in-place path stops at the same size with the same text
        state = CoverCounts(g, {0, 1, 3})
        with pytest.raises(ValueError, match=text):
            shrink_in_place(state, 1, set())
        assert state.members == {1, 3}


class TestOutOfRange:
    @pytest.mark.parametrize("s", [{-2}, {1, 3}])
    def test_count_readers_raise_index_error(self, s):
        # the readers that build cover counts refuse an id outside 0..n-1
        # as CoverCounts.add does; {-2} is not read as _closed[-2]
        g = path(3)
        for reader in (is_minimal_dominating, reduce_to_minimal):
            with pytest.raises(IndexError, match="out of range for n=3"):
                reader(g, s)

    @pytest.mark.parametrize("s,v", [({-2}, -2), ({1, 3}, 3)])
    def test_is_dominating_raises_the_cover_counts_error(self, s, v):
        # is_dominating unions rows instead of counting, yet refuses the same
        # ids with CoverCounts' text: {-2} is not read as vertex 1, so
        # pad_to_size, which asks is_dominating first, refuses it too
        g = path(3)
        text = f"^vertex {v} out of range for n=3$"
        for call in (
            lambda: CoverCounts(g, s),
            lambda: is_dominating(g, s),
            lambda: pad_to_size(g, s, 2, 3),
        ):
            with pytest.raises(IndexError, match=text):
                call()


class TestCoverage:
    def test_path(self):
        g = path(4)
        state = CoverCounts(g, {0, 1, 3})
        assert state.dominating
        # dominated at least twice
        assert [w for w in range(g.n) if state.counts[w] > 1] == [0, 1, 2]
        # private sets: 0 has none, 1 has none, 3 keeps {3}
        assert [state.private(v) for v in (0, 1, 3)] == [set(), set(), {3}]


@st.composite
def graphs_up_to_10(draw) -> Graph:
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, sorted(edges))


def snapshot(state: CoverCounts):
    return set(state.members), list(state.counts), state.undominated


def assert_recounted(g: Graph, state: CoverCounts):
    members = state.members
    mask = mask_of(members)
    assert len(state) == len(members)
    nb = helpers.masks(g)[1]
    assert state.counts == [(nb[w] & mask).bit_count() for w in range(g.n)]
    assert state.undominated == state.counts.count(0)
    assert state.dominating == is_dominating(g, members)


class TestCoverCounts:
    def test_path(self):
        g = path(4)
        state = CoverCounts(g, {0})
        assert state.counts == [1, 1, 0, 0] and state.undominated == 2
        assert not state.dominating
        state.add(3)
        assert state.counts == [1, 1, 1, 1] and state.dominating
        assert 3 in state and 2 not in state and len(state) == 2
        state.remove(0)
        assert state.counts == [0, 0, 1, 1] and state.undominated == 2
        assert state.members == {3}

    def test_bad_moves_leave_the_state_unchanged(self):
        g = path(4)
        state = CoverCounts(g, {1, 3})
        before = snapshot(state)
        # the texts ReconfigSequence.end raises on a parsed sequence
        with pytest.raises(ValueError, match=r"^cannot add 1: already present$"):
            state.add(1)
        with pytest.raises(ValueError, match=r"^cannot remove 0: not present$"):
            state.remove(0)
        for v in (-1, 4):
            with pytest.raises(IndexError, match="out of range for n=4"):
                state.add(v)
        assert snapshot(state) == before

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_random_walk_matches_recount(self, data):
        g = data.draw(graphs_up_to_10())
        start = data.draw(st.sets(st.integers(0, g.n - 1)))
        state = CoverCounts(g, start)
        assert state.members == start
        assert_recounted(g, state)
        steps = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, g.n - 1)), max_size=40)
        )
        for adding, v in steps:
            present = v in state
            if adding == present:
                before = snapshot(state)
                with pytest.raises(ValueError):
                    state.add(v) if adding else state.remove(v)
                assert snapshot(state) == before
            elif adding:
                state.add(v)
            else:
                state.remove(v)
            assert_recounted(g, state)


class TestGreedyShrink:
    """The one counts pass gives the coverage loop's greedy order."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_coverage_loop(self, data):
        g = data.draw(graphs_up_to_10())
        vertices = st.sets(st.integers(0, g.n - 1))
        s = data.draw(vertices)
        if data.draw(st.booleans()):
            # make s dominate by adding the vertices it misses
            nb = helpers.masks(g)[1]
            s |= {w for w in range(g.n) if not nb[w] & mask_of(s)}
        prefer = data.draw(vertices)
        detour = data.draw(vertices)
        want = helpers.naive_greedy_removals(g, s, prefer)
        if not is_dominating(g, s):
            assert want == []
        assert greedy_order(g, s, prefer) == want
        for size in range(len(s) + 1):
            need = len(s) - size
            # tw_step's path: counts carried in place through other moves
            state = CoverCounts(g, s | detour)
            for v in detour - s:
                state.remove(v)
            if need > len(want):
                with pytest.raises(ValueError, match=f"cannot shrink to {size}: "):
                    shrink_in_place(state, size, prefer)
                with pytest.raises(ValueError, match=f"cannot shrink to {size}: "):
                    shrink_fresh(g, s, size, prefer)
                continue
            moves = tuple(Move.remove(v) for v in want[:need])
            assert shrink_in_place(state, size, prefer) == moves
            assert shrink_fresh(g, s, size, prefer) == moves
            assert state.members == s.difference(want[:need])
            assert_recounted(g, state)


class TestAgainstNaive:
    """The coverage-based checks agree with the O(|S|^2) loops on n <= 6."""

    def test_every_dominating_set(self, atlas_connected):
        for n in range(1, 7):
            for g in atlas_connected[n]:
                for s in helpers.all_dominating_sets(g):
                    minimal = helpers.naive_is_minimal_dominating(g, s)
                    assert is_minimal_dominating(g, s) == minimal
                    reduced = helpers.naive_reduce_to_minimal(g, s)
                    assert reduce_to_minimal(g, s) == reduced
                    low = set(sorted(s)[: len(s) // 2])
                    for prefer in (set(), set(s), low):
                        slow, want = set(s), []
                        while True:
                            try:
                                v = helpers.naive_pop_removable(g, slow, prefer)
                            except ValueError:
                                break
                            want.append(v)
                        assert greedy_order(g, s, prefer) == want

    def test_every_subset_on_five_vertices(self, atlas_connected):
        for g in atlas_connected[5]:
            for size in range(g.n + 1):
                for combo in itertools.combinations(range(g.n), size):
                    minimal = helpers.naive_is_minimal_dominating(g, combo)
                    assert is_minimal_dominating(g, combo) == minimal


class TestDominatingSubsets:
    def test_prefix_of_all_dominating_sets(self, atlas_connected):
        for n in range(1, 7):
            for g in atlas_connected[n]:
                every = [mask_of(s) for s in helpers.all_dominating_sets(g)]
                for k in range(n + 1):
                    want = [m for m in every if m.bit_count() <= k]
                    assert list(dominating_subsets(g, k)) == want

    def test_prefix_on_seeded_graphs(self):
        # sparse, edgeless and disconnected graphs prune most prefixes
        graphs = helpers.seeded_small_graphs(10)
        assert any(not is_connected(g) and g.m for g in graphs)
        for g in graphs:
            every = [mask_of(s) for s in helpers.all_dominating_sets(g)]
            for k in range(g.n + 2):
                want = [m for m in every if m.bit_count() <= k]
                assert list(dominating_subsets(g, k)) == want

    def test_no_combinations_loop(self, monkeypatch):
        # the oracle build and the treewidth target walk the pruned prefixes;
        # a loop over combinations would hit the patched function
        g = gen_mynhardt(3)
        td = gen_mynhardt_td(3)
        ds, dt = frozenset({1, 2, 3}), frozenset({0, 4, 7})
        min_ds = helpers.all_dominating_sets(g)[0]
        want_rg = helpers.naive_reconfig_graph(g, 6)
        want_seq = treewidth_transform(g, td, ds, dt, 3, min_ds=min_ds)

        def forbidden(*args):
            raise AssertionError("dominating_subsets enumerated combinations")

        monkeypatch.setattr(itertools, "combinations", forbidden)
        rg = build_reconfig_graph(g, 6)
        assert (rg.nodes, rg.adj) == want_rg
        assert treewidth_transform(g, td, ds, dt, 3) == want_seq

    def test_first_is_the_minimum_witness(self, atlas_connected):
        graphs = [g for n in range(1, 8) for g in atlas_connected[n]]
        assert len(graphs) == 996
        for g in graphs:
            first = next(dominating_subsets(g, g.n))
            assert set_of(first) == exact_invariants(g).witness_min_ds


def test_dominating_subsets_is_lazy():
    # the first set comes before any larger one is walked: on a 41-vertex
    # star the walk up to size 41 would list 2**40 + 1 sets
    assert next(dominating_subsets(gen_star(40), 41)) == 1


class TestGreedyMaximalIS:
    def test_unseeded(self):
        assert greedy_maximal_is(path(4)) == {0, 2}

    def test_seeded(self):
        assert greedy_maximal_is(path(4), frozenset({3})) == {0, 3}
        assert greedy_maximal_is(star(4), frozenset({2})) == {1, 2, 3, 4}

    def test_rejects_dependent_seed(self):
        with pytest.raises(ValueError, match="not independent"):
            greedy_maximal_is(path(4), frozenset({0, 1}))

    @pytest.mark.parametrize("seed", [{-1}, {4}])
    def test_rejects_seed_outside_the_graph(self, seed):
        # a negative id is refused, not read as the adjacency of n - 1
        with pytest.raises(IndexError, match=r"seed has a vertex outside 0\.\.3"):
            greedy_maximal_is(path(4), frozenset(seed))

    def test_result_is_minimal_dominating(self):
        for g in (path(6), cycle(5), star(4), Graph(3, [])):
            for seed in [frozenset()] + [frozenset({v}) for v in range(g.n)]:
                s = greedy_maximal_is(g, seed)
                assert seed <= s
                assert is_minimal_dominating(g, s)


class TestSubsetFamilies:
    def test_against_subset_loops(self):
        # every family, bit S, checked against the set with mask S
        for g in helpers.seeded_small_graphs(13, max_n=8):
            fam = SubsetFamilies(g)
            subsets = range(1 << g.n)
            assert fam.full == (1 << len(subsets)) - 1
            for v in range(g.n):
                assert set_of(fam.has[v]) == {s for s in subsets if s >> v & 1}
            assert set_of(fam.dominating) == {s for s in subsets if is_dominating(g, set_of(s))}
            for k in range(-1, g.n + 2):
                want = {s for s in subsets if s.bit_count() <= k}
                assert set_of(fam.size_at_most(k)) == want


class TestExactInvariants:
    def test_path4(self):
        inv = exact_invariants(path(4))
        assert (inv.gamma_min, inv.gamma_upper, inv.alpha) == (2, 2, 2)
        assert inv.witness_min_ds == {0, 2}
        assert inv.witness_upper_ds == {0, 2}
        assert inv.witness_max_is == {0, 2}

    def test_star(self):
        inv = exact_invariants(star(4))
        assert (inv.gamma_min, inv.gamma_upper, inv.alpha) == (1, 4, 4)
        assert inv.witness_min_ds == {0}
        assert inv.witness_upper_ds == {1, 2, 3, 4}
        assert inv.witness_max_is == {1, 2, 3, 4}

    def test_cycle5(self):
        inv = exact_invariants(cycle(5))
        assert (inv.gamma_min, inv.gamma_upper, inv.alpha) == (2, 2, 2)
        assert inv.witness_min_ds == {0, 2}

    def test_single_vertex(self):
        inv = exact_invariants(Graph(1, []))
        assert (inv.gamma_min, inv.gamma_upper, inv.alpha) == (1, 1, 1)

    def test_witnesses_are_lex_first(self):
        g = cycle(6)
        inv = exact_invariants(g)
        best = min(
            (
                sorted(c)
                for c in itertools.combinations(range(6), inv.gamma_min)
                if is_dominating(g, c)
            ),
        )
        assert sorted(inv.witness_min_ds) == best

    def test_limit(self):
        with pytest.raises(LimitError, match="n <= 24"):
            exact_invariants(Graph(25, []))
        with pytest.raises(LimitError, match="n <= 3"):
            exact_invariants(path(4), limit=3)
        assert exact_invariants(path(4), limit=4).gamma_min == 2

    def test_limit_checked_before_any_family(self):
        # a 2**40-bit family would not fit in memory: the check comes first
        with pytest.raises(LimitError, match="n <= 24, got 40"):
            exact_invariants(Graph(40, []))

    def test_against_reference_on_the_atlas(self):
        graphs = [helpers.nx_to_graph(G) for G in nx.graph_atlas_g()[1:]]
        assert len(graphs) == 1252
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            assert exact_invariants(g) == helpers.naive_exact_invariants(g)

    def test_against_reference_on_random_graphs(self):
        rng = random.Random(8)
        for n in range(1, 15):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            graphs = [Graph(n, []), Graph(n, pairs)]
            for density in (0.15, 0.3, 0.5):
                graphs.append(Graph(n, [e for e in pairs if rng.random() < density]))
            for g in graphs:
                assert exact_invariants(g) == helpers.naive_exact_invariants(g)

    def test_no_per_subset_loop(self, monkeypatch):
        # the families cover all 2**n subsets at once; a loop over
        # combinations, even a hidden one, would hit the patched function
        rng = random.Random(16)
        g = Graph(16, [(u, v) for v in range(16) for u in range(v) if rng.random() < 0.25])
        want = helpers.naive_exact_invariants(g)

        def forbidden(*args):
            raise AssertionError("exact_invariants enumerated subsets")

        monkeypatch.setattr(itertools, "combinations", forbidden)
        assert exact_invariants(g) == want

    def test_against_milp_on_small_connected_graphs(self, atlas_connected):
        for n in range(1, 7):
            for g in atlas_connected[n]:
                inv = exact_invariants(g)
                gamma, _ = helpers.milp_gamma(g)
                assert inv.gamma_min == gamma
                assert inv.alpha == helpers.milp_alpha(g)
                assert inv.gamma_upper == helpers.milp_gamma_upper(g)
