import functools
import hashlib
import random
import sys
import time
import tracemalloc
import warnings
from collections import Counter

import pytest

import helpers
from domrecon import graphs, minor_sparse, sequences, treewidth
from domrecon.graphs import (
    CoverCounts,
    Graph,
    LimitError,
    exact_invariants,
    greedy_maximal_is,
)
from domrecon.instances import (
    gen_mynhardt,
    gen_mynhardt_pd,
    gen_mynhardt_td,
    gen_random_tree,
)
from domrecon.sequences import Move, format_sequence, verify_sequence
from domrecon.treewidth import (
    DecompositionError,
    NormalizedTD,
    SweepError,
    TreeDecomposition,
    final_merge,
    format_td,
    normalize_td,
    parse_td,
    treewidth_transform,
    tw_step,
    validate_td,
)


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def path_td(n):
    return TreeDecomposition(
        n=n,
        bags=tuple(frozenset({v, v + 1}) for v in range(n - 1)),
        tree_edges=tuple((i, i + 1) for i in range(n - 2)),
        root=n - 2,
    )


class TestValidate:
    def test_valid(self):
        report = validate_td(path(4), path_td(4))
        assert report.valid
        assert report.violations == ()
        assert report.width == 1

    def test_missing_vertex(self):
        td = TreeDecomposition(4, (frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
        report = validate_td(path(4), td)
        assert not report.valid
        assert any("vertex 4 appears in no bag" in v for v in report.violations)

    def test_uncovered_edge(self):
        td = TreeDecomposition(
            3, (frozenset({0, 1}), frozenset({2})), ((0, 1),)
        )
        report = validate_td(path(3), td)
        assert any("edge (2,3) is inside no bag" in v for v in report.violations)

    def test_disconnected_vertex_subtree(self):
        td = TreeDecomposition(
            3,
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
            ((0, 1), (1, 2)),
        )
        report = validate_td(path(3), td)
        assert any("vertex 1 are not connected" in v for v in report.violations)

    def test_wrong_edge_count(self):
        td = TreeDecomposition(3, (frozenset({0, 1}), frozenset({1, 2})), ())
        report = validate_td(path(3), td)
        assert any("need 1" in v for v in report.violations)
        assert any("disconnected" in v for v in report.violations)

    def test_bad_tree_edge_and_root(self):
        td = TreeDecomposition(
            3, (frozenset({0, 1}), frozenset({1, 2})), ((0, 5),), root=9
        )
        report = validate_td(path(3), td)
        assert any("not a pair of distinct bags" in v for v in report.violations)
        assert any("root index 9" in v for v in report.violations)

    def test_out_of_range_bag_vertex(self):
        td = TreeDecomposition(3, (frozenset({0, 1}), frozenset({1, 7})), ((0, 1),))
        report = validate_td(path(3), td)
        assert any("out-of-range vertex 7" in v for v in report.violations)


class TestNormalize:
    def test_path_td(self):
        ntd = normalize_td(path_td(4))
        assert ntd.bags == (
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        )
        assert ntd.parent == (1, 2, None)
        assert ntd.width == 1

    def test_merges_nested_bags(self):
        td = TreeDecomposition(
            3,
            (frozenset({0}), frozenset({0, 1}), frozenset({1, 2})),
            ((0, 1), (1, 2)),
            root=2,
        )
        ntd = normalize_td(td)
        assert ntd.bags == (frozenset({0, 1}), frozenset({1, 2}))
        assert ntd.parent == (1, None)

    def test_root_follows_merge(self):
        td = TreeDecomposition(
            3,
            (frozenset({0}), frozenset({0, 1}), frozenset({1, 2})),
            ((0, 1), (1, 2)),
            root=2,
        )
        # overriding the root with the absorbed bag lands on its absorber
        ntd = normalize_td(td, root=0)
        assert ntd.bags == (frozenset({1, 2}), frozenset({0, 1}))
        assert ntd.parent == (1, None)

    def test_duplicate_bags_collapse(self):
        bag = frozenset({0, 1})
        td = TreeDecomposition(
            2, (bag,) * 4, ((0, 1), (1, 2), (2, 3)), root=3
        )
        ntd = normalize_td(td)
        assert ntd.bags == (bag,)
        assert ntd.parent == (None,)

    def test_bag_count_bounded_by_n(self):
        for ell in (3, 4):
            g = gen_mynhardt(ell)
            ntd = normalize_td(gen_mynhardt_td(ell))
            assert ntd.num_bags <= g.n
            for i, p in enumerate(ntd.parent):
                assert (p is None) == (i == ntd.num_bags - 1)
                if p is not None:
                    assert p > i

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError, match="root index 7"):
            normalize_td(path_td(4), root=7)

    def test_vertex_tops_and_descendants(self):
        ntd = normalize_td(path_td(4))
        assert ntd.tops == (0, 1, 2, 2)


def reference_cases():
    """(graph, decomposition) pairs the cached structures are checked on."""
    cases = [(path(n), path_td(n)) for n in (2, 3, 4, 9)]
    for ell in (3, 4, 5):
        g = gen_mynhardt(ell)
        cases += [(g, gen_mynhardt_td(ell)), (g, gen_mynhardt_pd(ell))]
    for n in (2, 3, 5, 8, 13, 21, 34, 60):
        for seed in range(3):
            g = gen_random_tree(n, seed=seed)
            cases.append((g, helpers.tree_natural_decomposition(g)))
    return cases


REFERENCE_CASES = reference_cases()


class TestCachedStructures:
    """Tops, retiring lists, width and leaf order against the naive versions."""

    def check(self, td, root):
        ntd = normalize_td(td, root=root)
        bags, parents = helpers.naive_normalize_td(td, root=root)
        assert (ntd.bags, ntd.parent) == (bags, parents)
        tops = helpers.naive_vertex_tops(ntd)
        assert ntd.tops == tuple(tops)
        assert ntd.retiring == tuple(
            tuple(v for v in range(ntd.n) if tops[v] == j) for j in range(ntd.num_bags)
        )
        assert ntd.width == max(len(bag) for bag in bags) - 1
        for j in range(ntd.num_bags):
            left, _ = helpers.naive_classify_left(ntd, j)
            # tw_step reads a bag vertex's side from tops: the bag vertices
            # left of j are exactly the ones retiring at j
            assert left.intersection(ntd.bags[j]) == set(ntd.retiring[j])

    @pytest.mark.parametrize("index", range(len(REFERENCE_CASES)))
    def test_against_naive(self, index):
        _, td = REFERENCE_CASES[index]
        rng = random.Random(index)
        roots = {None, 0, td.num_bags - 1, rng.randrange(td.num_bags)}
        for root in roots:
            self.check(td, root)

    def test_nested_bags_merged(self, atlas_connected):
        # optimal elimination-order decompositions nest adjacent bags
        for n in (5, 6):
            for g in atlas_connected[n][::7]:
                td = helpers.exact_tree_decomposition(g)
                for root in {None, 0, td.num_bags // 2}:
                    self.check(td, root)

    def test_merge_order_after_a_merge(self):
        # merging bag 3 = {0, 1, 3} into bag 9 = {0, 1, 3, 4} makes the
        # already checked bag 2 = {3, 4} a neighbour of its superset bag 9.
        # A worklist that did not check bag 2 again at once would merge it
        # into bag 6 later, and emit the bags in another order
        sets = [{1, 2, 3}, {0}, {3, 4}, {0, 1, 3}, {0, 3}, {1, 3}, {0, 1, 3, 4},
                {0, 4}, {0, 2, 4}, {0, 1, 3, 4}]
        edges = ((0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (1, 7), (7, 8), (3, 9))
        td = TreeDecomposition(5, tuple(map(frozenset, sets)), edges)
        for root in (None, *range(td.num_bags)):
            self.check(td, root)

    def test_random_nested_trees(self):
        # random trees of bags over 6 vertices nest often and in chains, so
        # merges give bags new neighbours to test, below and above the ones
        # already tested
        rng = random.Random(21)
        merged = 0
        for _ in range(400):
            b = rng.randrange(1, 30)
            bags = tuple(
                frozenset(v for v in range(6) if rng.random() < 0.5) | {rng.randrange(6)}
                for _ in range(b)
            )
            edges = tuple((rng.randrange(j), j) for j in range(1, b))
            td = TreeDecomposition(6, bags, edges, root=rng.randrange(b))
            ntd = normalize_td(td)
            assert (ntd.bags, ntd.parent) == helpers.naive_normalize_td(td)
            merged += b - ntd.num_bags
        assert merged > 3000

    def test_star_merges_in_linear_time(self):
        # a centre bag {0..m-1} with m singleton leaves merges every leaf
        # into the centre. Rescanning the centre's neighbours after each
        # merge grew about 16-fold from m = 4,000 to 16,000 (0.13 to 2.2 s
        # of CPU); testing each pair once grows about 4-fold
        def best_time(m):
            bags = (frozenset(range(m)),) + tuple(frozenset({v}) for v in range(m))
            td = TreeDecomposition(m, bags, tuple((0, j) for j in range(1, m + 1)))
            times = []
            for _ in range(3):
                start = time.process_time()
                ntd = normalize_td(td)
                times.append(time.process_time() - start)
            assert ntd.bags == (frozenset(range(m)),)
            return min(times)

        assert best_time(16_000) < 8 * best_time(4_000)

    def test_nested_path_merges_in_linear_time(self):
        # a path decomposition of P_16000 whose bags {i} and {i, i+1}
        # alternate: the 16,000 singletons merge into the 15,999 edge bags.
        # A full rescan after each merge took 1.2 s of CPU at 3,999 bags and
        # grew about fourfold per doubling; the worklist needs a small
        # fraction of the bound here
        bags = tuple(frozenset({i // 2, (i + 1) // 2}) for i in range(31_999))
        td = TreeDecomposition(16_000, bags, tuple((j, j + 1) for j in range(31_998)))
        start = time.process_time()
        ntd = normalize_td(td)
        assert time.process_time() - start < 1.0
        m = 15_999
        # root bag {0} merged into {0, 1}; leaves come off the far end
        assert ntd.bags == tuple(frozenset({v, v + 1}) for v in reversed(range(m)))
        assert ntd.parent == (*range(1, m), None)


class TestValidateAgainstNaive:
    @pytest.mark.parametrize(
        "g,td,kind",
        [
            (
                path(3),
                TreeDecomposition(3, (frozenset({0, 1}), frozenset({1, 7})), ((0, 1),)),
                "out-of-range vertex 7",
            ),
            (
                path(4),
                TreeDecomposition(4, (frozenset({0, 1}), frozenset({1, 2})), ((0, 1),)),
                "vertex 4 appears in no bag",
            ),
            (
                path(3),
                TreeDecomposition(3, (frozenset({0, 1}), frozenset({2})), ((0, 1),)),
                "edge (2,3) is inside no bag",
            ),
            (
                path(3),
                TreeDecomposition(
                    3,
                    (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
                    ((0, 1), (1, 2)),
                ),
                "vertex 1 are not connected",
            ),
            (
                path(3),
                TreeDecomposition(
                    3, (frozenset({0, 1}), frozenset({1, 2})), ((0, 5),), root=9
                ),
                "not a pair of distinct bags",
            ),
            (
                path(6),
                TreeDecomposition(
                    6,
                    (frozenset({0, 9}), frozenset({1, 8, 2}), frozenset({4})),
                    ((0, 1), (1, 1)),
                ),
                "edge (1,2) is inside no bag",
            ),
            (path(2), TreeDecomposition(2, (), ()), "decomposition has no bags"),
        ],
    )
    def test_violation_kinds(self, g, td, kind):
        report = validate_td(g, td)
        assert any(kind in v for v in report.violations)
        assert (report.valid, report.violations, report.width) == (
            helpers.naive_validate_td(g, td)
        )

    @pytest.mark.parametrize("g,td", REFERENCE_CASES)
    def test_valid_decompositions(self, g, td):
        report = validate_td(g, td)
        assert report.valid
        assert (report.valid, report.violations, report.width) == (
            helpers.naive_validate_td(g, td)
        )


class TestSweepReadsCachedStructures:
    def test_no_descendant_walk_and_one_build_per_decomposition(self, monkeypatch):
        builds = Counter()
        for name in ("tops", "retiring"):
            cached = NormalizedTD.__dict__[name]
            assert isinstance(cached, functools.cached_property)
            compute = cached.func

            def counted(self, compute=compute, name=name):
                builds[name] += 1
                return compute(self)

            prop = functools.cached_property(counted)
            prop.__set_name__(NormalizedTD, name)
            monkeypatch.setattr(NormalizedTD, name, prop)

        g = gen_random_tree(300, seed=3)
        td = helpers.tree_natural_decomposition(g)
        _, min_ds = helpers.milp_gamma(g)
        gamma_upper = helpers.milp_gamma_upper(g)
        ds = greedy_maximal_is(g)
        with pytest.warns(UserWarning, match="trusting"):
            seq = treewidth_transform(g, td, ds, min_ds, gamma_upper, min_ds=min_ds)
        report = verify_sequence(g, seq, expected_end=min_ds)
        assert report.valid and report.end_matches
        # one normalized decomposition per transform, each structure built once
        assert builds == {"tops": 1, "retiring": 1}


class TestOneCheckPerBoundary:
    """Each sweep checks the invariant once per bag index, on entry to the
    bag (tw_step) or at the root (final_merge)."""

    def check(self, monkeypatch, g, td, *args, **kwargs):
        checked = Counter()
        original = treewidth._check_property

        def counted(ntd, j, *rest):
            checked[j] += 1
            return original(ntd, j, *rest)

        monkeypatch.setattr(treewidth, "_check_property", counted)
        treewidth_transform(g, td, *args, **kwargs)
        # one sweep from each endpoint
        b = normalize_td(td).num_bags
        assert checked == {j: 2 for j in range(b)}
        return b

    def test_mynhardt(self, monkeypatch):
        g = gen_mynhardt(4)
        ds, dt = greedy_maximal_is(g), greedy_maximal_is(g, frozenset({g.n - 1}))
        _, min_ds = helpers.milp_gamma(g)
        b = self.check(
            monkeypatch, g, gen_mynhardt_td(4), ds, dt, helpers.milp_gamma_upper(g),
            min_ds=min_ds,
        )
        assert b == 13

    def test_random_tree(self, monkeypatch):
        g = gen_random_tree(80, seed=7)
        td = helpers.tree_natural_decomposition(g)
        _, min_ds = helpers.milp_gamma(g)
        ds, dt = greedy_maximal_is(g), greedy_maximal_is(g, frozenset({g.n - 1}))
        with pytest.warns(UserWarning, match="trusting"):
            b = self.check(
                monkeypatch, g, td, ds, dt, helpers.milp_gamma_upper(g), min_ds=min_ds
            )
        assert b > 20


class TestOneStatePerSweep:
    def test_reduce_and_bags_share_one_cover_counts(self, monkeypatch):
        # each sweep builds one CoverCounts for its reduce phase, every bag
        # and the root, where final_merge checks the invariant on it
        g = path(7)
        gamma_upper = exact_invariants(g).gamma_upper
        ds, dt = frozenset(range(6)), frozenset(range(1, 7))
        assert min(len(ds), len(dt)) > gamma_upper  # both reduce phases shrink
        built = Counter()
        phase = "sweep"

        class Counting(CoverCounts):
            def __init__(self, g, s=()):
                built[phase] += 1
                super().__init__(g, s)

        def merge(*args):
            nonlocal phase
            phase = "merge"
            try:
                return original_merge(*args)
            finally:
                phase = "sweep"

        original_merge = treewidth.final_merge
        for module in (graphs, sequences, minor_sparse, treewidth):
            monkeypatch.setattr(module, "CoverCounts", Counting, raising=False)
        monkeypatch.setattr(treewidth, "final_merge", merge)
        seq = treewidth_transform(g, path_td(7), ds, dt, gamma_upper)
        report = verify_sequence(g, seq, expected_end=dt)
        assert report.valid and report.end_matches
        assert (built["sweep"], built["merge"]) == (2, 0)


def tree_case(n: int, seed: int):
    """A random tree, its width-1 decomposition and MILP certificates."""
    g = gen_random_tree(n, seed=seed)
    _, min_ds = helpers.milp_gamma(g)
    return g, helpers.tree_natural_decomposition(g), min_ds, helpers.milp_gamma_upper(g)


def transform_quietly(g, td, gamma_upper, min_ds):
    # n > 24: the certificate min_ds is trusted with a warning
    ds, dt = greedy_maximal_is(g), greedy_maximal_is(g, frozenset({g.n - 1}))
    with pytest.warns(UserWarning, match="trusting"):
        return treewidth_transform(g, td, ds, dt, gamma_upper, min_ds=min_ds)


class TestLinearity:
    """The sweep and the verifier carry one CoverCounts instead of asking
    is_dominating per bag or per state, so its call count does not grow
    with the number of bags."""

    def count_calls(self, n):
        g, td, min_ds, gamma_upper = tree_case(n, seed=n)
        calls = Counter()
        original = graphs.is_dominating

        def counted(*args):
            calls[phase] += 1
            return original(*args)

        with pytest.MonkeyPatch.context() as mp:
            # every binding, `from .graphs import is_dominating` copies included
            for name, module in list(sys.modules.items()):
                if name.startswith("domrecon") and module.__dict__.get("is_dominating") is original:
                    mp.setattr(module, "is_dominating", counted)
            phase = "transform"
            seq = transform_quietly(g, td, gamma_upper, min_ds)
            phase = "verify"
            assert verify_sequence(g, seq).valid
        return normalize_td(td).num_bags, calls

    def test_calls_do_not_grow_with_bags(self):
        small_bags, small = self.count_calls(150)
        large_bags, large = self.count_calls(300)
        assert large_bags > small_bags + 100
        assert small["transform"] == large["transform"] > 0
        assert small["verify"] == large["verify"] == 0


def path_certificates(n: int) -> tuple[frozenset[int], int]:
    """A minimum dominating set of P_n, {1, 4, 7, ...} plus n - 1 when
    n = 1 (mod 3), and Gamma(P_n) = ceil(n / 2)."""
    extra = {n - 1} if n % 3 == 1 else set()
    return frozenset(range(1, n, 3)).union(extra), (n + 1) // 2


class TestSweepMemory:
    def test_path_certificates(self):
        for n in range(1, 16):
            g = path(n)
            inv = exact_invariants(g)
            min_ds, gamma_upper = path_certificates(n)
            assert graphs.is_dominating(g, min_ds)
            assert (len(min_ds), gamma_upper) == (inv.gamma_min, inv.gamma_upper)

    def test_peak_linear_in_n(self):
        # the sweep holds no n-bit set: four times the vertices take about
        # four times the peak, where one n-bit mask per bag would take
        # about sixteen
        def peak(n):
            g, td = path(n), path_td(n)
            min_ds, gamma_upper = path_certificates(n)
            ds = frozenset(range(0, n, 2)) | {n - 1}
            dt = frozenset(range(1, n, 2))
            tracemalloc.start()
            try:
                with pytest.warns(UserWarning, match="trusting"):
                    seq = treewidth_transform(g, td, ds, dt, gamma_upper, min_ds=min_ds)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert seq.end == dt
            return top

        assert peak(12_800) <= 5 * peak(3_200)


class TestGoldenOutput:
    """Pins the exact sequence files: the deterministic tie-breaking (lowest
    id first, greedy restart order) is part of the sweep's contract."""

    def test_random_tree_400(self):
        g, td, min_ds, gamma_upper = tree_case(400, seed=400)
        seq = transform_quietly(g, td, gamma_upper, min_ds)
        digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
        assert (len(seq), digest) == (
            740,
            "6fa860eaf0b4e07a13dfad508e6224e5a1811294f655a32f9e01a56e1681fa86",
        )

    def test_mynhardt_6(self):
        g = gen_mynhardt(6)
        _, min_ds = helpers.milp_gamma(g)
        seq = transform_quietly(g, gen_mynhardt_td(6), helpers.milp_gamma_upper(g), min_ds)
        digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
        assert (len(seq), digest) == (
            566,
            "5a66a2ad8591323a034c2491aecb0682e5d643655561c7ee780d5c812c4443c6",
        )


class TestTwStep:
    def step(self, g, ntd, j, members, target, gamma_upper):
        state = CoverCounts(g, members)
        moves = tw_step(g, ntd, j, state, target, gamma_upper, {})
        return moves, state

    def test_path3_by_hand(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        moves, state = self.step(g, ntd, 0, {0, 2}, {1}, gamma_upper=2)
        assert moves == (Move.add(1), Move.remove(0))
        assert state.members == {1, 2}

    def test_noop_when_aligned(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        moves, state = self.step(g, ntd, 0, {1}, {1}, gamma_upper=2)
        assert moves == ()
        assert state.members == {1}

    def test_rejects_root_bag(self):
        ntd = normalize_td(path_td(3))
        with pytest.raises(ValueError, match="bags 0..0"):
            self.step(path(3), ntd, 1, {1}, {1}, gamma_upper=2)

    def test_rejects_broken_invariant(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        with pytest.raises(SweepError, match="not dominating"):
            self.step(g, ntd, 0, {0}, {1}, gamma_upper=2)
        with pytest.raises(SweepError, match="size 3 > Gamma"):
            self.step(g, ntd, 0, {0, 1, 2}, {1}, gamma_upper=2)

    def test_carried_state_is_updated_in_place(self):
        # one state carried across every non-root bag of P_5, as the sweep does
        g = path(5)
        ntd = normalize_td(path_td(5))
        target = frozenset({1, 3})
        state = CoverCounts(g, {0, 2, 4})
        owed = {}
        expected = [
            ((Move.add(1), Move.remove(0)), {1, 2, 4}),
            ((), {1, 2, 4}),
            ((Move.add(3), Move.remove(2)), {1, 3, 4}),
        ]
        for j, (moves, members) in enumerate(expected):
            assert tw_step(g, ntd, j, state, target, 3, owed) == moves
            assert state.members == members
        assert final_merge(ntd, state, target, 3) == (Move.remove(4),)

    def test_retired_vertex_is_owed_along_its_own_chain(self):
        # bag tree 0 -> 3, 1 -> 2 -> 3 -> 4, and a state built by hand (no
        # sweep on this graph reaches it): vertex 0 retires at bag 0, off
        # bag 1's chain. The shrink at bag 1 drops the non-target 2, then
        # the target 0, which next lies left at bag 3, not at parent[1] = 2
        edges = [(0, 7), (1, 2), (1, 4), (1, 6), (2, 5), (3, 5), (3, 6), (4, 7), (5, 6)]
        g = Graph(8, edges + [(5, 7)])
        sets = ({0, 1, 7}, {3, 5, 6}, {1, 5, 6, 7}, {1, 2, 5, 7}, {1, 2, 4, 7})
        bags = tuple(map(frozenset, sets))
        tree = ((0, 3), (1, 2), (2, 3), (3, 4))
        ntd = normalize_td(TreeDecomposition(8, bags, tree, root=4))
        assert (ntd.bags, ntd.parent, ntd.tops[0]) == (bags, (3, 2, 3, 4, None), 0)
        state, owed = CoverCounts(g, {0, 2, 3, 7}), {}
        moves = tw_step(g, ntd, 1, state, frozenset({0, 1, 3}), 4, owed)
        assert moves == (Move.add(5), Move.add(6), Move.remove(2), Move.remove(0))
        assert owed == {3: [0]}

    def test_retired_check(self):
        # path 0-1-2-3-4, bags {0,1} {1,2} {2,3} {3,4}; vertex 1 retires at bag 1
        g = path(5)
        ntd = normalize_td(path_td(5))
        assert ntd.retiring == ((0,), (1,), (2,), (3, 4))
        with pytest.raises(SweepError, match=r"keeps retired vertices \[2\]"):
            self.step(g, ntd, 2, {1, 3}, {0, 3}, gamma_upper=2)


class TestCInAgainstNaive:
    """tw_step's c_in, read from retiring[j] and the owed lists, against its
    definition: the target vertices left of j that the working set lacks,
    with left(j) from helpers.naive_classify_left's walk up the parents."""

    def transform_checked(self, g, td, ds, dt, gamma_upper, min_ds=None):
        """Run the transform with every tw_step's additions checked; return
        the (bag, vertex) pairs c_in took from outside retiring[bag]."""
        original = treewidth.tw_step
        lefts = {}
        owed_in = []

        def checked(g, ntd, j, state, target, gamma_upper, owed):
            if j not in lefts:
                lefts[j] = helpers.naive_classify_left(ntd, j)[0]
            left = lefts[j]
            c_in = left.intersection(target).difference(state.members)
            b3 = {
                v
                for v in ntd.bags[j]
                if v not in left
                and v not in state
                and (v in target or c_in.isdisjoint(g.neighbors(v)))
            }
            moves = original(g, ntd, j, state, target, gamma_upper, owed)
            assert {mv.vertex for mv in moves if mv.kind == sequences.ADD} == c_in | b3
            owed_in.extend((j, v) for v in sorted(c_in) if v not in ntd.retiring[j])
            return moves

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treewidth, "tw_step", checked)
            seq = treewidth_transform(g, td, ds, dt, gamma_upper, min_ds=min_ds)
        assert verify_sequence(g, seq, expected_end=dt).end_matches
        return owed_in

    def test_shrunk_target_vertex_is_owed_to_the_parent_bag(self):
        # C5 0-1-2-3-4-0, bags {0,1,4} {1,2,4} {2,3,4}, D = {0, 2}: from
        # {1, 4}, bag 0 adds 0, whose shrink then drops 0 again (1 and 4
        # each keep a private vertex). 0 retires at bag 0, so bag 1 adds it
        # back from owed[1], not from retiring[1] = (1,)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        bags = (frozenset({0, 1, 4}), frozenset({1, 2, 4}), frozenset({2, 3, 4}))
        td = TreeDecomposition(5, bags, ((0, 1), (1, 2)), root=2)
        ntd = normalize_td(td)
        assert (ntd.bags, ntd.parent) == (bags, (1, 2, None))
        assert ntd.retiring == ((0,), (1,), (2, 3, 4))
        target = frozenset({0, 2})
        state, owed = CoverCounts(g, {1, 4}), {}
        moves = tw_step(g, ntd, 0, state, target, 2, owed)
        assert moves == (Move.add(0), Move.remove(0))
        assert state.members == {1, 4} and owed == {1: [0]}
        assert tw_step(g, ntd, 1, state, target, 2, owed) == (
            Move.add(0), Move.add(2), Move.remove(1), Move.remove(4)
        )
        assert state.members == target and owed == {}
        owed_in = self.transform_checked(g, td, {1, 4}, target, 2)
        assert owed_in == [(1, 0)]

    def test_atlas_every_dominating_start(self, atlas_connected):
        # each dominating set within k is swept once: paired with the next
        owed_in = 0
        for n in range(1, 7):
            for g in atlas_connected[n]:
                td = helpers.exact_tree_decomposition(g)
                gamma_upper = exact_invariants(g).gamma_upper
                k = gamma_upper + td.width + 1
                starts = [s for s in helpers.all_dominating_sets(g) if len(s) <= k]
                for ds, dt in zip(starts[::2], starts[1::2] + starts[:1]):
                    owed_in += len(self.transform_checked(g, td, ds, dt, gamma_upper))
        assert owed_in > 0

    @pytest.mark.parametrize("ell", [3, 4, 5])
    def test_mynhardt_random_pairs(self, ell):
        g = gen_mynhardt(ell)
        _, min_ds = helpers.milp_gamma(g)
        gamma_upper = helpers.milp_gamma_upper(g)
        rng = random.Random(ell)
        for td in (gen_mynhardt_td(ell), gen_mynhardt_pd(ell)):
            k = gamma_upper + td.width + 1
            ends = []
            while len(ends) < 20:
                s = frozenset(rng.sample(range(g.n), rng.randint(len(min_ds), k)))
                if graphs.is_dominating(g, s):
                    ends.append(s)
            for ds, dt in zip(ends[::2], ends[1::2]):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    self.transform_checked(g, td, ds, dt, gamma_upper, min_ds=min_ds)


class TestFinalMerge:
    def test_path3(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        state = CoverCounts(g, {1, 2})
        moves = final_merge(ntd, state, {1}, gamma_upper=2)
        assert moves == (Move.remove(2),)
        assert state.members == {1, 2}  # checked at the root, not changed

    def test_rejects_non_minimum_target(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        with pytest.raises(SweepError, match="not a minimum dominating set"):
            final_merge(ntd, CoverCounts(g, {1}), {0, 2}, gamma_upper=2)

    def test_rejects_retired_vertex_off_target(self):
        g = path(5)
        ntd = normalize_td(path_td(5))
        # vertex 0 is retired by the root bag yet absent from the target
        with pytest.raises(SweepError, match="keeps retired vertices"):
            final_merge(ntd, CoverCounts(g, {0, 3}), {1, 4}, gamma_upper=2)


class TestTransform:
    def test_path3_worked_example(self):
        g = path(3)
        seq = treewidth_transform(g, path_td(3), {0, 2}, {1}, gamma_upper=2)
        assert seq.k == 4
        assert seq.moves == (Move.add(1), Move.remove(0), Move.remove(2))
        report = verify_sequence(g, seq, expected_end={1})
        assert report.valid and report.end_matches

    def test_reverse_direction(self):
        g = path(3)
        seq = treewidth_transform(g, path_td(3), {1}, {0, 2}, gamma_upper=2)
        report = verify_sequence(g, seq, expected_end={0, 2})
        assert report.valid and report.end_matches

    def test_longer_path(self):
        g = path(7)
        td = path_td(7)
        seq = treewidth_transform(g, td, {0, 2, 4, 6}, {1, 3, 5}, gamma_upper=4)
        report = verify_sequence(g, seq, expected_end={1, 3, 5})
        assert report.valid and report.end_matches
        assert report.max_size <= seq.k
        assert len(seq) <= 4 * (g.n + 1) * (td.width + 1)

    def test_root_override(self):
        g = path(5)
        for root in (1, 3, None):
            seq = treewidth_transform(
                g, path_td(5), {0, 3}, {1, 3}, gamma_upper=3, root=root
            )
            report = verify_sequence(g, seq, expected_end={1, 3})
            assert report.valid and report.end_matches

    def test_explicit_min_ds(self):
        g = path(6)
        seq = treewidth_transform(
            g, path_td(6), {0, 2, 4}, {1, 4}, gamma_upper=3, min_ds={1, 4}
        )
        assert verify_sequence(g, seq, expected_end={1, 4}).valid

    def test_rejects_invalid_decomposition(self):
        g = path(3)
        td = TreeDecomposition(3, (frozenset({0, 1}),), ())
        with pytest.raises(DecompositionError, match="appears in no bag"):
            treewidth_transform(g, td, {1}, {1}, gamma_upper=2)

    def test_computed_min_ds_honours_limit(self):
        g = path(6)
        with pytest.raises(LimitError, match="n <= 5, got 6"):
            treewidth_transform(g, path_td(6), {0, 2, 4}, {1, 4}, 3, limit=5)
        with pytest.warns(UserWarning, match="trusting"):
            treewidth_transform(
                g, path_td(6), {0, 2, 4}, {1, 4}, 3, min_ds={1, 4}, limit=5
            )

    def test_rejects_bad_min_ds(self):
        g = path(3)
        with pytest.raises(ValueError, match="min_ds is not a dominating set"):
            treewidth_transform(g, path_td(3), {1}, {1}, 2, min_ds={0})
        with pytest.raises(ValueError, match="min_ds has size 2 but gamma = 1"):
            treewidth_transform(g, path_td(3), {1}, {1}, 2, min_ds={0, 2})

    def test_trusts_min_ds_above_limit(self):
        g = gen_random_tree(30, seed=7)
        td = helpers.tree_natural_decomposition(g)
        _, min_ds = helpers.milp_gamma(g)
        gamma_upper = helpers.milp_gamma_upper(g)
        ds = greedy_maximal_is(g)
        with pytest.warns(UserWarning, match="trusting"):
            seq = treewidth_transform(
                g, td, ds, min_ds, gamma_upper, min_ds=min_ds
            )
        assert verify_sequence(g, seq, expected_end=min_ds).valid

    def test_rejects_bad_endpoints(self):
        g = path(3)
        with pytest.raises(ValueError, match="ds is not a dominating set"):
            treewidth_transform(g, path_td(3), {0}, {1}, gamma_upper=2)

    @pytest.mark.parametrize("bad", [{-2}, {1, 7}])
    def test_rejects_vertices_outside_the_graph(self, bad):
        g = path(3)
        with pytest.raises(ValueError, match=r"ds has a vertex outside 0\.\.2"):
            treewidth_transform(g, path_td(3), bad, {1}, gamma_upper=2)
        with pytest.raises(ValueError, match=r"min_ds has a vertex outside 0\.\.2"):
            treewidth_transform(g, path_td(3), {1}, {1}, gamma_upper=2, min_ds=bad)

    @pytest.mark.parametrize("gamma_upper", [0, -1])
    def test_rejects_nonpositive_gamma_first(self, gamma_upper):
        g = path(3)
        # refused before the decomposition, min_ds or endpoints are looked at
        bad_td = TreeDecomposition(3, (frozenset({0, 1}),), ())
        for td in (path_td(3), bad_td):
            with pytest.raises(ValueError, match="^gamma_upper must be positive$"):
                treewidth_transform(g, td, {0}, {1}, gamma_upper, min_ds={0})

    def test_gamma_too_small(self):
        g = path(6)
        with pytest.raises(ValueError, match="cannot shrink"):
            treewidth_transform(g, path_td(6), {0, 2, 4}, {1, 4}, gamma_upper=1)


class TestTdFormat:
    def test_parse(self):
        td = parse_td("c demo\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert td.n == 3
        assert td.bags == (frozenset({0, 1}), frozenset({1, 2}))
        assert td.tree_edges == ((0, 1),)
        assert td.root == 1

    def test_roundtrip(self):
        td = gen_mynhardt_td(3)
        text = format_td(td, comments=["mynhardt 3"])
        assert text.startswith("c mynhardt 3\n")
        again = parse_td(text)
        assert again.bags == td.bags
        assert again.tree_edges == td.tree_edges
        assert again.root == td.root

    @pytest.mark.parametrize(
        "text,line,match",
        [
            ("b 1 1\ns td 1 1 1\n", 1, "bag before header"),
            ("1 2\ns td 2 1 2\n", 1, "tree edge before header"),
            ("s td 1 1 1\ns td 1 1 1\nb 1 1\n", 2, "duplicate header"),
            ("s td 1 1\nb 1 1\n", 1, "header must be"),
            ("s td x 1 1\n", 1, "non-integer"),
            ("s td 0 1 1\n", 1, "out of range"),
            ("s td 2 2 3\nb 5 1 2\n", 2, "bag id 5 out of range"),
            ("s td 2 2 3\nb 1 1 2\nb 1 2 3\n", 3, "duplicate bag id 1"),
            ("s td 1 2 3\nb 1 1 9\n", 2, "bag vertex out of range"),
            ("s td 1 2 3\nb 1 2 2\n", 2, "repeated vertex in bag"),
            ("s td 1 1 3\nb 1 1 2\n", 2, "exceeds declared maximum"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2 3\n", 4, "must be '<i> <j>'"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 1\n", 4, "out of range"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 x\n", 4, "non-integer tree edge"),
        ],
    )
    def test_parse_errors_carry_line(self, text, line, match):
        with pytest.raises(DecompositionError, match=match) as info:
            parse_td(text)
        assert info.value.line == line

    def test_parse_errors_without_line(self):
        with pytest.raises(DecompositionError, match="missing 's td' header"):
            parse_td("c empty\n")
        with pytest.raises(DecompositionError, match="declares 2 bags but 1"):
            parse_td("s td 2 2 3\nb 1 1 2\n1 2\n")
        with pytest.raises(DecompositionError, match="0 tree edges"):
            parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")
