import functools
import random
from collections import Counter

import pytest

import helpers
from domrecon import treewidth
from domrecon.graphs import Graph, greedy_maximal_is, set_of
from domrecon.instances import (
    gen_mynhardt,
    gen_mynhardt_pd,
    gen_mynhardt_td,
    gen_random_tree,
)
from domrecon.sequences import Move, verify_sequence
from domrecon.treewidth import (
    DecompositionError,
    NormalizedTD,
    SweepError,
    TreeDecomposition,
    classify_left,
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
    """Tops, width, left sets and leaf order against the naive versions."""

    def check(self, g, td, root):
        ntd = normalize_td(td, root=root)
        bags, parents = helpers.naive_normalize_td(td, root=root)
        assert (ntd.bags, ntd.parent) == (bags, parents)
        tops = helpers.naive_vertex_tops(ntd)
        assert ntd.tops == tuple(tops)
        assert ntd.width == max(len(bag) for bag in bags) - 1
        for j in range(ntd.num_bags):
            left, right = helpers.naive_classify_left(ntd, j)
            assert set_of(ntd.left_masks[j]) == left
            assert classify_left(ntd, j, g=g) == (left, right)

    @pytest.mark.parametrize("index", range(len(REFERENCE_CASES)))
    def test_against_naive(self, index):
        g, td = REFERENCE_CASES[index]
        rng = random.Random(index)
        roots = {None, 0, td.num_bags - 1, rng.randrange(td.num_bags)}
        for root in roots:
            self.check(g, td, root)

    def test_nested_bags_merged(self, atlas_connected):
        # optimal elimination-order decompositions nest adjacent bags
        for n in (5, 6):
            for g in atlas_connected[n][::7]:
                td = helpers.exact_tree_decomposition(g)
                for root in {None, 0, td.num_bags // 2}:
                    self.check(g, td, root)


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
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep walked the bag tree per vertex")

        monkeypatch.setattr(treewidth, "classify_left", forbidden)
        builds = Counter()
        for name in ("tops", "left_masks"):
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
        assert builds == {"tops": 1, "left_masks": 1}


class TestOneCheckPerBoundary:
    """Each sweep checks the invariant once per bag index, on entry to the
    bag (tw_step) or at the root (final_merge)."""

    def check(self, monkeypatch, g, td, *args, **kwargs):
        checked = Counter()
        original = treewidth._check_property

        def counted(g, ntd, j, *rest):
            checked[j] += 1
            return original(g, ntd, j, *rest)

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


class TestClassifyLeft:
    def test_split(self):
        ntd = normalize_td(path_td(4))
        left, right = classify_left(ntd, 0)
        assert (left, right) == ({0}, {1, 2, 3})
        left, right = classify_left(ntd, 1)
        assert (left, right) == ({0, 1}, {2, 3})

    def test_separation_check(self):
        # P_4's path decomposition does not cover C_4's chord (1,4)
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ntd = normalize_td(path_td(4))
        classify_left(ntd, 0, g=path(4))
        with pytest.raises(SweepError, match="crosses bag 1"):
            classify_left(ntd, 1, g=c4)

    def test_bag_index_bounds(self):
        ntd = normalize_td(path_td(4))
        with pytest.raises(ValueError, match="out of range"):
            classify_left(ntd, 3)


class TestTwStep:
    def test_path3_by_hand(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        moves, d_next = tw_step(g, ntd, 0, {0, 2}, {1}, gamma_upper=2)
        assert moves == (Move.add(1), Move.remove(0))
        assert d_next == {1, 2}

    def test_noop_when_aligned(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        moves, d_next = tw_step(g, ntd, 0, {1}, {1}, gamma_upper=2)
        assert moves == ()
        assert d_next == {1}

    def test_rejects_root_bag(self):
        ntd = normalize_td(path_td(3))
        with pytest.raises(ValueError, match="bags 0..0"):
            tw_step(path(3), ntd, 1, {1}, {1}, gamma_upper=2)

    def test_rejects_broken_invariant(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        with pytest.raises(SweepError, match="not dominating"):
            tw_step(g, ntd, 0, {0}, {1}, gamma_upper=2)
        with pytest.raises(SweepError, match="size 3 > Gamma"):
            tw_step(g, ntd, 0, {0, 1, 2}, {1}, gamma_upper=2)


class TestFinalMerge:
    def test_path3(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        moves = final_merge(g, ntd, {1, 2}, {1}, gamma_upper=2)
        assert moves == (Move.remove(2),)

    def test_rejects_non_minimum_target(self):
        g = path(3)
        ntd = normalize_td(path_td(3))
        with pytest.raises(SweepError, match="not a minimum dominating set"):
            final_merge(g, ntd, {1}, {0, 2}, gamma_upper=2)

    def test_rejects_retired_vertex_off_target(self):
        g = path(5)
        ntd = normalize_td(path_td(5))
        # vertex 0 is retired by the root bag yet absent from the target
        with pytest.raises(SweepError, match="keeps retired vertices"):
            final_merge(g, ntd, {0, 3}, {1, 4}, gamma_upper=2)


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
