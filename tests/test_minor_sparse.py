import hashlib

import pytest

import helpers
from domrecon import minor_sparse
from domrecon.graphs import Graph, exact_invariants, greedy_maximal_is, is_dominating
from domrecon.instances import gen_grid, gen_mynhardt, gen_random_tree, gen_suzuki_planar
from domrecon.minor_sparse import (
    DensityEntry,
    DensityWitness,
    NotMinorSparseError,
    SwapWitness,
    find_swap,
    minor_sparse_transform,
    pad_to_size,
    suggested_density,
    verify_density_witness,
)
from domrecon.sequences import Move, format_sequence, verify_sequence


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


C6_WITNESS = DensityWitness(
    d=2,
    entries=(
        DensityEntry(a=0, bs=(4, 1), xs=(5, 0)),
        DensityEntry(a=3, bs=(4, 1), xs=(3, 2)),
    ),
)


class TestFindSwap:
    def test_k33_swap(self):
        g = complete_bipartite(3, 3)
        got = find_swap(g, {0, 3}, {1, 4}, 2)
        assert got == SwapWitness(a=0, s=frozenset({1}))
        assert is_dominating(g, {1, 3})

    def test_cycle6_density(self):
        # antipodal pairs of C_6 admit no 1-for-1 swap; the failed search
        # contracts each private vertex into its a and exposes a K_{2,2}
        g = cycle(6)
        got = find_swap(g, {0, 3}, {1, 4}, 2)
        assert got == C6_WITNESS

    def test_input_validation(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="at least 2"):
            find_swap(g, {0, 3}, {1, 4}, 1)
        with pytest.raises(ValueError, match="dominating"):
            find_swap(g, {0, 1}, {1, 4}, 2)
        with pytest.raises(ValueError, match=r"\|B - A\| = 1"):
            find_swap(g, {0, 2, 4}, {0, 2, 5}, 2)
        with pytest.raises(ValueError, match="A - B is empty"):
            find_swap(g, {0, 3}, {0, 1, 3, 4}, 2)

    @pytest.mark.parametrize("A", [{-6, 3}, {0, 3, 6}])
    def test_vertex_outside_a_raises_index_error(self, A):
        # A's private sets are read from its cover counts, which refuse an
        # id outside 0..n-1 rather than wrapping a negative one
        with pytest.raises(IndexError, match="out of range for n=6"):
            find_swap(complete_bipartite(3, 3), A, {1, 4}, 2)


class TestDensityWitness:
    def test_verifies(self):
        assert verify_density_witness(cycle(6), {0, 3}, {1, 4}, C6_WITNESS)

    def test_rejects_missing_entry(self):
        short = DensityWitness(d=2, entries=C6_WITNESS.entries[:1])
        assert not verify_density_witness(cycle(6), {0, 3}, {1, 4}, short)

    def test_rejects_wrong_private_vertex(self):
        # x = 3 is private to a = 3, not to a = 0
        tampered = DensityWitness(
            d=2,
            entries=(
                DensityEntry(a=0, bs=(4, 1), xs=(5, 3)),
                C6_WITNESS.entries[1],
            ),
        )
        assert not verify_density_witness(cycle(6), {0, 3}, {1, 4}, tampered)

    def test_rejects_reused_private_vertex(self):
        doubled = DensityWitness(
            d=2,
            entries=(
                C6_WITNESS.entries[0],
                DensityEntry(a=3, bs=(4, 1), xs=(5, 0)),
            ),
        )
        assert not verify_density_witness(cycle(6), {0, 3}, {1, 4}, doubled)

    def test_rejects_short_rounds(self):
        short = DensityWitness(
            d=2,
            entries=(
                DensityEntry(a=0, bs=(4,), xs=(5,)),
                C6_WITNESS.entries[1],
            ),
        )
        assert not verify_density_witness(cycle(6), {0, 3}, {1, 4}, short)

    def test_rejects_bs_outside_target(self):
        bad = DensityWitness(
            d=2,
            entries=(
                DensityEntry(a=0, bs=(4, 2), xs=(5, 0)),
                C6_WITNESS.entries[1],
            ),
        )
        assert not verify_density_witness(cycle(6), {0, 3}, {1, 4}, bad)


class TestPadToSize:
    def test_shrink_replays_reduction(self):
        g = path(6)
        seq = pad_to_size(g, {0, 1, 3, 5}, 3, 4)
        assert seq.moves == (Move.remove(0),)
        assert seq.end == {1, 3, 5}

    def test_grow_adds_lowest_ids(self):
        g = path(6)
        seq = pad_to_size(g, {1, 4}, 4, 5)
        assert seq.moves == (Move.add(0), Move.add(2))
        assert seq.end == {0, 1, 2, 4}

    def test_noop(self):
        assert len(pad_to_size(path(6), {1, 4}, 2, 3)) == 0

    def test_every_state_dominating(self):
        g = path(6)
        for seq in (
            pad_to_size(g, {0, 1, 3, 5}, 3, 4),
            pad_to_size(g, {1, 4}, 4, 5),
        ):
            assert verify_sequence(g, seq).valid

    def test_builds_counts_only_to_shrink(self, monkeypatch):
        # a set that already fits, or grows, builds no cover counts; a shrink
        # of any depth builds them once
        built = []

        class Counting(minor_sparse.CoverCounts):
            def __init__(self, g, s=()):
                built.append(len(s))
                super().__init__(g, s)

        monkeypatch.setattr(minor_sparse, "CoverCounts", Counting)
        g = path(6)
        s = {0, 1, 2, 3, 4}
        assert pad_to_size(g, s, 5, 5).moves == ()
        assert pad_to_size(g, s, 6, 6).moves == (Move.add(5),)
        assert built == []
        assert pad_to_size(g, s, 4, 5).moves == (Move.remove(0),)
        assert built == [5]
        seq = pad_to_size(g, s, 3, 5)
        assert seq.moves == (Move.remove(0), Move.remove(2))
        assert seq.end == {1, 3, 4}
        assert built == [5, 5]

    def test_input_validation(self):
        g = path(6)
        with pytest.raises(ValueError, match="must be dominating"):
            pad_to_size(g, {0, 1}, 2, 4)
        with pytest.raises(ValueError, match="not in 1..6"):
            pad_to_size(g, {1, 4}, 7, 9)
        with pytest.raises(ValueError, match="not in 1..6"):
            pad_to_size(g, {1, 4}, 0, 4)
        with pytest.raises(ValueError, match="exceeds k"):
            pad_to_size(g, {1, 4}, 4, 3)
        with pytest.raises(ValueError, match="cannot shrink to 1"):
            pad_to_size(g, {1, 4}, 1, 4)


class TestSuggestedDensity:
    def test_planar(self):
        assert suggested_density(planar=True) == 4
        assert suggested_density(ell=50, planar=True) == 4

    def test_clique_minor_bound(self):
        # K_{ell-2} joined to many independent vertices has no K_ell minor
        # and average degree near 2 (ell - 2); Thomason's term, twice his
        # edges-per-vertex function, exceeds that from ell = 19,310
        assert suggested_density(3) == 2
        assert suggested_density(10) == 16
        assert suggested_density(19_309) == 2 * (19_309 - 2)
        assert suggested_density(19_310) > 2 * (19_310 - 2)

    def test_proven_small_clique_bounds(self):
        # Mader for ell <= 7, Jorgensen for 8, Song & Thomas for 9; K_{2,3}
        # (no K4 minor, average degree 2.4) and planar graphs (no K5 minor,
        # d = 4) fit under them
        assert [suggested_density(ell) for ell in range(3, 10)] == [2, 4, 6, 8, 10, 12, 14]
        assert suggested_density(4) > 2.4
        assert suggested_density(5) >= suggested_density(planar=True)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            suggested_density(2)
        with pytest.raises(ValueError, match="at least 3"):
            suggested_density()
        with pytest.raises(ValueError, match="positive"):
            suggested_density(5, C=0.0)


class TestHonestDensityCertificates:
    """With the true Gamma = 3, the method fails on some pairs of minimal
    dominating sets at d = 2, and each failure certifies a dense minor."""

    @pytest.mark.parametrize(
        "g,d,pairs,raised",
        [
            (gen_mynhardt(3), 2, 1369, 72),
            (gen_mynhardt(3), 3, 1369, 0),
            (gen_suzuki_planar(), 2, 1156, 66),
            (gen_suzuki_planar(), 3, 1156, 0),
        ],
        ids=["mynhardt3-d2", "mynhardt3-d3", "suzuki-d2", "suzuki-d3"],
    )
    def test_every_minimal_pair(self, g, d, pairs, raised):
        gamma_upper = exact_invariants(g).gamma_upper
        assert gamma_upper == 3
        minimal = helpers.all_minimal_dominating_sets(g)
        assert len(minimal) ** 2 == pairs
        failures = 0
        for a in minimal:
            for b in minimal:
                try:
                    seq = minor_sparse_transform(g, a, b, d, gamma_upper)
                except NotMinorSparseError as exc:
                    assert verify_density_witness(g, exc.A, exc.B, exc.witness)
                    failures += 1
                    continue
                report = verify_sequence(g, seq, expected_end=b)
                assert report.valid and report.end_matches, report.describe()
        assert failures == raised


class TestMinorSparseTransform:
    def test_path6_direct(self):
        g = path(6)
        seq = minor_sparse_transform(g, {1, 4}, {0, 2, 4}, 2, 3)
        assert seq.k == 4
        assert seq.moves == (Move.add(0), Move.add(2), Move.remove(1))
        report = verify_sequence(g, seq, expected_end={0, 2, 4})
        assert report.valid and report.end_matches

    def test_path6_swap_loop(self):
        g = path(6)
        seq = minor_sparse_transform(g, {0, 2, 4}, {1, 3, 5}, 2, 3)
        assert seq.moves == (
            Move.add(1),
            Move.remove(0),
            Move.add(3),
            Move.remove(2),
            Move.add(5),
            Move.remove(4),
        )
        report = verify_sequence(g, seq, expected_end={1, 3, 5})
        assert report.valid and report.end_matches
        assert report.max_size <= 4
        assert len(seq) <= 2 * 3 * (2 - 1) + 2 * (3 - 1)

    def test_cycle6_needs_true_gamma(self):
        g = cycle(6)
        # with the true upper domination number 3 the swap loop never runs
        seq = minor_sparse_transform(g, {0, 3}, {1, 4}, 2, 3)
        assert seq.moves == (
            Move.add(1),
            Move.add(4),
            Move.remove(3),
            Move.remove(0),
        )
        assert verify_sequence(g, seq, expected_end={1, 4}).valid

    def test_cycle6_density_certificate(self):
        g = cycle(6)
        # claiming Gamma = 2 forces a 1-for-1 swap search, which fails and
        # certifies that C_6 is not 2-minor-sparse
        with pytest.raises(NotMinorSparseError, match="not 2-minor-sparse") as info:
            minor_sparse_transform(g, {0, 3}, {1, 4}, 2, 2)
        assert info.value.witness == C6_WITNESS
        assert (info.value.A, info.value.B) == ({0, 3}, {1, 4})
        assert verify_density_witness(g, {0, 3}, {1, 4}, info.value.witness)

    def test_equal_endpoints(self):
        seq = minor_sparse_transform(path(6), {1, 4}, {1, 4}, 2, 3)
        assert len(seq) == 0

    def test_d_above_gamma_delegates(self):
        g = star(3)
        seq = minor_sparse_transform(g, {0}, {1, 2, 3}, 4, 3)
        assert seq.k == 6
        report = verify_sequence(g, seq, expected_end={1, 2, 3})
        assert report.valid and report.end_matches
        assert len(seq) <= 2 * 3 * (4 - 1) + 2 * (3 - 1)

    def test_input_validation(self):
        g = path(6)
        with pytest.raises(ValueError, match="at least 2"):
            minor_sparse_transform(g, {1, 4}, {1, 3, 5}, 1, 3)
        for gamma_upper in (0, -1):
            with pytest.raises(ValueError, match="^gamma_upper must be positive$"):
                minor_sparse_transform(g, {1, 4}, {1, 3, 5}, 2, gamma_upper)
        with pytest.raises(ValueError, match="ds is not a dominating set"):
            minor_sparse_transform(g, {1}, {1, 3, 5}, 2, 3)
        with pytest.raises(ValueError, match="dt has size 5 > k = 4"):
            minor_sparse_transform(g, {1, 4}, {0, 1, 2, 3, 4}, 2, 3)

    @pytest.mark.parametrize("ds", [{-2}, {1, 7}])
    def test_rejects_vertices_outside_the_graph(self, ds):
        with pytest.raises(ValueError, match=r"ds has a vertex outside 0\.\.2"):
            minor_sparse_transform(path(3), ds, {0, 2}, 2, 2)

    def test_one_cover_counts_per_endpoint(self, monkeypatch):
        # the 4x5 grid (Gamma = 10, d = 4) with both endpoints grown to
        # k = 13 builds one CoverCounts for ds, padded and swapped on in
        # place, and one for pad_to_size's shrink of dt; the swap search
        # reads the ds state and builds none in its rounds
        built = []
        searches = 0

        class Counting(minor_sparse.CoverCounts):
            def __init__(self, g, s=()):
                built.append(len(s))
                super().__init__(g, s)

        def search(*args):
            nonlocal searches
            searches += 1
            return original_search(*args)

        original_search = minor_sparse._search_swap
        monkeypatch.setattr(minor_sparse, "CoverCounts", Counting)
        monkeypatch.setattr(minor_sparse, "_search_swap", search)
        g = gen_grid(4, 5)
        gamma_upper, d = 10, 4
        assert helpers.milp_gamma_upper(g) == gamma_upper
        vertices = range(g.n)
        ds = helpers.fill(greedy_maximal_is(g), 13, vertices)
        dt = helpers.fill(greedy_maximal_is(g, frozenset({g.n - 1})), 13, reversed(vertices))
        seq = minor_sparse_transform(g, ds, dt, d, gamma_upper)
        assert verify_sequence(g, seq, expected_end=dt).valid
        assert searches > 0
        assert built == [13, 13]

    def test_shrink_failure_blames_gamma(self):
        g = path(6)
        # claimed Gamma below the reachable minimum: padding cannot comply
        with pytest.raises(ValueError, match="cannot shrink"):
            minor_sparse_transform(g, {0, 2, 4}, {1, 3, 5}, 2, 2)


class TestGoldenOutput:
    """Pins the exact sequence files on a fixed corpus: the first 20 trees of
    the acceptance corpus (d = 2) and five grids (d = 4), each between two
    maximal independent sets, then between the same sets grown to the
    budget so that the padding and the in-round shrinks remove vertices."""

    def test_trees_and_grids(self):
        trees = [gen_random_tree(2 + (i * 7) % 39, seed=1000 + i) for i in range(20)]
        grids = [gen_grid(r, c) for r, c in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5))]
        texts, moves = [], 0
        for g, d in [(g, 2) for g in trees] + [(g, 4) for g in grids]:
            gamma_upper = helpers.milp_gamma_upper(g)
            k = gamma_upper + d - 1
            ds = greedy_maximal_is(g)
            dt = greedy_maximal_is(g, frozenset({g.n - 1}))
            vertices = range(g.n)
            for a, b in (
                (ds, dt),
                (helpers.fill(ds, k, vertices), helpers.fill(dt, k, reversed(vertices))),
            ):
                seq = minor_sparse_transform(g, a, b, d, gamma_upper)
                texts.append(format_sequence(seq))
                moves += len(seq)
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert (moves, digest) == (
            367,
            "ae239b7349f19ec2f8ed230060fbcd9f314dbe46f517dba105998ffc97c09931",
        )
