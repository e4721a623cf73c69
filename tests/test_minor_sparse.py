import pytest

from domrecon.graphs import Graph, is_dominating
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
from domrecon.sequences import Move, verify_sequence


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
        assert suggested_density(3) == 2
        assert suggested_density(10) == 5

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            suggested_density(2)
        with pytest.raises(ValueError, match="at least 3"):
            suggested_density()
        with pytest.raises(ValueError, match="positive"):
            suggested_density(5, C=0.0)


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
        with pytest.raises(ValueError, match="gamma_upper must be positive"):
            minor_sparse_transform(g, {1, 4}, {1, 3, 5}, 2, 0)
        with pytest.raises(ValueError, match="ds is not a dominating set"):
            minor_sparse_transform(g, {1}, {1, 3, 5}, 2, 3)
        with pytest.raises(ValueError, match="dt has size 5 > k = 4"):
            minor_sparse_transform(g, {1, 4}, {0, 1, 2, 3, 4}, 2, 3)

    @pytest.mark.parametrize("ds", [{-2}, {1, 7}])
    def test_rejects_vertices_outside_the_graph(self, ds):
        with pytest.raises(ValueError, match=r"ds has a vertex outside 0\.\.2"):
            minor_sparse_transform(path(3), ds, {0, 2}, 2, 2)

    def test_shrink_failure_blames_gamma(self):
        g = path(6)
        # claimed Gamma below the reachable minimum: padding cannot comply
        with pytest.raises(ValueError, match="cannot shrink"):
            minor_sparse_transform(g, {0, 2, 4}, {1, 3, 5}, 2, 2)
