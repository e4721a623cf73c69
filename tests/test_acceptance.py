"""End-to-end gate: one test per advertised guarantee, each under a wall
clock budget.

Every test finishes with a single [PASS] line carrying the headline
numbers, so `pytest -v -s tests/test_acceptance.py` doubles as a
checklist of what the package promises.
"""

import math
import time
import warnings

import helpers

from domrecon import instances, oracle
from domrecon.general import general_transform
from domrecon.graphs import (
    Graph,
    exact_invariants,
    greedy_maximal_is,
    is_dominating,
    is_minimal_dominating,
)
from domrecon.minor_sparse import (
    DensityWitness,
    SwapWitness,
    find_swap,
    minor_sparse_transform,
    verify_density_witness,
)
from domrecon.sequences import (
    ReconfigSequence,
    add_then_remove,
    reverse_sequence,
    verify_sequence,
)
from domrecon.treewidth import treewidth_transform, validate_td


def _pass(label: str, t0: float, budget: float, detail: str):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{label}: {elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"\n[PASS] {label}: {detail} ({elapsed:.1f}s)")


def _tree_corpus():
    for i in range(100):
        n = 2 + (i * 7) % 39
        yield instances.gen_random_tree(n, seed=1000 + i)


def test_star_thresholds():
    t0 = time.monotonic()
    for n in range(3, 9):
        g = instances.gen_star(n)
        records = {r.k: r for r in oracle.threshold_scan(g, n).records}
        for k in range(1, n):
            assert records[k].connected, f"star n={n}: R_{k} should be connected"
        assert not records[n].connected, f"star n={n}: R_{n} should split"
        leaves = frozenset(range(1, n + 1))
        assert oracle.frozen_sets(oracle.build_reconfig_graph(g, n)) == [leaves]
    _pass(
        "star thresholds", t0, 10.0,
        "K_{1,n} for n = 3..8: R_k connected for all k < n, "
        "disconnected at k = n with the leaf set as the only frozen node",
    )


def test_mynhardt_thresholds():
    t0 = time.monotonic()
    g = instances.gen_mynhardt(3)
    inv = exact_invariants(g)
    assert inv.gamma_min == 3 and inv.gamma_upper == 3
    report = oracle.threshold_scan(g, 6)
    records = {r.k: r for r in report.records}
    assert not records[4].connected and records[4].num_components == 2
    assert records[5].connected and records[6].connected
    assert report.d0_empirical == 5
    for ell in (3, 4, 5):
        h = instances.gen_mynhardt(ell)
        td = instances.gen_mynhardt_td(ell)
        pd = instances.gen_mynhardt_pd(ell)
        assert validate_td(h, td).valid and td.width == ell
        assert validate_td(h, pd).valid and pd.width == 2 * ell - 1
    _pass(
        "mynhardt thresholds", t0, 30.0,
        "Gamma = 3, R_4 split in two, R_5 and R_6 connected; tree/path "
        "decompositions of width ell and 2*ell - 1 validate for ell = 3..5",
    )


def test_planar_gap_graph_thresholds():
    t0 = time.monotonic()
    g = instances.gen_suzuki_planar()
    inv = exact_invariants(g)
    assert inv.gamma_upper == 3
    report = oracle.threshold_scan(g, 5)
    records = {r.k: r for r in report.records}
    assert not records[4].connected
    assert records[5].connected
    _pass(
        "planar gap graph", t0, 10.0,
        "nine-vertex planar graph: Gamma = 3, R_4 disconnected, R_5 connected",
    )


def test_general_transform_exhaustive(atlas_connected):
    t0 = time.monotonic()
    kept = []
    for n in range(1, 7):
        for g in atlas_connected[n]:
            inv = exact_invariants(g)
            if inv.alpha >= 2:
                kept.append((g, inv))
    assert len(kept) == 137
    pairs = 0
    for g, inv in kept:
        k = inv.gamma_upper + inv.alpha - 1
        rg = oracle.build_reconfig_graph(g, k)
        minimal = helpers.all_minimal_dominating_sets(g)
        for ds in minimal:
            for dt in minimal:
                seq = general_transform(g, ds, dt, inv)
                assert seq.k == k
                report = verify_sequence(g, seq, expected_end=dt)
                assert report.valid and report.end_matches, report.describe()
                assert report.length < 10 * g.n
                assert report.max_size <= k
                assert oracle.distance(rg, ds, dt) <= report.length
                pairs += 1
    assert pairs == 6818
    _pass(
        "general transform", t0, 300.0,
        "137 connected graphs (n <= 6, alpha >= 2), 6818 ordered pairs of "
        "minimal dominating sets: valid at k = Gamma + alpha - 1, "
        "length < 10n, never shorter than the true distance",
    )


def test_minor_sparse_transform_trees_and_grids():
    t0 = time.monotonic()
    cases = [(g, 2) for g in _tree_corpus()]
    cases += [
        (instances.gen_grid(rows, cols), 4)
        for rows in range(1, 5)
        for cols in range(1, 6)
    ]
    cross_checked = 0
    for g, d in cases:
        gamma_upper = helpers.milp_gamma_upper(g)
        ds = greedy_maximal_is(g)
        dt = greedy_maximal_is(g, frozenset({g.n - 1}))
        seq = minor_sparse_transform(g, ds, dt, d, gamma_upper)
        assert seq.k == gamma_upper + d - 1
        report = verify_sequence(g, seq, expected_end=dt)
        assert report.valid and report.end_matches, report.describe()
        assert report.length <= 2 * gamma_upper * (d - 1) + 2 * (gamma_upper - 1)
        if g.n <= 10:
            rg = oracle.build_reconfig_graph(g, seq.k)
            assert oracle.distance(rg, ds, dt) <= report.length
            cross_checked += 1
    _pass(
        "minor-sparse transform", t0, 120.0,
        f"100 random trees (n <= 40, d = 2) and 20 grids up to 4x5 (d = 4): "
        f"valid at k = Gamma + d - 1 within the 2*Gamma*(d-1) + 2*(Gamma-1) "
        f"length bound; {cross_checked} small cases cross-checked against "
        f"exact distances",
    )


def test_treewidth_transform_trees_and_small_graphs(atlas_connected):
    t0 = time.monotonic()
    # width-1 decompositions on the same tree corpus; gamma certificates
    # come from the integer-program oracle because n exceeds the
    # brute-force limit (the transform warns that it trusts them)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for g in _tree_corpus():
            td = helpers.tree_natural_decomposition(g)
            gamma_upper = helpers.milp_gamma_upper(g)
            _, min_ds = helpers.milp_gamma(g)
            ds = greedy_maximal_is(g)
            dt = greedy_maximal_is(g, frozenset({g.n - 1}))
            seq = treewidth_transform(g, td, ds, dt, gamma_upper, min_ds=min_ds)
            assert seq.k == gamma_upper + 2
            report = verify_sequence(g, seq, expected_end=dt)
            assert report.valid and report.end_matches, report.describe()
            assert report.length <= 4 * (g.n + 1) * 2

    # every connected graph with up to 8 vertices, exact decompositions;
    # domination, size, and retirement invariants are re-verified at each
    # bag inside the sweep itself, which raises instead of emitting moves
    small = [g for n in range(1, 8) for g in atlas_connected[n]]
    assert len(small) == 996
    order8 = helpers.connected_order_8(atlas_connected[7])
    assert len(order8) == 11117
    for g in small + order8:
        inv = exact_invariants(g)
        td = helpers.exact_tree_decomposition(g)
        ds = inv.witness_upper_ds
        dt = greedy_maximal_is(g)
        seq = treewidth_transform(
            g, td, ds, dt, inv.gamma_upper, min_ds=inv.witness_min_ds
        )
        assert seq.k == inv.gamma_upper + td.width + 1
        report = verify_sequence(g, seq, expected_end=dt)
        assert report.valid and report.end_matches, report.describe()
        assert report.length <= 4 * (g.n + 1) * (td.width + 1)
    _pass(
        "treewidth transform", t0, 600.0,
        "100 random trees plus all 12113 connected graphs with n <= 8 on "
        "exact decompositions: valid at k = Gamma + tw + 1 within the "
        "4(n+1)(tw+1) length bound",
    )


def test_budget_gap_on_mynhardt():
    t0 = time.monotonic()
    g = instances.gen_mynhardt(3)
    td = instances.gen_mynhardt_td(3)
    inv = exact_invariants(g)
    ds = frozenset({1, 2, 3})
    dt = frozenset({0, 4, 7})
    rg = oracle.build_reconfig_graph(g, 4)
    assert not oracle.is_connected(rg)
    assert oracle.distance(rg, ds, dt) == math.inf
    seq = treewidth_transform(g, td, ds, dt, inv.gamma_upper)
    assert seq.k == inv.gamma_upper + td.width + 1 == 7
    report = verify_sequence(g, seq, expected_end=dt)
    assert report.valid and report.end_matches, report.describe()
    assert report.max_size <= 7
    assert report.length <= 4 * (g.n + 1) * (td.width + 1)
    _pass(
        "budget gap", t0, 60.0,
        f"the same pair of dominating sets is provably stuck at k = 4 "
        f"(infinite distance) yet reachable at k = 7 in {report.length} moves",
    )


def test_greedy_domination_and_sequence_algebra(atlas_all_small):
    t0 = time.monotonic()
    graphs = [g for n in range(1, 7) for g in atlas_all_small[n]]
    assert len(graphs) == 208
    for g in graphs:
        for seed in [frozenset()] + [frozenset({v}) for v in range(g.n)]:
            assert is_minimal_dominating(g, greedy_maximal_is(g, seed))

    g = instances.gen_path(4)
    seq = ReconfigSequence(frozenset({0, 2}), add_then_remove([1, 3], [0, 2]), 4)
    assert verify_sequence(g, seq, expected_end=frozenset({1, 3})).end_matches
    back = reverse_sequence(seq)
    assert back.start == seq.end and back.end == seq.start
    assert reverse_sequence(back) == seq
    round_trip = seq + back
    assert round_trip.end == seq.start
    assert verify_sequence(g, round_trip).valid
    assert verify_sequence(g, ReconfigSequence(frozenset({1, 3}), (), 2)).valid

    k33 = Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    witness = find_swap(k33, frozenset({0, 3}), frozenset({1, 4}), 2)
    assert isinstance(witness, SwapWitness)
    assert is_dominating(k33, (frozenset({0, 3}) - {witness.a}) | witness.s)

    c6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    dense = find_swap(c6, frozenset({0, 3}), frozenset({1, 4}), 2)
    assert isinstance(dense, DensityWitness)
    assert verify_density_witness(c6, frozenset({0, 3}), frozenset({1, 4}), dense)
    _pass(
        "invariant suite", t0, 60.0,
        "greedy maximal independent sets are minimal dominating on all 208 "
        "graphs with n <= 6; reverse/concatenation round-trips verify; swap "
        "search yields a checkable witness on both outcomes",
    )
