import collections
import dataclasses
import functools
import math
import random
import tracemalloc

import pytest

import helpers
from domrecon import cli, oracle
from domrecon.graphs import Graph, LimitError, exact_invariants, format_vertex_list, set_of
from domrecon.instances import gen_grid, gen_mynhardt
from domrecon.oracle import (
    SubsetLattice,
    ThresholdRecord,
    build_reconfig_graph,
    diameter,
    distance,
    frozen_sets,
    is_connected,
    max_component_diameter,
    threshold_scan,
)


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


class TestBuild:
    def test_path3_k3(self):
        # dominating sets of P_3: {2}, {1,2}, {1,3}, {2,3}, {1,2,3} (1-based)
        rg = build_reconfig_graph(path(3), 3)
        assert rg.nodes == (0b010, 0b011, 0b101, 0b110, 0b111)
        assert rg.num_nodes == 5
        assert rg.num_edges == 5
        assert rg.num_components == 1
        assert is_connected(rg)
        assert diameter(rg) == 3
        assert frozen_sets(rg) == []

    def test_path3_k2(self):
        rg = build_reconfig_graph(path(3), 2)
        assert rg.nodes == (0b010, 0b011, 0b101, 0b110)
        assert rg.num_edges == 2
        assert rg.num_components == 2
        assert not is_connected(rg)
        assert diameter(rg) == math.inf
        assert max_component_diameter(rg) == 2
        # {1,3} can neither grow (k) nor shrink (domination): frozen
        assert frozen_sets(rg) == [frozenset({0, 2})]

    def test_path3_k1(self):
        rg = build_reconfig_graph(path(3), 1)
        assert rg.nodes == (0b010,)
        assert rg.num_edges == 0
        assert is_connected(rg)
        assert diameter(rg) == 0

    def test_below_gamma_is_empty(self):
        rg = build_reconfig_graph(path(4), 1)
        assert rg.num_nodes == 0
        assert is_connected(rg)
        assert diameter(rg) == 0
        assert frozen_sets(rg) == []

    def test_star_k3(self):
        rg = build_reconfig_graph(star(3), 3)
        assert rg.num_nodes == 8
        assert rg.num_edges == 9
        assert rg.num_components == 2
        assert frozen_sets(rg) == [frozenset({1, 2, 3})]

    def test_nodes_in_canonical_order(self):
        rg = build_reconfig_graph(cycle(4), 3)
        sizes = [m.bit_count() for m in rg.nodes]
        assert sizes == sorted(sizes)
        # within a size class, bitmask combinations arrive lexicographically
        pairs = [m for m in rg.nodes if m.bit_count() == 2]
        assert pairs == [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]

    def test_index_seeded_by_the_build(self):
        # index_of reuses the build's dict; equality and repr ignore it
        rg = build_reconfig_graph(cycle(4), 3)
        assert "_index" in vars(rg)
        assert rg._index == {mask: i for i, mask in enumerate(rg.nodes)}
        fresh = dataclasses.replace(rg)
        assert "_index" not in vars(fresh)
        assert fresh == rg and repr(fresh) == repr(rg)
        assert fresh.index_of({0, 2}) == rg.index_of({0, 2}) == 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_reconfig_graph(path(3), -1)

    def test_limits(self):
        with pytest.raises(LimitError, match="n <= 20"):
            build_reconfig_graph(Graph(21, [(v, v + 1) for v in range(20)]), 2)
        with pytest.raises(LimitError, match="exceeds the cap"):
            # C(23, <= 23) = 2**23 subsets exceed the cap of 2**22
            build_reconfig_graph(path(23), 23, limit=23)


class TestAgainstNaiveReconfigGraph:
    """nodes and adj agree with R_k built from its definition, every k."""

    @staticmethod
    def check(g):
        for k in range(g.n + 2):
            rg = build_reconfig_graph(g, k)
            assert (rg.nodes, rg.adj) == helpers.naive_reconfig_graph(g, k)

    def test_connected_atlas(self, atlas_connected):
        for n in range(1, 7):
            for g in atlas_connected[n]:
                self.check(g)

    def test_seeded_graphs(self):
        for g in helpers.seeded_small_graphs(10):
            self.check(g)


class TestDistance:
    def test_same_component(self):
        rg = build_reconfig_graph(path(3), 3)
        assert distance(rg, {0, 2}, {1}) == 3
        assert distance(rg, {1}, {1}) == 0
        assert distance(rg, {1}, {0, 1}) == 1

    def test_across_components(self):
        rg = build_reconfig_graph(path(3), 2)
        assert distance(rg, {0, 2}, {1}) == math.inf

    def test_unknown_node(self):
        rg = build_reconfig_graph(path(3), 2)
        with pytest.raises(ValueError, match="not a node of R_2"):
            rg.index_of({0})
        with pytest.raises(ValueError, match="not a node"):
            distance(rg, {0, 1, 2}, {1})


@pytest.fixture(params=["dense", "explicit", "switching"])
def lattice_route(request, monkeypatch):
    """SubsetLattice searches on 2**n-bit families only (cap 0), on explicit
    sets only (a cap no search reaches), or switching from explicit sets to
    families after 0 to 4 sets for n <= 6."""
    cap = {"dense": 0, "explicit": 1 << 40, "switching": 1 << 18}[request.param]
    monkeypatch.setattr(oracle, "_SPARSE_CAP", cap)
    return request.param


class TestSubsetLattice:
    """The lattice route agrees with R_k built from its definition."""

    @staticmethod
    def check(g, rng=None):
        # every ordered pair of nodes without rng, else 3 random pairs and
        # one across components
        for k in range(g.n + 2):
            lat = SubsetLattice(g, k)
            nodes, adj = helpers.naive_reconfig_graph(g, k)
            comp, ncomp = helpers.naive_label_components(adj)
            assert (lat.num_nodes, lat.num_edges, lat.num_components) == (
                len(nodes),
                sum(map(len, adj)) // 2,
                ncomp,
            )
            assert is_connected(lat) == (ncomp <= 1)
            assert frozen_sets(lat) == [
                set_of(mask) for mask, row in zip(nodes, adj) if not row
            ]
            if not nodes:
                continue
            sets = [set_of(mask) for mask in nodes]
            if rng is None:
                for i, a in enumerate(sets):
                    want = helpers.naive_distances(adj, i)
                    assert [distance(lat, a, b) for b in sets] == want
                continue
            pairs = [(rng.randrange(len(nodes)), rng.randrange(len(nodes))) for _ in range(3)]
            # a pair across components, so the fill that misses B is checked
            pairs.append((0, comp.index(ncomp - 1)))
            for i, j in pairs:
                assert distance(lat, sets[i], sets[j]) == helpers.naive_distance(adj, i, j)

    def test_connected_atlas(self, atlas_connected):
        rng = random.Random(11)
        for n in range(1, 7):
            for g in atlas_connected[n]:
                self.check(g, rng)

    def test_seeded_graphs(self):
        rng = random.Random(12)
        for g in helpers.seeded_small_graphs(10):
            self.check(g, rng)

    def test_every_pair_on_each_route(self, atlas_connected, lattice_route):
        # a == b, pairs across components (inf) and k >= n included
        graphs = [g for n in range(1, 6) for g in atlas_connected[n]]
        graphs += helpers.seeded_small_graphs(13, max_n=6)
        for g in graphs:
            self.check(g)

    def test_edgeless_graphs_on_each_route(self, lattice_route):
        # only V dominates: R_k is empty below k = n and else V alone, frozen
        # at k > n too, since V is minimal and no vertex is left to add
        for n in range(1, 9):
            g = Graph(n, [])
            for k in range(n + 3):
                lat = SubsetLattice(g, k)
                nodes, adj = helpers.naive_reconfig_graph(g, k)
                assert nodes == ((1 << n) - 1,) * (k >= n)
                assert lat.num_components == helpers.naive_label_components(adj)[1]
                assert frozen_sets(lat) == [frozenset(range(n))] * (k >= n)

    def test_empty_and_full_budgets(self):
        # n = 1: R_0 is empty, and at k >= n the one node V is isolated
        lat = SubsetLattice(Graph(1, []), 0)
        assert (lat.num_nodes, lat.num_edges, lat.num_components) == (0, 0, 0)
        assert is_connected(lat) and frozen_sets(lat) == []
        for k in (1, 2):
            lat = SubsetLattice(Graph(1, []), k)
            assert (lat.num_nodes, lat.num_components) == (1, 1)
            assert frozen_sets(lat) == [frozenset({0})]
            assert distance(lat, {0}, {0}) == 0

    @pytest.mark.parametrize(
        "g,ks",
        [(gen_mynhardt(3), (3, 4, 5, 10)), (gen_mynhardt(4), (6, 7)), (gen_grid(4, 5), (8,))],
        ids=["mynhardt3", "mynhardt4", "grid4x5"],
    )
    def test_against_the_node_list(self, g, ks):
        for k in ks:
            rg = build_reconfig_graph(g, k)
            lat = SubsetLattice(g, k)
            assert (lat.num_nodes, lat.num_edges, lat.num_components) == (
                rg.num_nodes,
                rg.num_edges,
                rg.num_components,
            )
            assert frozen_sets(lat) == frozen_sets(rg)
            first, last = set_of(rg.nodes[0]), set_of(rg.nodes[-1])
            assert distance(lat, first, last) == distance(rg, first, last)

    def test_frozen_in_canonical_order(self):
        # C4 at k = 2: six isolated pairs, {0,3} before {1,2} though 9 > 6
        lat = SubsetLattice(cycle(4), 2)
        assert lat.num_components == 6
        assert [sorted(s) for s in frozen_sets(lat)] == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
        ]

    def test_unknown_node_and_limits(self):
        lat = SubsetLattice(path(3), 2)
        with pytest.raises(ValueError, match="set \\[1\\] is not a node of R_2"):
            distance(lat, {0}, {1})
        with pytest.raises(ValueError, match="nonnegative"):
            SubsetLattice(path(3), -1)
        with pytest.raises(LimitError, match="n <= 20"):
            SubsetLattice(path(21), 2)
        # 2**23 subsets exceed the default cap, checked before any family
        assert oracle.LATTICE_MAX_N == 22
        with pytest.raises(LimitError, match="lattice needs n <= 22, got 23"):
            SubsetLattice(path(23), 2, limit=23)


def record_calls(monkeypatch, name) -> list[str]:
    """The list to which every call of oracle.<name> adds name."""
    calls = []
    real = getattr(oracle, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


class TestSparseCost:
    """Searches that touch few sets make no 2**n-bit round."""

    def test_benchmark_distance_makes_no_family_round(self, capsys, monkeypatch, tmp_path):
        # an oracle-query request: A and B add two vertices each to one
        # minimum dominating set C of the 4x5 grid, so |A ^ B| = 4
        g = gen_grid(4, 5)
        core = exact_invariants(g).witness_min_ds
        a, b = core | {1, 3}, core | {4, 5}
        assert not core & {1, 3, 4, 5} and len(a) == len(b) == 8
        graph = tmp_path / "grid.gr"
        assert cli.main(["gen", "--family", "grid", "--param", "4", "5", "-o", str(graph)]) == 0
        calls = record_calls(monkeypatch, "_moves")
        argv = ["oracle", str(graph), "--k", "8", "--distance"]
        assert cli.main(argv + [format_vertex_list(a), format_vertex_list(b)]) == 0
        assert capsys.readouterr().out.endswith("distance 4\n")
        assert calls == []

    def test_small_components_fill_without_sweeps(self, monkeypatch):
        # the 3x7 grid at k = 7: 611 frozen sets and 7 components of 16 to
        # 46 sets, each found by an explicit search
        calls = record_calls(monkeypatch, "_fill")
        lat = SubsetLattice(gen_grid(3, 7), 7, limit=21)
        assert (lat.num_nodes, lat.num_components, len(frozen_sets(lat))) == (783, 618, 611)
        assert calls == []


def atlas_reconfig_graphs(atlas_connected):
    """R_k for every connected graph with n <= 5 and gamma <= k <= n."""
    for n in range(1, 6):
        for g in atlas_connected[n]:
            for k in range(exact_invariants(g).gamma_min, n + 1):
                yield build_reconfig_graph(g, k)


def naive_diameters(adj) -> tuple[int, int | float]:
    """(max component diameter, diameter) by one deque BFS per node."""
    _comp, ncomp = helpers.naive_label_components(adj)
    widest = max((helpers.naive_eccentricity(adj, s) for s in range(len(adj))), default=0)
    return widest, (widest if ncomp <= 1 else math.inf)


@functools.cache
def seeded_reconfig_graphs():
    """(R_k, naive_diameters) for gamma <= k <= n on the seeded small graphs
    up to n = 7: edgeless, complete, split in two halves and random."""
    cases = []
    for g in helpers.seeded_small_graphs(10, max_n=7):
        for k in range(exact_invariants(g).gamma_min, g.n + 1):
            rg = build_reconfig_graph(g, k)
            cases.append((rg, naive_diameters(rg.adj)))
    return cases


def peripheral_last(rg):
    """rg with its nodes reordered by eccentricity, the peripheral ones last."""
    ecc = [helpers.naive_eccentricity(rg.adj, s) for s in range(rg.num_nodes)]
    order = sorted(range(rg.num_nodes), key=ecc.__getitem__)
    new = {old: i for i, old in enumerate(order)}
    return dataclasses.replace(
        rg,
        nodes=tuple(rg.nodes[old] for old in order),
        adj=tuple(tuple(sorted(new[w] for w in rg.adj[old])) for old in order),
        comp=tuple(rg.comp[old] for old in order),
    )


def record_blocks(monkeypatch) -> list[int]:
    """The list to which every block that _block_rounds runs adds its size."""
    sizes = []
    real = oracle._block_rounds

    def recorded(sources, *rest):
        sizes.append(len(sources))
        return real(sources, *rest)

    monkeypatch.setattr(oracle, "_block_rounds", recorded)
    return sizes


def force_blocks(monkeypatch, block) -> list[int]:
    """Blocks of at most `block` sources, whatever the row budget allows."""
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_ROW_BUDGET", 0)
    return record_blocks(monkeypatch)


def assert_even_blocks(sizes, num_nodes, block):
    # ceil(N / block) blocks, which cover the N sources and differ by at most 1
    assert len(sizes) == -(-num_nodes // block)
    assert sum(sizes) == num_nodes
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


class TestAgainstNaiveBFS:
    """The level-by-level and bit-parallel BFS agree with the deque BFS on small R_k."""

    def test_every_connected_graph_up_to_five(self, atlas_connected):
        checked = 0
        for rg in atlas_reconfig_graphs(atlas_connected):
            comp, ncomp = helpers.naive_label_components(rg.adj)
            assert (rg.comp, rg.num_components) == (comp, ncomp)
            assert (max_component_diameter(rg), diameter(rg)) == naive_diameters(rg.adj)
            sets = [set_of(mask) for mask in rg.nodes]
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    want = helpers.naive_distance(rg.adj, i, j)
                    assert distance(rg, a, b) == want
            checked += 1
        assert checked == 126

    @pytest.mark.parametrize("block", [1, 3])
    def test_source_blocks(self, atlas_connected, monkeypatch, block):
        # blocks of 1 and 3 straddle components, and blocks of 3 split
        # unevenly; sorting by eccentricity puts the peripheral nodes in
        # the last block
        sizes = force_blocks(monkeypatch, block)
        checked = 0
        for rg in atlas_reconfig_graphs(atlas_connected):
            want = naive_diameters(rg.adj)
            for view in (rg, peripheral_last(rg)):
                sizes.clear()
                assert max_component_diameter(view) == want[0]
                assert_even_blocks(sizes, rg.num_nodes, block)
                assert diameter(view) == want[1]
            checked += 1
        assert checked == 126

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_wide_and_narrow_rounds(self, monkeypatch, block):
        # compress runs only in wide rounds and reduce only in narrow ones,
        # so counting their calls shows that each block size ran both kinds
        sizes = force_blocks(monkeypatch, block)
        calls = collections.Counter()

        def counted(kind, real):
            def call(*args):
                calls[kind] += 1
                return real(*args)

            return call

        monkeypatch.setattr(oracle, "compress", counted("wide", oracle.compress))
        monkeypatch.setattr(oracle, "reduce", counted("narrow", oracle.reduce))
        cases = seeded_reconfig_graphs()
        assert any(not row for rg, _ in cases for row in rg.adj)
        assert any(rg.num_components > 1 for rg, _ in cases)
        for rg, want in cases:
            sizes.clear()
            assert max_component_diameter(rg) == want[0]
            assert_even_blocks(sizes, rg.num_nodes, block)
            assert diameter(rg) == want[1]
        assert calls["wide"] and calls["narrow"]

    @pytest.mark.parametrize(
        "num_nodes,want",
        [
            (1, [1]),
            (2048, [2048]),
            (2049, [1024, 1025]),
            (4096, [1024] * 4),
            (22994, [999] * 6 + [1000] * 17),
        ],
    )
    def test_block_rule(self, monkeypatch, num_nodes, want):
        # up to 2,048 nodes run one block; above 4,096, blocks of about 1,024
        sizes = record_blocks(monkeypatch)
        assert oracle._eccentricities(((),) * num_nodes) == 0
        assert sorted(sizes) == want

    def test_mynhardt4_r5_runs_two_blocks(self, monkeypatch):
        # R_5 of the oracle-scan workload (2,414 nodes): two blocks of 1,207
        rg = build_reconfig_graph(gen_mynhardt(4), 5)
        sizes = record_blocks(monkeypatch)
        assert max_component_diameter(rg) == 10
        assert sizes == [1207, 1207]

    def test_kernel_memory_mynhardt4_r5(self):
        # R_5 is the largest R_k of the oracle-scan benchmark workload. The
        # frontier-loop kernel alone peaked at 1,001,940 traced bytes here;
        # the bound allows half as much again, so that the kernel cannot
        # quietly push that workload's peak_mb towards its bound. Two blocks
        # of 1,207 sources peak at 1,489,048 bytes on Python 3.11
        rg = build_reconfig_graph(gen_mynhardt(4), 5)
        tracemalloc.start()
        try:
            assert max_component_diameter(rg) == 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 1_001_940

    def test_scan_mynhardt3_to_k8(self):
        g = gen_mynhardt(3)
        report = threshold_scan(g, 8)
        assert [r.k for r in report.records] == list(range(3, 9))
        for rec in report.records:
            adj = build_reconfig_graph(g, rec.k).adj
            assert rec.num_components == helpers.naive_label_components(adj)[1]
            assert (rec.max_component_diameter, rec.diameter) == naive_diameters(adj)


class TestThresholdScan:
    def test_path3(self):
        report = threshold_scan(path(3), 3)
        assert report.gamma == 1
        assert report.gamma_upper == 2
        assert report.kmax == 3
        assert [r.k for r in report.records] == [1, 2, 3]
        by_k = {r.k: r for r in report.records}
        assert (by_k[1].num_nodes, by_k[1].num_edges, by_k[1].connected) == (1, 0, True)
        assert (by_k[2].num_nodes, by_k[2].num_edges, by_k[2].connected) == (
            4,
            2,
            False,
        )
        assert by_k[2].num_components == 2
        assert by_k[2].diameter == math.inf
        assert by_k[2].max_component_diameter == 2
        assert (by_k[3].num_nodes, by_k[3].num_edges, by_k[3].connected) == (5, 5, True)
        assert by_k[3].diameter == 3
        assert report.d0_empirical == 3

    def test_star_window_end_disconnected(self):
        # kmax = 3 ends on a disconnected record: the threshold is not visible
        report = threshold_scan(star(3), 3)
        assert [r.connected for r in report.records] == [True, True, False]
        assert report.d0_empirical is None

    def test_star_full_window(self):
        report = threshold_scan(star(3), 4)
        assert [r.connected for r in report.records] == [True, True, False, True]
        assert report.d0_empirical == 4

    def test_cycle4(self):
        report = threshold_scan(cycle(4), 3)
        assert report.gamma == 2
        assert report.gamma_upper == 2
        by_k = {r.k: r for r in report.records}
        # six dominating pairs, all isolated at k = 2
        assert (by_k[2].num_nodes, by_k[2].num_edges, by_k[2].num_components) == (
            6,
            0,
            6,
        )
        assert (by_k[3].num_nodes, by_k[3].num_edges, by_k[3].connected) == (
            10,
            12,
            True,
        )
        assert report.d0_empirical == 3

    def test_one_listing_equals_the_per_k_route(self, atlas_connected, monkeypatch):
        # every record equals R_k built and measured on its own, and each
        # scan walks the dominating sets once, for R_kmax
        walks = []
        real = oracle.dominating_subsets
        monkeypatch.setattr(
            oracle, "dominating_subsets", lambda g, k: walks.append(k) or real(g, k)
        )
        scans = 0
        for n in range(1, 7):
            for g in atlas_connected[n]:
                gamma = exact_invariants(g).gamma_min
                want = []
                for k in range(gamma, n + 1):
                    rg = build_reconfig_graph(g, k)
                    want.append(ThresholdRecord(
                        k=k,
                        num_nodes=rg.num_nodes,
                        num_edges=rg.num_edges,
                        num_components=rg.num_components,
                        connected=is_connected(rg),
                        diameter=diameter(rg),
                        max_component_diameter=max_component_diameter(rg),
                    ))
                for kmax in range(gamma, n + 1):
                    walks.clear()
                    report = threshold_scan(g, kmax)
                    assert walks == [kmax]
                    assert report.records == tuple(want[: kmax - gamma + 1])
                    scans += 1
        assert scans == 718

    def test_kmax_bound(self):
        with pytest.raises(ValueError, match="kmax must be at most"):
            threshold_scan(path(3), 4)

    def test_mynhardt4_pinned_records(self):
        # (nodes, edges, components, max component diameter), computed
        # independently with scipy shortest_path
        report = threshold_scan(gen_mynhardt(4), 6)
        by_k = {
            r.k: (r.num_nodes, r.num_edges, r.num_components, r.max_component_diameter)
            for r in report.records
        }
        assert by_k[5] == (2414, 4173, 2, 10)
        assert by_k[6] == (9132, 29289, 2, 12)
