"""Tests of the benchmark's independent checker.

Run with: python -m pytest bench/test_checker.py
The checker must accept correct outputs and reject each kind of wrong one.
"""

import pytest

import checker
from checker import CheckError, SimpleGraph

# the path 1-2-3-4-5-6 and a valid sequence from {1,3,5} to {2,4,6} at k = 4
PATH6 = SimpleGraph(6, [(i, i + 1) for i in range(5)])
SEQUENCE = "c comment\ns tar 4 6\nd 1 3 5\n+ 2\n- 1\n+ 4\n- 3\n+ 6\n- 5\n"
START, END = {0, 2, 4}, {1, 3, 5}

# K_{1,4}: centre 1, leaves 2..5; at k = 4 the leaf set is frozen
STAR4 = SimpleGraph(5, [(0, v) for v in range(1, 5)])
STAR4_QUERY = (
    "k 4\nnodes 16\nedges 28\ncomponents 2\nconnected false\n"
    "frozen 2,3,4,5\ndistance 2\n"
)


def test_accepts_valid_sequence():
    replay = checker.check_sequence(PATH6, SEQUENCE, START, END, 4, 10)
    assert (replay.length, replay.max_size) == (6, 4)


def test_rejects_one_move_flipped():
    flipped = SEQUENCE.replace("+ 4", "- 4")
    with pytest.raises(CheckError, match="not applicable"):
        checker.check_sequence(PATH6, flipped, START, END, 4, 10)


def test_rejects_flip_that_breaks_domination():
    # adding 2 before removing 1 is fine; removing 1 first leaves 1 undominated
    swapped = SEQUENCE.replace("+ 2\n- 1", "- 1\n+ 2")
    with pytest.raises(CheckError, match="not dominating"):
        checker.check_sequence(PATH6, swapped, START, END, 4, 10)


def test_rejects_sequence_over_budget():
    greedy = "s tar 4 6\nd 1 3 5\n+ 2\n+ 4\n- 1\n- 3\n+ 6\n- 5\n"
    with pytest.raises(CheckError, match="size 5 > k = 4"):
        checker.check_sequence(PATH6, greedy, START, END, 4, 10)


def test_rejects_wrong_budget_in_header():
    with pytest.raises(CheckError, match="header budget"):
        checker.check_sequence(PATH6, SEQUENCE, START, END, 5, 10)


def test_rejects_wrong_end():
    with pytest.raises(CheckError, match="does not end"):
        checker.check_sequence(PATH6, SEQUENCE, START, {0, 3, 5}, 4, 10)


def test_rejects_wrong_start_and_long_sequence():
    with pytest.raises(CheckError, match="does not start"):
        checker.check_sequence(PATH6, SEQUENCE, {1, 2, 4}, END, 4, 10)
    with pytest.raises(CheckError, match="above the bound"):
        checker.check_sequence(PATH6, SEQUENCE, START, END, 4, 5)


def test_rejects_header_length_mismatch():
    with pytest.raises(CheckError, match="header says"):
        checker.check_sequence(PATH6, SEQUENCE.replace("s tar 4 6", "s tar 4 7"),
                               START, END, 4, 10)


def test_subset_table_matches_known_counts():
    table = checker.SubsetTable(STAR4)
    assert (table.gamma, table.gamma_upper) == (1, 4)
    rk = table.rk(4)
    assert (rk.nodes, rk.edges, rk.components, rk.frozen) == (16, 28, 2, 1)
    myn3 = checker.SubsetTable(checker.mynhardt(3))
    counts = [(r.nodes, r.edges, r.components) for r in map(myn3.rk, (3, 4, 5))]
    assert counts == [(37, 0, 37), (170, 259, 2), (386, 1057, 1)]
    assert myn3.rk(5).diameter() == 10


def test_accepts_correct_query():
    facts = checker.SubsetTable(STAR4).rk(4)
    assert checker.check_query(STAR4, STAR4_QUERY, facts, {0, 1}, {0, 2}, False) == 2


@pytest.mark.parametrize(
    "wrong, message",
    [
        (STAR4_QUERY.replace("nodes 16", "nodes 15"), "nodes 15"),
        (STAR4_QUERY.replace("edges 28", "edges 27"), "edges 27"),
        (STAR4_QUERY.replace("components 2", "components 1"), "components 1"),
        (STAR4_QUERY.replace("frozen 2,3,4,5\n", ""), "frozen sets listed"),
        (STAR4_QUERY.replace("frozen 2,3,4,5", "frozen 1,2,3,4"), "not minimal"),
        (STAR4_QUERY.replace("distance 2", "distance 1"), "distance 1"),
    ],
)
def test_rejects_wrong_query_answer(wrong, message):
    facts = checker.SubsetTable(STAR4).rk(4)
    with pytest.raises(CheckError, match=message):
        checker.check_query(STAR4, wrong, facts, {0, 1}, {0, 2}, None)


def test_rejects_connectivity_against_threshold():
    facts = checker.SubsetTable(STAR4).rk(4)
    with pytest.raises(CheckError, match="threshold"):
        checker.check_query(STAR4, STAR4_QUERY, facts, {0, 1}, {0, 2}, True)


SCAN = (
    "gamma 3\ngamma-upper 3\nk nodes edges components connected diameter\n"
    "3 37 0 37 false inf\n4 170 259 2 false inf\n5 386 1057 1 true 10\n"
    "d0-empirical 5\n"
)


def test_scan_accepts_and_rejects_wrong_count():
    table = checker.SubsetTable(checker.mynhardt(3))
    facts = {k: table.rk(k) for k in (3, 4, 5)}
    thresholds = {3: False, 4: False, 5: True}
    assert checker.check_scan(SCAN, table, 5, facts, thresholds) == 10
    for wrong in (SCAN.replace("170 259", "171 259"), SCAN.replace("1 true 10", "1 true 9"),
                  SCAN.replace("d0-empirical 5", "d0-empirical 4")):
        with pytest.raises(CheckError):
            checker.check_scan(wrong, table, 5, facts, thresholds)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_mynhardt_closed_form_by_integer_programming(ell):
    g = checker.mynhardt(ell)
    gamma_upper, gamma, min_ds = checker.mynhardt_certificates(ell)
    assert checker.milp_gamma(g)[0] == gamma
    assert checker.milp_gamma_upper(g) == gamma_upper
    assert len(min_ds) == gamma and checker.is_dominating(g, min_ds)


def test_integer_programs_on_small_graphs():
    assert checker.milp_gamma(PATH6)[0] == 2
    assert checker.milp_gamma_upper(PATH6) == 3
    assert checker.milp_alpha(PATH6) == 3
    assert checker.milp_gamma_upper(STAR4) == 4


def test_decomposition_width_and_rejection():
    td = "s td 5 2 6\n" + "".join(f"b {i + 1} {i + 1} {i + 2}\n" for i in range(5))
    td += "".join(f"{i + 1} {i + 2}\n" for i in range(4))
    assert checker.read_td_width(td, PATH6) == 1
    broken = td.replace("b 3 3 4", "b 3 3 5")
    with pytest.raises(CheckError):
        checker.read_td_width(broken, PATH6)
