import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from domrecon import general, minor_sparse, sequences, treewidth
from domrecon.graphs import Graph, exact_invariants
from domrecon.sequences import (
    BAD_MOVE,
    NOT_DOMINATING,
    SIZE_EXCEEDS_K,
    Move,
    ReconfigSequence,
    SequenceFormatError,
    add_then_remove,
    check_endpoints,
    format_sequence,
    parse_sequence,
    reverse_sequence,
    verify_sequence,
)


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


class TestMoves:
    def test_constructors_and_repr(self):
        assert repr(Move.add(2)) == "+2"
        assert repr(Move.remove(0)) == "-0"
        with pytest.raises(ValueError, match="move kind"):
            Move("swap", 1)

    def test_flipped(self):
        assert Move.add(3).flipped() == Move.remove(3)
        assert Move.remove(3).flipped() == Move.add(3)

    def test_shared_instances(self):
        # one Move per (kind, vertex), equal and hashing like a fresh one
        assert Move.add(2) is Move.add(2)
        assert Move.remove(2) is Move.remove(2)
        assert Move.add(2).flipped() is Move.remove(2)
        assert Move.remove(2).flipped() is Move.add(2)
        fresh = Move("add", 2)
        assert fresh is not Move.add(2)
        assert fresh == Move.add(2) and hash(fresh) == hash(Move.add(2))
        assert Move.add(2) != Move.remove(2) and Move.add(2) != Move.add(3)
        assert len({Move.add(2), fresh, Move.remove(2)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            Move.add(2).vertex = 5

    def test_parsed_moves_are_shared(self):
        n = 40
        lines = ["s tar 40 10000", "d " + " ".join(str(v) for v in range(1, n + 1))]
        for i in range(5000):
            v = i * 7 % n + 1
            lines += [f"- {v}", f"+ {v}"]
        seq = parse_sequence("\n".join(lines) + "\n")
        assert len(seq.moves) == 10_000
        assert len({id(mv) for mv in seq.moves}) <= 2 * n
        assert seq.end == frozenset(range(n))
        assert parse_sequence(format_sequence(seq)) == seq

    def test_apply(self):
        def end(start, move):
            return ReconfigSequence(frozenset(start), (move,), 3).end

        assert end({1}, Move.add(0)) == {0, 1}
        assert end({0, 1}, Move.remove(0)) == {1}
        with pytest.raises(ValueError, match=r"^cannot add 1: already present$"):
            end({1}, Move.add(1))
        with pytest.raises(ValueError, match=r"^cannot remove 0: not present$"):
            end({1}, Move.remove(0))


class TestSequenceAlgebra:
    def test_end_and_states(self):
        seq = ReconfigSequence(
            frozenset({0, 2}), (Move.add(1), Move.remove(0), Move.remove(2)), 3
        )
        assert len(seq) == 3
        assert seq.end == {1}
        assert list(helpers.naive_states(seq)) == [{0, 2}, {0, 1, 2}, {1, 2}, {1}]

    def test_zero_length(self):
        seq = ReconfigSequence(frozenset({1}), (), 2)
        assert len(seq) == 0
        assert seq.end == seq.start
        assert list(helpers.naive_states(seq)) == [{1}]

    def test_from_vertices_orders_moves(self):
        seq = ReconfigSequence(
            frozenset({0, 2}), add_then_remove(adds=[3, 1], removes=[2, 0]), 4
        )
        assert seq.moves == (
            Move.add(1),
            Move.add(3),
            Move.remove(0),
            Move.remove(2),
        )
        assert seq.end == {1, 3}

    def test_concat(self):
        a = ReconfigSequence(frozenset({0, 2}), (Move.add(1),), 3)
        b = ReconfigSequence(frozenset({0, 1, 2}), (Move.remove(0),), 3)
        both = a + b
        assert both.start == {0, 2}
        assert both.end == {1, 2}
        assert len(both) == 2

    def test_concat_rejects_mismatch(self):
        a = ReconfigSequence(frozenset({0}), (), 3)
        with pytest.raises(ValueError, match="k=3 and k=2"):
            a + ReconfigSequence(frozenset({0}), (), 2)
        with pytest.raises(ValueError, match="end of first differs"):
            a + ReconfigSequence(frozenset({1}), (), 3)

    def test_malformed_end_raises_on_every_access(self):
        seq = ReconfigSequence(frozenset({0}), (Move.remove(1),), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^cannot remove 1: not present$"):
                seq.end
        with pytest.raises(ValueError, match="not present"):
            seq + ReconfigSequence(frozenset({0}), (), 3)
        with pytest.raises(ValueError, match="not present"):
            reverse_sequence(seq)

    def test_end_is_replayed_once(self):
        replayed = []

        class Moves(tuple):
            # the replay is the one reader that iterates a sequence's moves
            def __iter__(self):
                replayed.extend(super().__iter__())
                return super().__iter__()

        a = ReconfigSequence(frozenset({0, 2}), Moves((Move.add(1), Move.remove(0))), 3)
        assert "end" not in a.__dict__
        assert a.end == {1, 2} and a.end == {1, 2}
        assert len(replayed) == 2
        # reversing and joining hand the known ends on
        rev = reverse_sequence(a)
        assert a + rev == ReconfigSequence(a.start, a.moves + rev.moves, 3)
        assert (a + rev).end == a.start and rev.end == a.start
        assert "end" in rev.__dict__ and "end" in (a + rev).__dict__
        assert len(replayed) == 2
        tracked = ReconfigSequence.tracked(frozenset({1, 2}), (Move.remove(2),), 3, {1})
        assert (a + tracked).end == {1} and len(replayed) == 2
        assert tracked == ReconfigSequence(frozenset({1, 2}), (Move.remove(2),), 3)
        # an end not known yet is replayed by whoever asks first
        b = ReconfigSequence(frozenset({1, 2}), Moves((Move.add(0),)), 3)
        joined = a + b
        assert "end" not in joined.__dict__ and len(replayed) == 2
        assert joined.end == {0, 1, 2} and "end" in joined.__dict__

    def test_reverse(self):
        seq = ReconfigSequence(frozenset({0, 2}), (Move.add(1), Move.remove(0)), 3)
        rev = reverse_sequence(seq)
        assert rev.start == seq.end == {1, 2}
        assert rev.moves == (Move.add(0), Move.remove(1))
        assert rev.end == seq.start
        back = rev.reversed()
        assert back.start == seq.start and back.moves == seq.moves


class TestWalkHelpers:
    def test_add_then_remove_order(self):
        assert add_then_remove({5, 1}, [4, 0]) == (
            Move.add(1), Move.add(5), Move.remove(0), Move.remove(4)
        )
        assert add_then_remove(removes={2}) == (Move.remove(2),)
        assert add_then_remove() == ()

    def test_check_endpoints(self):
        g = path(3)
        check_endpoints(g, {1}, {0, 2}, 2)
        with pytest.raises(ValueError, match="ds is not a dominating set"):
            check_endpoints(g, {0}, {0, 1, 2}, 2)
        with pytest.raises(ValueError, match=r"dt has size 3 > k = 2"):
            check_endpoints(g, {1}, {0, 1, 2}, 2)
        # ds before dt, domination before size
        with pytest.raises(ValueError, match="ds has size 3"):
            check_endpoints(g, {0, 1, 2}, {0}, 2)
        # range before domination: _closed[-2] is the middle vertex's row
        with pytest.raises(ValueError, match=r"dt has a vertex outside 0\.\.2"):
            check_endpoints(g, {1}, {-2}, 2)

    def test_every_transform_checks_its_endpoints(self, monkeypatch):
        class Checked(Exception):
            pass

        def stop(g, ds, dt, k):
            raise Checked(k)

        for module in (general, minor_sparse, treewidth):
            assert module.check_endpoints is sequences.check_endpoints
            monkeypatch.setattr(module, "check_endpoints", stop)
        g = path(3)
        td = treewidth.TreeDecomposition(
            3, (frozenset({0, 1}), frozenset({1, 2})), ((0, 1),), root=1
        )
        transforms = [
            lambda: general.general_transform(g, {1}, {0, 2}, exact_invariants(g)),
            lambda: minor_sparse.minor_sparse_transform(g, {1}, {0, 2}, 2, 2),
            lambda: treewidth.treewidth_transform(g, td, {1}, {0, 2}, 2),
        ]
        for transform in transforms:
            with pytest.raises(Checked):
                transform()


class TestVerify:
    def test_valid(self):
        g = path(3)
        seq = ReconfigSequence(
            frozenset({0, 2}), (Move.add(1), Move.remove(0), Move.remove(2)), 3
        )
        report = verify_sequence(g, seq, expected_end={1})
        assert report.valid
        assert report.violation_index is None
        assert report.length == 3
        assert report.max_size == 3
        assert report.end == {1}
        assert report.end_matches is True
        assert report.k == 3
        assert "valid: length=3 max_size=3 k=3" in report.describe()

    def test_end_mismatch_is_not_invalidity(self):
        g = path(3)
        seq = ReconfigSequence(frozenset({1}), (), 3)
        report = verify_sequence(g, seq, expected_end={0, 1})
        assert report.valid
        assert report.end_matches is False
        assert "end_matches=False" in report.describe()

    def test_no_expected_end(self):
        report = verify_sequence(path(3), ReconfigSequence(frozenset({1}), (), 1))
        assert report.valid and report.end_matches is None
        assert "end_matches" not in report.describe()

    def test_not_dominating_start(self):
        report = verify_sequence(path(3), ReconfigSequence(frozenset({0}), (), 2))
        assert not report.valid
        assert (report.violation_index, report.violation_reason) == (0, NOT_DOMINATING)

    def test_not_dominating_midway(self):
        g = path(3)
        seq = ReconfigSequence(
            frozenset({1}), (Move.add(0), Move.remove(1), Move.add(1)), 2
        )
        report = verify_sequence(g, seq)
        assert not report.valid
        assert (report.violation_index, report.violation_reason) == (2, NOT_DOMINATING)

    def test_size_budget(self):
        g = path(3)
        seq = ReconfigSequence(frozenset({0, 1, 2}), (), 2)
        report = verify_sequence(g, seq)
        assert (report.violation_index, report.violation_reason) == (0, SIZE_EXCEEDS_K)

    def test_k_override(self):
        g = path(3)
        seq = ReconfigSequence(
            frozenset({0, 2}), (Move.add(1), Move.remove(0), Move.remove(2)), 3
        )
        assert verify_sequence(g, seq).valid
        tight = verify_sequence(g, seq, k=2)
        assert not tight.valid
        assert (tight.violation_index, tight.violation_reason) == (1, SIZE_EXCEEDS_K)
        assert tight.k == 2

    def test_first_violation_wins(self):
        g = path(3)
        # step 1 exceeds k, step 3 breaks domination; only step 1 is reported
        seq = ReconfigSequence(
            frozenset({0, 1}),
            (Move.add(2), Move.remove(0), Move.remove(1), Move.add(1)),
            2,
        )
        report = verify_sequence(g, seq)
        assert (report.violation_index, report.violation_reason) == (1, SIZE_EXCEEDS_K)
        # replay continued to the end regardless
        assert report.end == {1, 2}

    def test_bad_move_stops_replay(self):
        g = path(3)
        seq = ReconfigSequence(
            frozenset({1}), (Move.add(1), Move.remove(0)), 3
        )
        report = verify_sequence(g, seq, expected_end={0})
        assert not report.valid
        assert (report.violation_index, report.violation_reason) == (1, BAD_MOVE)
        assert report.end is None
        assert report.end_matches is None
        assert report.max_size == 1

    @pytest.mark.parametrize(
        "start, moves, index",
        [
            ({1}, (Move.add(5),), 1),
            ({7}, (), 0),
            ({1}, (Move.add(-1),), 1),
        ],
    )
    def test_out_of_range_vertex_is_a_bad_move(self, start, moves, index):
        seq = ReconfigSequence(frozenset(start), moves + (Move.add(0),), 3)
        report = verify_sequence(path(3), seq, expected_end={0, 1})
        assert not report.valid
        assert (report.violation_index, report.violation_reason) == (index, BAD_MOVE)
        assert report.end is None
        assert report.end_matches is None
        assert report.max_size == 1


def same_report(g, seq, expected_end=None, k=None):
    """verify_sequence equals the frozenset replay field for field."""
    got = verify_sequence(g, seq, expected_end=expected_end, k=k)
    want = helpers.naive_verify_sequence(g, seq, expected_end=expected_end, k=k)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


@st.composite
def sequences_on_small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, sorted(edges))
    start = frozenset(draw(st.sets(st.integers(0, n - 1))))
    # mostly toggles, which are valid moves; a flip of the kind is a bad move
    current = set(start)
    moves = []
    for v, bad in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 9)), max_size=30)
    ):
        mv = Move.remove(v) if v in current else Move.add(v)
        if bad == 0:
            mv = mv.flipped()
        moves.append(mv)
        current ^= {v}
    k = draw(st.integers(0, n))
    return g, ReconfigSequence(start, tuple(moves), k)


class TestVerifyAgainstNaive:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(sequences_on_small_graphs(), st.data())
    def test_random_sequences(self, case, data):
        g, seq = case
        expected = data.draw(
            st.one_of(st.none(), st.sets(st.integers(0, g.n - 1)).map(frozenset))
        )
        k = data.draw(st.one_of(st.none(), st.integers(0, g.n)))
        report = same_report(g, seq, expected_end=expected, k=k)
        if report.end is None:
            # the replay stopped at a bad move; end raises the same error
            with pytest.raises(ValueError) as replayed:
                list(helpers.naive_states(seq))
            with pytest.raises(ValueError, match=f"^{replayed.value}$"):
                seq.end
        else:
            assert seq.end == report.end
            same_report(g, seq, expected_end=report.end, k=k)

    @pytest.mark.parametrize(
        "start, moves, k, expected_end, index, reason",
        [
            # bad move at index 1, then later, after a size violation
            ({1}, [Move.add(1)], 3, {1}, 1, BAD_MOVE),
            ({1}, [Move.add(0), Move.add(2), Move.remove(0), Move.remove(0)], 3,
             None, 4, BAD_MOVE),
            ({1}, [Move.add(0), Move.add(2), Move.add(0)], 2, None, 2, SIZE_EXCEEDS_K),
            # size > k at index 0, and a non-dominating start
            ({0, 1, 2}, [Move.remove(0)], 2, {1, 2}, 0, SIZE_EXCEEDS_K),
            ({0}, [Move.add(2)], 2, {0, 2}, 0, NOT_DOMINATING),
            # end_matches None, True, False on valid sequences
            ({1}, [Move.add(0)], 2, None, None, None),
            ({1}, [Move.add(0)], 2, {0, 1}, None, None),
            ({1}, [Move.add(0)], 2, {1}, None, None),
        ],
    )
    def test_cases(self, start, moves, k, expected_end, index, reason):
        seq = ReconfigSequence(frozenset(start), tuple(moves), k)
        report = same_report(path(3), seq, expected_end=expected_end)
        assert (report.violation_index, report.violation_reason) == (index, reason)
        if reason is not None:
            return
        assert report.end_matches == (
            None if expected_end is None else report.end == frozenset(expected_end)
        )

    def test_end_matches_values(self):
        seq = ReconfigSequence(frozenset({1}), (Move.add(0),), 2)
        assert [
            same_report(path(3), seq, expected_end=e).end_matches
            for e in (None, {0, 1}, {1})
        ] == [None, True, False]


class TestSequenceFormat:
    def test_parse(self):
        seq = parse_sequence("c demo\ns tar 3 3\nd 1 3\n+ 2\n- 1\n- 3\n")
        assert seq.k == 3
        assert seq.start == {0, 2}
        assert seq.moves == (Move.add(1), Move.remove(0), Move.remove(2))

    def test_roundtrip(self):
        seq = ReconfigSequence(
            frozenset({0, 2}), (Move.add(1), Move.remove(0), Move.remove(2)), 3
        )
        text = format_sequence(seq, comments=["k 3"])
        assert text.splitlines()[0] == "c k 3"
        again = parse_sequence(text)
        assert again == seq

    def test_empty_start_set_roundtrip(self):
        # an empty 'd' line is legal: the sequence just starts at the empty set
        seq = ReconfigSequence(frozenset(), (Move.add(0),), 1)
        assert parse_sequence(format_sequence(seq)) == seq

    @pytest.mark.parametrize(
        "text,line,match",
        [
            ("d 1\ns tar 2 0\n", 1, "start set before header"),
            ("s tar 2 0\ns tar 2 0\nd 1\n", 2, "duplicate header"),
            ("s tar 2\nd 1\n", 1, "header must be"),
            ("s tar x 0\nd 1\n", 1, "non-integer"),
            ("s tar -1 0\nd 1\n", 1, "negative header"),
            ("s tar 2 0\nd 1\nd 2\n", 3, "duplicate start set"),
            ("s tar 2 0\nd 1 1\n", 2, "repeated vertex"),
            ("s tar 2 0\nd 0\n", 2, "1-based"),
            ("s tar 2 1\n+ 1\n", 2, "move before start set"),
            ("s tar 2 1\nd 1\n+ 1 2\n", 3, "move line must be"),
            ("s tar 2 1\nd 1\n+ x\n", 3, "non-integer"),
            ("s tar 2 1\nd 1\n* 2\n", 3, "unknown line type"),
        ],
    )
    def test_parse_errors_carry_line(self, text, line, match):
        with pytest.raises(SequenceFormatError, match=match) as info:
            parse_sequence(text)
        assert info.value.line == line

    def test_parse_errors_without_line(self):
        with pytest.raises(SequenceFormatError, match="missing 's tar' header"):
            parse_sequence("c nothing\n")
        with pytest.raises(SequenceFormatError, match="missing 'd' start set"):
            parse_sequence("s tar 2 0\n")
        with pytest.raises(SequenceFormatError, match="declares 2 moves but 1"):
            parse_sequence("s tar 2 2\nd 1\n+ 2\n")
