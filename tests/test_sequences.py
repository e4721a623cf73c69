import pytest

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
    apply_move,
    check_endpoints,
    format_sequence,
    parse_sequence,
    reverse_sequence,
    sequence_from_vertices,
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

    def test_apply(self):
        assert apply_move(frozenset({1}), Move.add(0)) == {0, 1}
        assert apply_move(frozenset({0, 1}), Move.remove(0)) == {1}
        with pytest.raises(ValueError, match="already present"):
            apply_move(frozenset({1}), Move.add(1))
        with pytest.raises(ValueError, match="not present"):
            apply_move(frozenset({1}), Move.remove(0))


class TestSequenceAlgebra:
    def test_end_and_states(self):
        seq = ReconfigSequence(
            frozenset({0, 2}), (Move.add(1), Move.remove(0), Move.remove(2)), 3
        )
        assert len(seq) == 3
        assert seq.end == {1}
        assert list(seq.states()) == [{0, 2}, {0, 1, 2}, {1, 2}, {1}]

    def test_zero_length(self):
        seq = ReconfigSequence(frozenset({1}), (), 2)
        assert len(seq) == 0
        assert seq.end == seq.start
        assert list(seq.states()) == [{1}]

    def test_from_vertices_orders_moves(self):
        seq = sequence_from_vertices({0, 2}, adds=[3, 1], removes=[2, 0], k=4)
        assert seq.moves == (
            Move.add(1),
            Move.add(3),
            Move.remove(0),
            Move.remove(2),
        )

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

    def test_reverse(self):
        seq = ReconfigSequence(frozenset({0, 2}), (Move.add(1), Move.remove(0)), 3)
        rev = reverse_sequence(seq)
        assert rev.start == seq.end == {1, 2}
        assert rev.moves == (Move.add(0), Move.remove(1))
        assert rev.end == seq.start
        back = reverse_sequence(rev)
        assert back.start == seq.start and back.moves == seq.moves


class TestWalkHelpers:
    def test_add_then_remove_order(self):
        assert add_then_remove({5, 1}, [4, 0]) == (
            Move.add(1), Move.add(5), Move.remove(0), Move.remove(4)
        )
        assert add_then_remove(removes={2}) == (Move.remove(2),)
        assert add_then_remove() == ()
        assert sequence_from_vertices({0}, {2, 1}, {0}, k=3).moves == (
            add_then_remove({1, 2}, {0})
        )

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
