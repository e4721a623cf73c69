"""Token addition/removal sequences between dominating sets.

A sequence owns its budget k. Validity means: start set, every intermediate
set and the end set are dominating sets of size <= k, and each move adds an
absent vertex or removes a present one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    CoverCounts,
    FormatError,
    Graph,
    content_lines,
    greedy_removals,
    int_fields,
    is_dominating,
)

ADD = "add"
REMOVE = "remove"


class SequenceFormatError(FormatError):
    """Raised on malformed sequence files."""


@dataclass(frozen=True)
class Move:
    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in (ADD, REMOVE):
            raise ValueError(f"move kind must be {ADD!r} or {REMOVE!r}")

    @classmethod
    def add(cls, v: int) -> "Move":
        return cls(ADD, v)

    @classmethod
    def remove(cls, v: int) -> "Move":
        return cls(REMOVE, v)

    def flipped(self) -> "Move":
        return Move(REMOVE if self.kind == ADD else ADD, self.vertex)

    def __repr__(self) -> str:
        sign = "+" if self.kind == ADD else "-"
        return f"{sign}{self.vertex}"


def _check_move(s, move: Move) -> None:
    if move.kind == ADD:
        if move.vertex in s:
            raise ValueError(f"cannot add {move.vertex}: already present")
    elif move.vertex not in s:
        raise ValueError(f"cannot remove {move.vertex}: not present")


def apply_move(s: frozenset[int], move: Move) -> frozenset[int]:
    """Apply one move; reject adding a present vertex or removing an absent one."""
    _check_move(s, move)
    return s | {move.vertex} if move.kind == ADD else s - {move.vertex}


@dataclass(frozen=True)
class ReconfigSequence:
    start: frozenset[int]
    moves: tuple[Move, ...]
    k: int

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def end(self) -> frozenset[int]:
        """The set after the last move, replayed on one mutable set: O(moves).

        Raises apply_move's ValueError at the first malformed move.
        """
        s = set(self.start)
        for mv in self.moves:
            _check_move(s, mv)
            if mv.kind == ADD:
                s.add(mv.vertex)
            else:
                s.remove(mv.vertex)
        return frozenset(s)

    def states(self):
        """Yield the start set and the set after each move."""
        s = self.start
        yield s
        for mv in self.moves:
            s = apply_move(s, mv)
            yield s

    def __add__(self, other: "ReconfigSequence") -> "ReconfigSequence":
        if self.k != other.k:
            raise ValueError(f"cannot concatenate sequences with k={self.k} and k={other.k}")
        if self.end != other.start:
            raise ValueError("cannot concatenate: end of first differs from start of second")
        return ReconfigSequence(self.start, self.moves + other.moves, self.k)


def add_then_remove(adds=(), removes=()) -> tuple[Move, ...]:
    """The walk every construction uses: all adds, then all removes, each ascending."""
    return tuple(Move.add(v) for v in sorted(adds)) + tuple(
        Move.remove(v) for v in sorted(removes)
    )


def sequence_from_vertices(start, adds=(), removes=(), k: int = 0) -> ReconfigSequence:
    """Convenience constructor over add_then_remove."""
    return ReconfigSequence(frozenset(start), add_then_remove(adds, removes), k)


def shrink_walk(g: Graph, s, size: int, prefer_outside) -> tuple[Move, ...]:
    """Remove moves taking a dominating set s down to `size` members.

    Removes in greedy_removals order (outside prefer_outside first, then by
    id), so every intermediate set dominates. A set already at or below
    `size` gives no moves and costs no coverage pass. Raises ValueError when
    the greedy order stops above `size`.
    """
    need = max(len(s) - size, 0)
    removals = tuple(itertools.islice(greedy_removals(g, s, prefer_outside), need))
    if len(removals) < need:
        raise ValueError(
            f"cannot shrink to {size}: greedy minimalization stops at"
            f" size {len(s) - len(removals)}; is gamma_upper the true upper"
            " domination number?"
        )
    return tuple(Move.remove(v) for v in removals)


def check_endpoints(g: Graph, ds, dt, k: int):
    """Reject endpoints outside 0..n-1 (before is_dominating, which would
    wrap a negative id), not dominating, or of size > k."""
    for name, s in (("ds", ds), ("dt", dt)):
        if not all(0 <= v < g.n for v in s):
            raise ValueError(f"{name} has a vertex outside 0..{g.n - 1}")
        if not is_dominating(g, s):
            raise ValueError(f"{name} is not a dominating set")
        if len(s) > k:
            raise ValueError(f"{name} has size {len(s)} > k = {k}")


def reverse_sequence(seq: ReconfigSequence) -> ReconfigSequence:
    """Walk the sequence backwards: start at its end, flip each move."""
    return ReconfigSequence(
        seq.end, tuple(mv.flipped() for mv in reversed(seq.moves)), seq.k
    )


NOT_DOMINATING = "not-dominating"
SIZE_EXCEEDS_K = "size>k"
BAD_MOVE = "bad-move"


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violation_index: int | None
    violation_reason: str | None
    length: int
    max_size: int
    end: frozenset[int] | None
    end_matches: bool | None
    k: int

    def describe(self) -> str:
        if self.valid:
            msg = f"valid: length={self.length} max_size={self.max_size} k={self.k}"
        else:
            msg = (
                f"invalid at step {self.violation_index}"
                f" ({self.violation_reason}): length={self.length} k={self.k}"
            )
        if self.end_matches is not None:
            msg += f" end_matches={self.end_matches}"
        return msg


def verify_sequence(
    g: Graph,
    seq: ReconfigSequence,
    expected_end: frozenset[int] | None = None,
    k: int | None = None,
) -> VerificationReport:
    """Check a sequence step by step; violations are report data, not errors.

    Step 0 is the start set, step i the set after move i. Only the first
    violation is recorded; replay continues past domination or size
    violations but must stop at a malformed move: one that adds a present
    vertex, removes an absent one or names a vertex outside 0..n-1 (a start
    vertex outside that range is a bad move at step 0). The replay runs on one
    CoverCounts, so it costs O(|start| + sum of deg v over the moved
    vertices v) plus one frozenset for the end.
    """
    budget = seq.k if k is None else k
    try:
        state = CoverCounts(g, seq.start)
    except IndexError:
        return VerificationReport(
            valid=False,
            violation_index=0,
            violation_reason=BAD_MOVE,
            length=len(seq.moves),
            max_size=len(seq.start),
            end=None,
            end_matches=None,
            k=budget,
        )
    bad_index: int | None = None
    bad_reason: str | None = None
    max_size = 0

    def inspect(index: int):
        nonlocal bad_index, bad_reason, max_size
        size = len(state)
        max_size = max(max_size, size)
        if bad_index is None:
            if size > budget:
                bad_index, bad_reason = index, SIZE_EXCEEDS_K
            elif not state.dominating:
                bad_index, bad_reason = index, NOT_DOMINATING

    inspect(0)
    end: frozenset[int] | None = None
    for i, mv in enumerate(seq.moves, start=1):
        try:
            if mv.kind == ADD:
                state.add(mv.vertex)
            else:
                state.remove(mv.vertex)
        except (ValueError, IndexError):
            if bad_index is None:
                bad_index, bad_reason = i, BAD_MOVE
            break
        inspect(i)
    else:
        end = frozenset(state.members)
    end_matches = None if expected_end is None or end is None else end == frozenset(expected_end)
    return VerificationReport(
        valid=bad_index is None,
        violation_index=bad_index,
        violation_reason=bad_reason,
        length=len(seq.moves),
        max_size=max_size,
        end=end,
        end_matches=end_matches,
        k=budget,
    )


def parse_sequence(text: str) -> ReconfigSequence:
    """Parse 's tar <k> <length>' / 'd <ids>' / '+ <v>' / '- <v>' (1-based)."""
    k = None
    length = None
    start: frozenset[int] | None = None
    moves: list[Move] = []
    for lineno, fields in content_lines(text):
        if fields[0] == "s":
            if k is not None:
                raise SequenceFormatError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "tar":
                raise SequenceFormatError("header must be 's tar <k> <length>'", lineno)
            k, length = int_fields(fields[2:], SequenceFormatError, "header field", lineno)
            if k < 0 or length < 0:
                raise SequenceFormatError("negative header field", lineno)
        elif fields[0] == "d":
            if k is None:
                raise SequenceFormatError("start set before header", lineno)
            if start is not None:
                raise SequenceFormatError("duplicate start set", lineno)
            ids = int_fields(fields[1:], SequenceFormatError, "vertex id", lineno)
            if any(i < 1 for i in ids):
                raise SequenceFormatError("vertex ids are 1-based", lineno)
            if len(set(ids)) != len(ids):
                raise SequenceFormatError("repeated vertex in start set", lineno)
            start = frozenset(i - 1 for i in ids)
        elif fields[0] in ("+", "-"):
            if start is None:
                raise SequenceFormatError("move before start set", lineno)
            if len(fields) != 2:
                raise SequenceFormatError(f"move line must be '{fields[0]} <v>'", lineno)
            try:
                v = int(fields[1])
            except ValueError:
                raise SequenceFormatError("non-integer vertex id", lineno) from None
            if v < 1:
                raise SequenceFormatError("vertex ids are 1-based", lineno)
            moves.append(Move.add(v - 1) if fields[0] == "+" else Move.remove(v - 1))
        else:
            raise SequenceFormatError(f"unknown line type {fields[0]!r}", lineno)
    if k is None or length is None:
        raise SequenceFormatError("missing 's tar' header")
    if start is None:
        raise SequenceFormatError("missing 'd' start set line")
    if len(moves) != length:
        raise SequenceFormatError(
            f"header declares {length} moves but {len(moves)} were given"
        )
    return ReconfigSequence(start, tuple(moves), k)


def format_sequence(seq: ReconfigSequence, comments: list[str] | None = None) -> str:
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"s tar {seq.k} {len(seq.moves)}")
    lines.append(("d " + " ".join(str(v + 1) for v in sorted(seq.start))).rstrip())
    for mv in seq.moves:
        sign = "+" if mv.kind == ADD else "-"
        lines.append(f"{sign} {mv.vertex + 1}")
    return "\n".join(lines) + "\n"
