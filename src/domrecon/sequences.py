"""Token addition/removal sequences between dominating sets.

A sequence owns its budget k. Validity means: start set, every intermediate
set and the end set are dominating sets of size <= k, and each move adds an
absent vertex or removes a present one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import (
    CoverCounts,
    FormatError,
    Graph,
    content_lines,
    int_fields,
    is_dominating,
)

ADD = "add"
REMOVE = "remove"


class SequenceFormatError(FormatError):
    """Raised on malformed sequence files."""


@dataclass(frozen=True)
class Move:
    """One token move: add or remove `vertex`.

    Move.add, Move.remove and flipped hand out one shared instance per
    (kind, vertex), made on first use, so a sequence of any length holds at
    most two Move objects per vertex and building a move runs no dataclass
    __init__. Calling Move(kind, vertex) directly still makes a new one.
    """

    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in (ADD, REMOVE):
            raise ValueError(f"move kind must be {ADD!r} or {REMOVE!r}")

    @staticmethod
    def add(v: int) -> "Move":
        try:
            return _ADDS[v]
        except KeyError:
            return _ADDS.setdefault(v, Move(ADD, v))

    @staticmethod
    def remove(v: int) -> "Move":
        try:
            return _REMOVES[v]
        except KeyError:
            return _REMOVES.setdefault(v, Move(REMOVE, v))

    def flipped(self) -> "Move":
        return Move.remove(self.vertex) if self.kind == ADD else Move.add(self.vertex)

    def __repr__(self) -> str:
        sign = "+" if self.kind == ADD else "-"
        return f"{sign}{self.vertex}"


# the shared instances of Move.add and Move.remove, by vertex
_ADDS: dict[int, Move] = {}
_REMOVES: dict[int, Move] = {}


@dataclass(frozen=True)
class ReconfigSequence:
    start: frozenset[int]
    moves: tuple[Move, ...]
    k: int

    @classmethod
    def tracked(cls, start, moves, k: int, end) -> "ReconfigSequence":
        """A sequence whose end the caller already knows: it followed the
        moves on a state of its own that rejects the same bad moves (a
        CoverCounts, or the sequence this one reverses or extends), or built
        them from set differences that fix the end. `end` is stored, so
        reading it costs nothing. Every sequence the package constructs is
        made this way; only parsed or hand-built ones replay."""
        seq = cls(start, moves, k)
        seq.__dict__["end"] = frozenset(end)  # the cached_property's slot
        return seq

    def __len__(self) -> int:
        return len(self.moves)

    @cached_property
    def end(self) -> frozenset[int]:
        """The set after the last move.

        Known without a replay for every sequence the package constructs
        (ReconfigSequence.tracked; `+` and reversed hand a known end on). A
        parsed or hand-built sequence is replayed once on a plain set,
        O(moves), and the result cached. A malformed move raises the
        ValueError CoverCounts.add / remove raise, and nothing is cached,
        so every access raises it again.
        """
        s = set(self.start)
        for mv in self.moves:
            v = mv.vertex
            if mv.kind == ADD:
                if v in s:
                    raise ValueError(f"cannot add {v}: already present")
                s.add(v)
            elif v in s:
                s.remove(v)
            else:
                raise ValueError(f"cannot remove {v}: not present")
        return frozenset(s)

    def reversed(self) -> "ReconfigSequence":
        """Walk the sequence backwards: start at its end, flip each move.

        Replays the sequence only if its end is not known yet; the reversed
        walk ends at start, which it carries as its known end.
        """
        flipped = tuple(mv.flipped() for mv in reversed(self.moves))
        return ReconfigSequence.tracked(self.end, flipped, self.k, self.start)

    def __add__(self, other: "ReconfigSequence") -> "ReconfigSequence":
        if self.k != other.k:
            raise ValueError(f"cannot concatenate sequences with k={self.k} and k={other.k}")
        if self.end != other.start:
            raise ValueError("cannot concatenate: end of first differs from start of second")
        moves = self.moves + other.moves
        known = other.__dict__.get("end")
        if known is None:
            return ReconfigSequence(self.start, moves, self.k)
        # self ends where other starts, so the joined replay ends where other's does
        return ReconfigSequence.tracked(self.start, moves, self.k, known)


# the public spelling of ReconfigSequence.reversed
reverse_sequence = ReconfigSequence.reversed


def add_then_remove(adds=(), removes=()) -> tuple[Move, ...]:
    """The walk every construction uses: all adds, then all removes, each ascending."""
    return tuple(map(Move.add, sorted(adds))) + tuple(map(Move.remove, sorted(removes)))


def play(state: CoverCounts, moves) -> tuple[Move, ...]:
    """Make each move on a CoverCounts state, in order; return the moves.

    O(deg v) per move. A bad move raises CoverCounts' error and leaves the
    state as the moves before it left it.
    """
    moves = tuple(moves)
    for mv in moves:
        (state.add if mv.kind == ADD else state.remove)(mv.vertex)
    return moves


def shrink_in_place(state: CoverCounts, size: int, prefer_outside) -> tuple[Move, ...]:
    """Remove members of a dominating state, in place, down to `size`.

    Removes in greedy order (CoverCounts.shrink: outside prefer_outside
    first, then by id), so every intermediate set dominates; one pass over
    the sorted members, O(deg v) per member looked at. Returns the remove
    moves, none for a state already at or below `size`. Raises ValueError
    when the greedy order stops above `size`.
    """
    need = len(state) - size
    if need <= 0:
        return ()
    removals = state.shrink(prefer_outside, need)
    if len(removals) < need:
        raise ValueError(
            f"cannot shrink to {size}: greedy minimalization stops at"
            f" size {len(state)}; is gamma_upper the true upper"
            " domination number?"
        )
    return tuple(map(Move.remove, removals))


def check_endpoints(g: Graph, ds, dt, k: int):
    """Reject endpoints outside 0..n-1, not dominating, or of size > k."""
    for name, s in (("ds", ds), ("dt", dt)):
        if not all(0 <= v < g.n for v in s):
            raise ValueError(f"{name} has a vertex outside 0..{g.n - 1}")
        if not is_dominating(g, s):
            raise ValueError(f"{name} is not a dominating set")
        if len(s) > k:
            raise ValueError(f"{name} has size {len(s)} > k = {k}")


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
    vertex outside that range is a bad move at step 0). The replay holds
    CoverCounts' state in local variables (the members, a dominator count
    per vertex, the number of undominated vertices) and updates it inline,
    one loop pass per move, so it costs O(|start| + sum of deg v over the
    moved vertices v) plus one frozenset for the end.
    """
    budget = seq.k if k is None else k
    n = g.n
    closed = g._closed
    counts = [0] * n
    undominated = n

    def report(bad_index, bad_reason, max_size, end) -> VerificationReport:
        if expected_end is None or end is None:
            end_matches = None
        else:
            end_matches = end == frozenset(expected_end)
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

    for v in seq.start:
        if not 0 <= v < n:
            return report(0, BAD_MOVE, len(seq.start), None)
        for w in closed[v]:
            if not counts[w]:
                undominated -= 1
            counts[w] += 1
    members = set(seq.start)
    size = max_size = len(members)
    bad_index: int | None = None
    bad_reason: str | None = None
    if size > budget:
        bad_index, bad_reason = 0, SIZE_EXCEEDS_K
    elif undominated:
        bad_index, bad_reason = 0, NOT_DOMINATING
    for i, mv in enumerate(seq.moves, start=1):
        v = mv.vertex
        if mv.kind == ADD:
            if v in members or not 0 <= v < n:
                break
            members.add(v)
            for w in closed[v]:
                if not counts[w]:
                    undominated -= 1
                counts[w] += 1
            size += 1
            if size > max_size:
                max_size = size
        else:
            if v not in members:
                break
            members.remove(v)
            for w in closed[v]:
                counts[w] -= 1
                if not counts[w]:
                    undominated += 1
            size -= 1
        if bad_index is None:
            if size > budget:
                bad_index, bad_reason = i, SIZE_EXCEEDS_K
            elif undominated:
                bad_index, bad_reason = i, NOT_DOMINATING
    else:
        return report(bad_index, bad_reason, max_size, frozenset(members))
    # a malformed move at step i ends the replay
    if bad_index is None:
        bad_index, bad_reason = i, BAD_MOVE
    return report(bad_index, bad_reason, max_size, None)


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
