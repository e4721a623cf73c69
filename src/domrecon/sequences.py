"""Token addition/removal sequences between dominating sets.

A sequence owns its budget k. Validity means: start set, every intermediate
set and the end set are dominating sets of size <= k, and each move adds an
absent vertex or removes a present one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, is_dominating

ADD = "add"
REMOVE = "remove"


class SequenceFormatError(ValueError):
    """Raised on malformed sequence files. Carries the 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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


def apply_move(s: frozenset[int], move: Move) -> frozenset[int]:
    """Apply one move; reject adding a present vertex or removing an absent one."""
    if move.kind == ADD:
        if move.vertex in s:
            raise ValueError(f"cannot add {move.vertex}: already present")
        return s | {move.vertex}
    if move.vertex not in s:
        raise ValueError(f"cannot remove {move.vertex}: not present")
    return s - {move.vertex}


@dataclass(frozen=True)
class ReconfigSequence:
    start: frozenset[int]
    moves: tuple[Move, ...]
    k: int

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def end(self) -> frozenset[int]:
        for s in self.states():
            pass
        return s

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


def check_endpoints(g: Graph, ds, dt, k: int):
    """Reject endpoints that are not dominating sets of size <= k."""
    for name, s in (("ds", ds), ("dt", dt)):
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
    violations but must stop at a malformed move.
    """
    budget = seq.k if k is None else k
    bad_index: int | None = None
    bad_reason: str | None = None

    def note(index: int, reason: str):
        nonlocal bad_index, bad_reason
        if bad_index is None:
            bad_index, bad_reason = index, reason

    max_size = 0
    end: frozenset[int] | None = None
    try:
        for i, current in enumerate(seq.states()):
            max_size = max(max_size, len(current))
            if len(current) > budget:
                note(i, SIZE_EXCEEDS_K)
            if bad_index is None and not is_dominating(g, current):
                note(i, NOT_DOMINATING)
            end = current
    except ValueError:
        # states() stopped at the malformed move i + 1
        note(i + 1, BAD_MOVE)
        end = None
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        if fields[0] == "s":
            if k is not None:
                raise SequenceFormatError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "tar":
                raise SequenceFormatError("header must be 's tar <k> <length>'", lineno)
            try:
                k, length = int(fields[2]), int(fields[3])
            except ValueError:
                raise SequenceFormatError("non-integer header field", lineno) from None
            if k < 0 or length < 0:
                raise SequenceFormatError("negative header field", lineno)
        elif fields[0] == "d":
            if k is None:
                raise SequenceFormatError("start set before header", lineno)
            if start is not None:
                raise SequenceFormatError("duplicate start set", lineno)
            try:
                ids = [int(f) for f in fields[1:]]
            except ValueError:
                raise SequenceFormatError("non-integer vertex id", lineno) from None
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
