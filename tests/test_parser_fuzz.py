"""Hypothesis fuzzing of the four text parsers over token text.

Each parser must return a value or raise its own format error; an error
raised while reading a line carries that line number, and an error without
one is an end-of-input check (missing header or line, count mismatch).
Inputs are free token text or a valid document with one or two edits; the
edits reach the checks behind the header. Integers stay in -3..50, so no header
asks for a huge graph.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrecon.graphs import GraphFormatError, header_n, parse_graph, parse_vertex_list
from domrecon.sequences import SequenceFormatError, parse_sequence
from domrecon.treewidth import DecompositionError, parse_td

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)

INTS = st.integers(-3, 50).map(str)
WORDS = st.sampled_from(
    ["p", "ds", "e", "s", "tar", "td", "d", "b", "+", "-", "c", "x", "1.5", "0x1", ""]
)
TOKENS = st.one_of(INTS, WORDS)
FREE = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=6).map("\n".join)
END_OF_INPUT = ("missing ", "header declares ")
# small ids, zero, a negative, non-integers and an extra field hit the
# range, type and shape checks
REPLACEMENTS = ("-1", "0", "1", "2", "3", "x", "1.5", "1 1")

GRAPH = "p ds 4 3\ne 1 2\ne 2 3\ne 3 4\n"
SEQUENCE = "s tar 3 2\nd 1 3\n+ 2\n- 1\n"
TD = "s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"


def single_edits(doc: str):
    """Every text one edit from doc: a token replaced by one of REPLACEMENTS
    or dropped, or a line dropped, repeated or cut to its first token."""
    lines = [line.split() for line in doc.splitlines()]
    for i, fields in enumerate(lines):
        for j in range(len(fields)):
            for token in (*REPLACEMENTS, None):
                out = [list(f) for f in lines]
                out[i][j : j + 1] = [] if token is None else [token]
                yield "\n".join(" ".join(f) for f in out)
        for out in (
            lines[:i] + lines[i + 1 :],
            lines[: i + 1] + lines[i:],
            lines[:i] + [fields[:1]] + lines[i + 1 :],
        ):
            yield "\n".join(" ".join(f) for f in out)


def texts(doc: str):
    """Two single edits of doc three times in four, free token text otherwise."""
    twice = st.sampled_from(list(single_edits(doc))).flatmap(
        lambda once: st.sampled_from(list(single_edits(once)) or [once])
    )
    # one_of weighs distinct branches evenly, so the branch is drawn by weight
    return st.sampled_from([twice, twice, twice, FREE]).flatmap(lambda chosen: chosen)


def check_format_error(parse, error, text):
    try:
        parse(text)
    except error as exc:
        if exc.line is None:
            assert str(exc).startswith(END_OF_INPUT), str(exc)
        else:
            assert 1 <= exc.line <= len(text.splitlines())
            assert str(exc).startswith(f"line {exc.line}: ")


def test_unedited_documents_parse():
    assert parse_graph(GRAPH).m == 3
    assert len(parse_sequence(SEQUENCE).moves) == 2
    assert parse_td(TD).num_bags == 3


@pytest.mark.parametrize(
    "parse, error, doc",
    [
        (parse_graph, GraphFormatError, GRAPH),
        (parse_sequence, SequenceFormatError, SEQUENCE),
        (parse_td, DecompositionError, TD),
    ],
)
def test_every_single_edit(parse, error, doc):
    for text in single_edits(doc):
        check_format_error(parse, error, text)


def error_rows():
    """(parser, text, error class, message, line, header_n(text)) for every
    one- and two-edit variant of each document, then a few bare texts."""
    for parse, doc in ((parse_graph, GRAPH), (parse_sequence, SEQUENCE), (parse_td, TD)):
        variants = set()
        for once in single_edits(doc):
            variants.add(once)
            variants.update(single_edits(once))
        for text in [*sorted(variants), "", "c", "p", "s", "x y"]:
            try:
                parse(text)
                row = [None, None, None]
            except ValueError as exc:
                row = [type(exc).__name__, str(exc), exc.line]
            yield [parse.__name__, text, *row, header_n(text)]


def test_error_texts_golden():
    # pins every message, line number and error class the parsers give on
    # these texts, and what header_n reads from them
    digest = hashlib.sha256()
    count = 0
    for row in error_rows():
        digest.update(json.dumps(row).encode() + b"\n")
        count += 1
    assert count == 29527
    assert digest.hexdigest() == (
        "bc3a517bd8fe8f113c492ded01228fb9d62ecdfc549fcf8b8bc8020b4cda12cf"
    )


@FUZZ
@given(texts(GRAPH))
def test_parse_graph(text):
    check_format_error(parse_graph, GraphFormatError, text)


@FUZZ
@given(texts(SEQUENCE))
def test_parse_sequence(text):
    check_format_error(parse_sequence, SequenceFormatError, text)


@FUZZ
@given(texts(TD))
def test_parse_td(text):
    check_format_error(parse_td, DecompositionError, text)


@FUZZ
@given(st.lists(st.one_of(INTS, st.sampled_from(["", " ", " 2 ", "x", "1.5", "1 2"]))))
def test_parse_vertex_list(items):
    text = ",".join(items)
    try:
        ids = parse_vertex_list(text)
    except ValueError:
        return
    assert all(v >= 0 for v in ids)
