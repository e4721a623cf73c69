"""Static checks over the package source."""

import ast
from pathlib import Path

import domrecon


def test_no_assert_statements():
    # internal checks must survive python -O and reach the CLI exit codes,
    # so they raise instead of asserting
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_move_add_only_in_sequences():
    # the walk order (adds before removes, each ascending) lives in
    # sequences.add_then_remove; other modules build their adds through it
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert any(path.name == "sequences.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "sequences.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "add"
        and isinstance(node.value, ast.Name)
        and node.value.id == "Move"
    ]
    assert found == []
