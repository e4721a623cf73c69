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
