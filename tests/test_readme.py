"""The README's examples, replayed and compared with their printed output."""

import re
import shlex
from pathlib import Path

from domrecon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for every `$ domrecon ...` line, in order.

    A command's output is every line after it up to the next `$` line or
    the end of its block.
    """
    examples = []
    for block in fenced_blocks("sh"):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = [line[2:], ""]
                examples.append(current)
            elif current is not None:
                current[1] += line + "\n"
    return [tuple(example) for example in examples]


def test_cli_tour(tmp_path, monkeypatch, capsys):
    # later commands read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DOMRECON_LIMIT", raising=False)
    examples = cli_examples()
    assert len(examples) == 11
    replayed = []
    for command, _ in examples:
        program, *argv = shlex.split(command)
        assert program == "domrecon"
        code = main(argv)
        replayed.append((command, code, capsys.readouterr().out))
    assert replayed == [(command, 0, out) for command, out in examples]


def test_library_snippet(capsys):
    (snippet,) = fenced_blocks("python")
    # each print call carries its output as a trailing comment
    expected = "".join(
        line.partition("# ")[2] + "\n"
        for line in snippet.splitlines()
        if line.startswith("print(")
    )
    assert expected
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out == expected
