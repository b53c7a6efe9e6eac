"""The README's quick tour runs, and every value it shows is what it prints."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_lines() -> list[tuple[str, str]]:
    """(code, comment) per line of the README's python block.

    A line holding only a comment continues the comment of the line before.
    """
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines: list[list[str]] = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            lines.append([code.strip(), comment.strip()])
        elif comment and lines:
            lines[-1][1] += " " + comment.strip()
    return [(code, comment) for code, comment in lines]


def test_quick_tour_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    checked = []
    for code, comment in tour_lines():
        if isinstance(ast.parse(code).body[0], ast.Expr) and comment:
            want = ast.literal_eval(comment)
            assert repr(eval(code, namespace)) == repr(want), code
            checked.append(code)
        else:
            exec(code, namespace)
    assert len(checked) == 9, checked
