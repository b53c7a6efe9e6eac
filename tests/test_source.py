"""Checks on the package source itself, read as text: no engine run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohitlab"


def _tracing_targets() -> list[str]:
    """The keys of ``TARGETS`` in perfbench/tracing.py, without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise LookupError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_name_exists():
    # the benchmark reports a missing name as absent instead of failing, so a
    # deletion that drops a traced name must fail here
    targets = _tracing_targets()
    assert len(targets) > 20
    missing = []
    for name in targets:
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"cohitlab.{module_name}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(name)
    assert missing == []


def test_the_package_has_no_bare_assert():
    # ``python -O`` strips assert statements; invariants must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
