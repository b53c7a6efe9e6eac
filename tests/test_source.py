"""Checks on the package source itself, read as text: no engine run."""

from __future__ import annotations

import ast
import importlib
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohitlab"
# public names only tests and the benchmark self-test call, to reset memos
TEST_HOOKS = {"clear_caches"}


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


def _name_tokens(path: Path) -> list[tuple[int, str, bool]]:
    """(line, identifier, whether it is spelled as an attribute ``.name``)
    for each NAME token of a source file.

    Before Python 3.12 an f-string is one STRING token, so the names in its
    replacement fields are read from its syntax tree instead.
    """
    found, previous = [], None
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME:
                found.append((tok.start[0], tok.string, previous == "."))
            elif tok.type == tokenize.STRING:
                found += _f_string_names(tok.string, tok.start[0])
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return found


def _f_string_names(literal: str, line: int) -> list[tuple[int, str, bool]]:
    """The names the replacement fields of a string literal spell, as
    :func:`_name_tokens` gives them; a literal not an f-string spells none."""
    found = []
    for node in ast.walk(ast.parse(literal, mode="eval")):
        if isinstance(node, ast.Name):
            found.append((line + node.lineno - 1, node.id, False))
        elif isinstance(node, ast.Attribute):
            found.append((line + node.end_lineno - 1, node.attr, True))
    return found


def test_a_name_called_only_inside_an_f_string_counts(tmp_path):
    # before Python 3.12 tokenize gives each f-string as one STRING token
    source = tmp_path / "module.py"
    source.write_text(
        "def helper():\n"
        "    return 1\n"
        "message = f'{helper()} and {span.from_coordinates(0)!r:>4}'\n"
        "plain = 'helper' + \"{other}\"\n"
        'raw = rf"""{obj.method}\n{other}"""\n'
    )
    tokens = _name_tokens(source)
    assert (3, "helper", False) in tokens
    assert (3, "span", False) in tokens
    assert (3, "from_coordinates", True) in tokens
    assert (5, "method", True) in tokens and (6, "other", False) in tokens
    # a string that is not an f-string spells no name
    assert [name for line, name, _ in tokens if line == 4] == ["plain"]


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    """Every definition in the package is named somewhere a production path reads.

    A name counts as used when a NAME token spells it in ``src/`` outside its
    own definition, anywhere in ``scripts/`` or ``perfbench/``, or as a part
    of a dotted name the benchmark tracer's ``TARGETS`` lists.  A method's
    token counts only where it is spelled as an attribute, ``.name``, so a
    local variable of the same name does not hide a method nothing calls.
    Code only the tests call belongs in ``tests/``.  The check goes by name
    alone, so it cannot see a method whose name another class shares: a
    ``to_json`` that nothing calls passes, because other classes' ``to_json``
    are called.
    """
    elsewhere = [
        (name, attribute)
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
        for _, name, attribute in _name_tokens(path)
    ]
    traced = {part for target in _tracing_targets() for part in target.split(".")}
    sources = {path: _name_tokens(path) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path in sources:
        for qualified, node in _definitions(ast.parse(path.read_text())):
            name, method = node.name, "." in qualified
            if name in traced or name in TEST_HOOKS or any(
                token == name and (attribute or not method)
                for token, attribute in elsewhere
            ):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                token == name and (attribute or not method)
                and not (where == path and first <= line <= node.end_lineno)
                for where, tokens in sources.items()
                for line, token, attribute in tokens
            ):
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []


def test_the_package_has_no_bare_assert():
    # ``python -O`` strips assert statements; invariants must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
