"""Two lint rules over the package sources, checked on their syntax trees
with the standard library alone: every imported name is used, and every
f-string has a placeholder."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "eiscong").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and no expression reads;
    a name listed in ``__all__`` counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def empty_fstrings(tree: ast.Module) -> list[int]:
    """Lines of the f-strings with no placeholder (format specs excluded)."""
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec is not None}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) and id(node) not in specs
                  and not any(isinstance(v, ast.FormattedValue) for v in node.values))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_is_lint_clean(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []
    assert empty_fstrings(tree) == []


def test_the_rules_catch_what_they_name():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\nx = f'{lcm(1, 2):>4}'\n"
                     "y = f'plain'\n")
    assert unused_imports(tree) == [(1, "gcd"), (2, "os")]
    assert empty_fstrings(tree) == [4]
