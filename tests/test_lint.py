"""Lint rules over the package sources, checked on their syntax trees with
the standard library alone: every imported name is used, every f-string has
a placeholder, every name imported from a package module, in the sources
and in the tests, is defined by that module rather than imported into it, so
no module re-exports another's names, and every private top-level function
or class is read somewhere in the sources outside its own body."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "eiscong").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at top level other than by an import."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)}
    return out


def reexported_imports(tree: ast.Module, homes: dict[str, set[str]]) -> list[tuple[int, str]]:
    """(line, "module.name") of each name imported from a package module,
    as ``.module`` or ``eiscong.module``, that the module does not define."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            module = (parts[0] if node.level == 1 else
                      parts[1] if node.level == 0 and parts[0] == "eiscong" and len(parts) == 2
                      else None)
            if module in homes:
                out += [(node.lineno, f"{module}.{a.name}") for a in node.names
                        if a.name not in homes[module]]
    return out


def unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """"module.name" of each top-level function or class named with one
    leading underscore that no other top-level statement of any module reads,
    as a name or as an attribute."""
    reads = []  # (module, statement, names the statement reads)
    for module, tree in trees.items():
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            reads.append((module, stmt, names))
    return sorted(f"{module}.{stmt.name}" for module, stmt, _ in reads
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and stmt.name.startswith("_") and not stmt.name.startswith("__")
                  and not any(stmt.name in names for _, other, names in reads
                              if other is not stmt))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_is_lint_clean(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []
    assert empty_fstrings(tree) == []


def test_names_are_imported_from_the_module_that_defines_them():
    homes = {p.stem: defined_names(ast.parse(p.read_text(encoding="utf-8")))
             for p in SOURCES if p.stem != "__init__"}
    found = {p.name: reexported_imports(ast.parse(p.read_text(encoding="utf-8")), homes)
             for p in SOURCES + TESTS}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_private_definitions_are_read_outside_their_own_body():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert unread_private_definitions(trees) == []


def test_the_rules_catch_what_they_name():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\nx = f'{lcm(1, 2):>4}'\n"
                     "y = f'plain'\n")
    assert unused_imports(tree) == [(1, "gcd"), (2, "os")]
    assert empty_fstrings(tree) == [4]
    homes = {"poly": {"INF", "is_prime"}, "exact": {"CycElem"}}
    tree = ast.parse("from .exact import CycElem, is_prime\nfrom eiscong.poly import INF\n"
                     "from eiscong.exact import INF\nfrom . import poly\n")
    assert reexported_imports(tree, homes) == [(1, "exact.is_prime"), (3, "exact.INF")]
    trees = {"a": ast.parse("def _used(): pass\ndef _self(n): return _self(n - 1)\n"
                            "class _Base: pass\ndef _attr(): pass\ndef __getattr__(n): pass\n"
                            "def _unread(): pass\n"),
             "b": ast.parse("from . import a\nfrom .a import _used, _Base\nx = _used()\n"
                            "class C(_Base):\n    y = a._attr\n")}
    assert unread_private_definitions(trees) == ["a._self", "a._unread"]
