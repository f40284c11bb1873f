"""Source hygiene: every module uses each name it imports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lenard"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, "unused imports (line, name): %s" % unused


ROOT = SRC.parent.parent
USER_DIRS = ("src", "tests", "bench", "demos")


def _referenced_names():
    """Every name a module in src, tests, bench or demos could refer to."""
    names = set()
    for sub in USER_DIRS:
        for path in (ROOT / sub).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def _definitions(tree):
    """(line, name) of top-level and non-dunder class-level defs and classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, kinds) and not
                        (member.name.startswith("__") and member.name.endswith("__"))):
                    yield member.lineno, "%s.%s" % (node.name, member.name)


def test_no_dead_definitions():
    names = _referenced_names()
    dead = sorted("%s:%d %s" % (path.name, line, qual)
                  for path in MODULES
                  for line, qual in _definitions(ast.parse(path.read_text()))
                  if qual.rsplit(".", 1)[-1] not in names)
    assert not dead, "defined but never referenced: %s" % dead
