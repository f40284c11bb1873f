"""Source hygiene: every import is used where it is made, every definition
is referenced, and every defaulted parameter is passed by some call."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lenard"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _scoped_imports(node, scope, out):
    """(scope, line, name) of each import; the scope is the innermost
    enclosing def, or the module."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.Import, ast.ImportFrom))
                and getattr(child, "module", None) != "__future__"):
            for alias in child.names:
                out.append((scope, child.lineno,
                            (alias.asname or alias.name).split(".")[0]))
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _scoped_imports(child, inner, out)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Each imported name is used in the scope that imports it."""
    tree = ast.parse(path.read_text())
    unused = sorted((line, name) for scope, line, name in _scoped_imports(tree, tree, [])
                    if not any(isinstance(n, ast.Name) and n.id == name
                               for n in ast.walk(scope)))
    assert not unused, "unused imports (line, name): %s" % unused


ROOT = SRC.parent.parent
USER_DIRS = ("src", "tests", "bench", "demos")


def _user_files(dirs=USER_DIRS):
    return [path for sub in dirs for path in (ROOT / sub).rglob("*.py")]


def _referenced_names(paths):
    """Every name the modules at these paths could refer to."""
    names = set()
    for path in paths:
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


def _unreferenced(names):
    """path:line qualified name of each definition whose name is not in names."""
    return sorted("%s:%d %s" % (path.name, line, qual)
                  for path in MODULES
                  for line, qual in _definitions(ast.parse(path.read_text()))
                  if qual.rsplit(".", 1)[-1] not in names)


def test_no_dead_definitions():
    dead = _unreferenced(_referenced_names(_user_files()))
    assert not dead, "defined but never referenced: %s" % dead


def test_definitions_only_tests_reach_are_exported():
    """A definition referenced only under tests/ is reached by no entry
    point; it stays only as public API, exported from lenard/__init__.py.
    A name clash can hide such a definition, never invent one."""
    init = SRC / "__init__.py"
    outside = [p for p in _user_files(("src", "bench", "demos")) if p != init]
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    only_tests = _unreferenced(_referenced_names(outside) | exported)
    assert not only_tests, "referenced only by tests, not exported: %s" % only_tests


def _calls_by_name():
    """{callee name: [(positional count, keyword names, uses * or **)]} over
    every call in src, tests, bench and demos, matched by name only."""
    calls = {}
    for path in _user_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name is None:
                continue
            star = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, star))
    return calls


def _defaulted_parameters(body, cls=None):
    """(line, qualified name, callee name, positional index or None, param)
    for each parameter with a default; __init__ is called by its class name
    and a method's index does not count self or cls."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            callee = cls if node.name == "__init__" else node.name
            qual = "%s.%s" % (cls, node.name) if cls else node.name
            first = len(pos) - len(a.defaults)
            for i in range(first, len(pos)):
                yield node.lineno, qual, callee, i - skip, pos[i].arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.lineno, qual, callee, None, arg.arg
            yield from _defaulted_parameters(node.body)


def test_no_dead_parameters():
    """A defaulted parameter no call passes is a dead option.  A call to the
    same name passes it by keyword, by enough positional arguments, or
    through * or **; a name clash can hide a dead parameter, never invent one."""
    calls = _calls_by_name()
    dead = sorted("%s:%d %s(%s)" % (path.name, line, qual, param)
                  for path in MODULES
                  for line, qual, callee, index, param
                  in _defaulted_parameters(ast.parse(path.read_text()).body)
                  if not any(param in kws or star or (index is not None and npos > index)
                             for npos, kws, star in calls.get(callee, ())))
    assert not dead, "defaulted parameters no call passes: %s" % dead


def _relative_imports(nodes):
    """The lenard modules named by `from .m import ...` among the nodes."""
    return {n.module for n in nodes
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module}


def test_local_imports_only_break_cycles():
    """A function-local `from .m import` in module f is allowed only when m
    reaches f through top-level imports; any other belongs at the top."""
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    edges = {name: _relative_imports(tree.body) for name, tree in trees.items()}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            m = todo.pop()
            if m == goal:
                return True
            if m not in seen:
                seen.add(m)
                todo.extend(edges.get(m, ()))
        return False

    needless = sorted("%s.py:%d from .%s" % (name, node.lineno, node.module)
                      for name, tree in trees.items()
                      for node in ast.walk(tree)
                      if node not in tree.body and _relative_imports([node])
                      and not reaches(node.module, name))
    assert not needless, "function-local imports that close no cycle: %s" % needless


def _inline_floor_joins(tree):
    """Lines of each `X if Y is None else max(...)` whose X is not None (or
    the same with `is not None` and the branches swapped): the None = exact
    floor join written out again.  `None if Y is None else max(...)`
    propagates None, so it is not a join."""
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.IfExp) else None
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            continue
        other, joined = ((node.body, node.orelse) if isinstance(test.ops[0], ast.Is)
                         else (node.orelse, node.body))
        if (isinstance(joined, ast.Call) and isinstance(joined.func, ast.Name)
                and joined.func.id == "max"
                and not (isinstance(other, ast.Constant) and other.value is None)):
            yield node.lineno


def test_floor_joins_go_through_jf():
    """Floors join in one place, operators._jf (None = exact)."""
    inline = ["%s:%d" % (path.name, line) for path in MODULES
              for line in sorted(_inline_floor_joins(ast.parse(path.read_text())))]
    assert not inline, "inline floor joins; use operators._jf: %s" % inline


def test_univariate_shift_stays_behind_compose():
    """operators._binomial_shift, the one univariate shift kernel, is named
    in src only by operators.py: every other module shifts a series by
    ScalarPsdOp.compose or adjoint."""
    outside = sorted("%s:%d" % (path.name, node.lineno) for path in MODULES
                     if path.name != "operators.py"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if "_binomial_shift" in (getattr(node, "id", None),
                                              getattr(node, "attr", None),
                                              getattr(node, "name", None)))
    assert not outside, "_binomial_shift named outside operators.py: %s" % outside


# field.py keeps the coefficient rule (an int when integral, one division
# helper); grammar.py and cli.py parse rationals from input; liouville.py
# writes closed-form rationals
FRACTION_MODULES = {"field.py", "grammar.py", "cli.py", "liouville.py"}


def test_only_coefficient_and_input_modules_import_fractions():
    """Other modules take coefficients from field, so no new coefficient
    arithmetic bypasses its rule or its division helper."""
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)))
    assert set(importers) <= FRACTION_MODULES, importers


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "_bench_" + name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_relies_on_exist():
    """bench/ wraps and reads lenard names it cannot be changed to follow:
    each traced (owner, attribute) is defined on its owner, and each name a
    bench script imports from lenard, or reads off a lenard module, exists."""
    tracing = _load_bench_module("tracing")
    missing = ["%s.%s" % (owner.__name__, attr)
               for targets in tracing.TARGETS.values()
               for owner, attr in targets if attr not in vars(owner)]
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lenard"):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(owner, alias.name):
                        missing.append("%s: %s.%s" % (path.name, node.module, alias.name))
                    elif inspect.ismodule(getattr(owner, alias.name)):
                        modules[alias.asname or alias.name] = getattr(owner, alias.name)
        missing += ["%s: %s.%s" % (path.name, node.value.id, node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)]
    assert not missing, "names bench/ relies on that lenard lacks: %s" % sorted(set(missing))


def _lenard_callee(node, names):
    """The lenard object a call's dotted function name resolves to, or None
    when it does not start from a lenard name the script imported."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    obj = names[node.id]
    for attr in reversed(attrs):
        obj = getattr(obj, attr, None)
    return obj if callable(obj) else None


def test_bench_calls_bind_to_lenard_signatures():
    """Every call a bench script makes through a name it imported from
    lenard binds to the callee's signature, so a parameter only the
    benchmark passes cannot be dropped unseen; calls with * or ** are
    skipped."""
    unbound = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lenard"):
                owner = importlib.import_module(node.module)
                names.update((alias.asname or alias.name, getattr(owner, alias.name))
                             for alias in node.names if hasattr(owner, alias.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (
                    any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            callee = _lenard_callee(node.func, names)
            if callee is None:
                continue
            try:
                inspect.signature(callee).bind(*[None] * len(node.args),
                                               **{k.arg: None for k in node.keywords})
            except TypeError as e:
                unbound.append("%s:%d %s" % (path.name, node.lineno, e))
            except ValueError:   # a builtin without a signature
                pass
    assert not unbound, "bench calls that no longer bind: %s" % unbound
