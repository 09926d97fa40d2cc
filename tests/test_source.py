"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
import importlib
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinorwave"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (``from __future__`` aside) -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the module, also inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private name (dunders aside) of each module-level function, class or
    assignment -> its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names if name.startswith("_")
                       and not (name.startswith("__") and name.endswith("__")))
    return defined


def test_every_private_name_is_read():
    """Each module-level private name in the package is read somewhere in
    the package, as a name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _used_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(PACKAGE)}:{line} {name}" for path, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in read]
    assert not unread, f"defined and never read: {unread}"


def _definitions(tree: ast.Module):
    """(name, line, is_method) of each module-level function and class and
    of each non-dunder method defined in a module-level class body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno, True) for item in node.body
                        if isinstance(item, functions)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_is_referenced():
    """Each function, class and method of the package is referenced in the
    package, the tests or the benchmark: a function or class as a name, an
    import or an attribute, a method as an attribute."""
    root = PACKAGE.parent.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = [f"{path.relative_to(PACKAGE)}:{line} {name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for name, line, is_method in _definitions(ast.parse(path.read_text(encoding="utf-8")))
            if name not in attributes and (is_method or name not in names)]
    assert not dead, f"defined and never referenced: {dead}"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_are_stdlib_numpy_or_relative(path):
    """The package's one runtime dependency is numpy: every other import is
    of the standard library or relative to the package, so a new dependency
    cannot come in without a ``pyproject.toml`` change."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside.update((m, node.lineno) for m in modules if m.split(".")[0] not in allowed)
    assert not outside, f"{path.name}: imports outside stdlib and numpy: {outside}"


@pytest.mark.parametrize("package", ["core", "symbolic", "em"])
def test_lazy_table_lists_every_public_name(package):
    """A lazily loaded package exports exactly the names of its
    ``_SUBMODULES`` table, and each name resolves to the object that its
    listed submodule defines."""
    module = importlib.import_module(f"spinorwave.{package}")
    assert module.__all__ == list(module._SUBMODULES)
    for name, submodule in module._SUBMODULES.items():
        source = importlib.import_module(f"spinorwave.{package}.{submodule}")
        value = getattr(module, name)
        assert value is vars(source)[name], name
        assert getattr(value, "__module__", source.__name__) == source.__name__, name


def _enclosing_functions(tree: ast.Module) -> dict[ast.AST, str]:
    """Every node -> the name of the innermost function around it, or
    ``<module>``."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            owner[child] = name
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else name)

    visit(tree, "<module>")
    return owner


def test_gc_freeze_only_in_run():
    """Freezing the collector's heap is for a process about to exit: only
    ``cli.run``, the process entry, does it, never ``main(argv)`` or a layer
    that a caller may use in process."""
    places = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, function in _enclosing_functions(tree).items():
            if isinstance(node, ast.Attribute) and node.attr == "freeze" \
                    and isinstance(node.value, ast.Name) and node.value.id == "gc" \
                    or isinstance(node, ast.ImportFrom) and node.module == "gc":
                places.append((path.relative_to(PACKAGE).as_posix(), function))
    assert places == [("cli.py", "run")]


def test_console_script_is_the_process_entry():
    """The ``spinorwave`` script runs ``cli.run``, which freezes the heap at
    exit, as ``python -m spinorwave.cli`` does."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text("utf-8"))
    assert pyproject["project"]["scripts"] == {"spinorwave": "spinorwave.cli:run"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [guard] = [n for n in tree.body if isinstance(n, ast.If)
               and ast.unparse(n.test) == "__name__ == '__main__'"]
    assert ast.unparse(guard.body[0]) == "run()"
