"""The package holds what the command line runs: every top-level function
and class of ``src/starq`` is reached from ``cli.main``.

The walk is by name.  It starts at ``cli.main`` and follows every name and
attribute a reached definition uses to the top-level definitions of that
name, in any module of the package.  A module is reached when a reached
module imports it, ``cli`` first.  The names used by the module-level
statements and the class bases of the reached modules count as reached,
since they run when the module is imported.  Type annotations are not
followed: they are never evaluated.  Code that only tests call belongs in
the tests.
"""

import ast
import shutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starq"

# Top-level definitions that may stay unreached, as "module.name"; none may.
ALLOWED: set[str] = set()

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _nodes(node: ast.AST):
    """node and the nodes below it, without type annotations."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _nodes(child)


def _used(nodes) -> set[str]:
    """The names and attribute names that nodes use."""
    out = set()
    for node in nodes:
        for sub in _nodes(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _imported(tree: ast.Module) -> set[str]:
    """The modules of the package that a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def unreached(package: Path) -> list[str]:
    """The top-level functions and classes of a package directory that no
    name walk from ``cli.main`` reaches, as sorted "module.name"."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    defs = {(module, node.name): node for module, tree in trees.items()
            for node in tree.body if isinstance(node, _DEFS)}

    modules, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module in trees and module not in modules:
            modules.add(module)
            todo += _imported(trees[module])
    names = {"main"} if ("cli", "main") in defs else set()
    for module in modules:
        for node in trees[module].body:
            names |= _used(node.bases if isinstance(node, ast.ClassDef)
                           else [] if isinstance(node, _DEFS) else [node])

    reached: set[tuple[str, str]] = set()
    todo = sorted(names)
    while todo:
        name = todo.pop()
        for key in [k for k in defs if k[1] == name and k[0] in modules and k not in reached]:
            reached.add(key)
            new = _used([defs[key]]) - names
            names |= new
            todo += new
    return sorted(f"{module}.{name}" for module, name in defs if (module, name) not in reached)


def test_every_definition_is_reached_from_the_command_line():
    assert not ALLOWED
    assert unreached(PACKAGE) == sorted(ALLOWED)


def test_an_unreached_function_is_found(tmp_path):
    copy = tmp_path / "starq"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "verify.py", "a") as handle:
        handle.write("\n\ndef orphan(levels):\n    return associator_scan(levels, 1)\n")
    assert unreached(copy) == ["verify.orphan"]
