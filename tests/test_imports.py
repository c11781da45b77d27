"""The runtime is pure standard library: pyproject.toml declares no
dependencies, so every module of the package imports only the package itself
and modules of the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "starq").glob("*.py"))


def test_package_imports_only_itself_and_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {"starq", *sys.stdlib_module_names}]
    assert not outside, outside
