"""The runtime contract, read off the package's source: it imports only the
standard library, and it writes no float literal and calls no ``float``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "closure_lab"


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_package_imports_only_the_standard_library():
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in imported:
                top = module.split(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, (name, module)


def test_package_computes_with_no_floats():
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, float), (name, node.lineno, node.value)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "float", (name, node.lineno)
