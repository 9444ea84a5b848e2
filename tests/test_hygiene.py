"""Source hygiene: every module-level import in the package is used.

__init__.py is exempt (its imports are the public re-exports), and so is
`from __future__`. A name counts as used when it is read anywhere in the
module outside the import statements themselves.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sicladder"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name


def _read_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_the_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    unused = [name for name in _imported_names(tree) if name not in read]
    assert not unused, f"{path.stem} imports {unused} without using them"
