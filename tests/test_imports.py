"""Every module of the package reads each name it imports.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
import os

import pytest

import idealkit

PACKAGE = os.path.dirname(idealkit.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_reads(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as f:
        assert unread_imports(f.read()) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("from functools import lru_cache, reduce\nreduce\n", ["lru_cache"]),
        ("import os.path\nimport re as regex\n", ["os", "regex"]),
        ("from __future__ import annotations\nimport sys\nsys.exit\n", []),
        ("def f():\n    from math import inf\n", ["inf"]),
        ("from math import inf\ninf = 1\n", ["inf"]),
    ],
)
def test_the_check_finds_unread_imports(source, unread):
    assert unread_imports(source) == unread
