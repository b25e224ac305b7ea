"""Every module of the package and of its tests reads each name it
imports, and the package imports from itself only modules of a lower layer.

The package's ``__init__.py`` is left out: it imports names to re-export
them.
"""

import ast
import os

import pytest

import idealkit

PACKAGE = os.path.dirname(idealkit.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)
TESTS = os.path.dirname(os.path.abspath(__file__))
SOURCES = {name: os.path.join(PACKAGE, name) for name in MODULES}
SOURCES.update(
    (f"tests/{name}", os.path.join(TESTS, name))
    for name in sorted(os.listdir(TESTS))
    if name.endswith(".py")
)
# conftest.py imports the package only to load every submodule that defines a memo.
DELIBERATE = {"tests/conftest.py": ["idealkit"]}
# The layers of the package: a module imports only modules of lower rank,
# so the kernels and their oracles never read a fast path built on them.
RANKS = {
    "core": 0,
    "decomposition": 1,
    "homology": 1,
    "powers": 2,
    "binomial": 3,
    "dsl": 4,
    "fuzz": 5,
    "cli": 7,
}


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


@pytest.mark.parametrize("module", SOURCES)
def test_no_module_imports_a_name_it_never_reads(module):
    with open(SOURCES[module], encoding="utf-8") as f:
        assert unread_imports(f.read()) == DELIBERATE.get(module, [])


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


def package_imports(source: str) -> list[str]:
    """The package modules that ``source`` imports, relatively or by the
    package name, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` and ``from .x import y`` read the package.
            base = ".".join(filter(None, ["idealkit" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("idealkit."))
    return sorted(found)


def test_every_module_has_a_layer():
    assert sorted(RANKS) == [module[:-3] for module in MODULES]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_its_own_layer_or_a_higher_one(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as f:
        imports = package_imports(f.read())
    rank = RANKS[module[:-3]]
    assert [name for name in imports if RANKS[name] >= rank] == []


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .core import Ring, _memo\n", ["core"]),
        ("from . import dsl as _dsl, fuzz\n", ["dsl", "fuzz"]),
        ("def f():\n    from .powers import symbolic_power\n", ["powers"]),
        ("import idealkit.binomial\nfrom idealkit import homology\n", ["binomial", "homology"]),
        ("from idealkit.decomposition import _mask\n", ["decomposition"]),
        ("from __future__ import annotations\nimport re\nfrom operator import add\n", []),
    ],
)
def test_the_check_finds_package_imports(source, modules):
    assert package_imports(source) == modules
