"""Every name a module of `src/plovkit` imports is referenced in its code.

A name counts as referenced when it appears as an identifier anywhere in
the module.  `from __future__ import annotations` binds nothing, and
`__init__.py` imports only to re-export, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import plovkit

MODULES = sorted(
    path
    for path in Path(plovkit.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """name -> line for every name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_references(path):
    tree = ast.parse(path.read_text(), str(path))
    used = referenced_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in sorted(imported_names(tree).items())
        if name not in used
    ]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Optional as Opt\n"
        "def f(x: Opt[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert set(imported_names(tree)) - referenced_names(tree) == {"Callable"}
